"""Command-line entry point.

Subcommands: ``scenario`` (architecture comparison table), ``linkmap``
(downlink success probability grid), ``memory`` (spin-dynamics kymographs
and memory efficiency), ``gainmap`` (buffering gain grid). Outputs are
byte-deterministic for a given configuration. Exit codes: 0 success,
1 configuration error, 2 solver failure, 3 infeasible storage when
``--require-feasible`` is set.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import scenario as scn
from . import spindyn
from .config import ConfigError, ENSEMBLE_PRESETS
from .spindyn import SolverFailure

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2 for
    solver failures, so usage errors exit with the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type for every float flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="satqlink", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file (key = value lines)")
    common.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    common.add_argument(
        "--format",
        choices=cfgmod.OUTPUT_FORMATS,
        help="scenario artifact format (default from config)",
    )
    common.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one configuration key; repeatable",
    )
    common.add_argument("--eta-mem", type=_finite_float, help="shorthand for --set eta_mem=VALUE")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_scenario = sub.add_parser(
        "scenario", parents=[common], help="architecture comparison table"
    )
    p_scenario.add_argument(
        "--require-feasible",
        action="store_true",
        help="exit with status 3 when the memory lifetime cannot bridge the buffer interval",
    )

    p_linkmap = sub.add_parser(
        "linkmap", parents=[common], help="downlink success probability grid"
    )
    p_linkmap.add_argument("--range-min", type=_finite_float, default=500.0, help="km (default 500)")
    p_linkmap.add_argument("--range-max", type=_finite_float, default=2500.0, help="km (default 2500)")
    p_linkmap.add_argument("--range-steps", type=int, default=21)
    p_linkmap.add_argument("--jitter-min", type=_finite_float, default=0.0, help="urad (default 0)")
    p_linkmap.add_argument("--jitter-max", type=_finite_float, default=5.0, help="urad (default 5)")
    p_linkmap.add_argument("--jitter-steps", type=int, default=21)

    p_memory = sub.add_parser(
        "memory", parents=[common], help="spin-dynamics kymographs and memory efficiency"
    )
    p_memory.add_argument(
        "--preset",
        choices=ENSEMBLE_PRESETS,
        default="rescaled",
        help="ensemble preset (default rescaled; paper-literal keeps the configured coupling)",
    )
    p_memory.add_argument("--grid", type=int, default=256, help="radial points (default 256)")
    p_memory.add_argument("--storage", type=_finite_float, default=463.0, help="dark interval, s")
    p_memory.add_argument(
        "--exchange-window",
        type=_finite_float,
        default=None,
        help="transfer window T' in s (default pi/(2J))",
    )
    p_memory.add_argument("--write-time", type=_finite_float, default=0.0, help="optical write window, s")
    p_memory.add_argument("--read-time", type=_finite_float, default=0.0, help="optical read window, s")
    p_memory.add_argument("--rabi", type=_finite_float, default=0.0, help="control Rabi frequency, s^-1")
    p_memory.add_argument("--samples", type=int, default=121, help="kymograph time samples")
    p_memory.add_argument(
        "--profile",
        choices=spindyn.INITIAL_PROFILES,
        default="uniform",
        help="initial alkali profile",
    )
    p_memory.add_argument(
        "--rtol",
        type=_finite_float,
        help=f"relative tolerance (default {spindyn.SolverConfig.relative_tolerance:g})",
    )
    p_memory.add_argument(
        "--atol",
        type=_finite_float,
        help=f"absolute tolerance (default {spindyn.SolverConfig.absolute_tolerance:g})",
    )

    p_gainmap = sub.add_parser(
        "gainmap", parents=[common], help="buffering gain grid"
    )
    p_gainmap.add_argument("--elev-min", type=_finite_float, default=20.0, help="deg (default 20)")
    p_gainmap.add_argument("--elev-max", type=_finite_float, default=90.0, help="deg (default 90)")
    p_gainmap.add_argument("--elev-steps", type=int, default=15)
    p_gainmap.add_argument("--mem-min", type=_finite_float, default=0.1)
    p_gainmap.add_argument("--mem-max", type=_finite_float, default=1.0)
    p_gainmap.add_argument("--mem-steps", type=int, default=19)

    return parser


def _load_run_config(args) -> cfgmod.RunConfig:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.RunConfig()
    overrides = list(args.overrides)
    if args.eta_mem is not None:
        overrides.append(f"eta_mem={args.eta_mem!r}")
    if overrides:
        cfg = cfgmod.apply_overrides(cfg, overrides)
    return cfg


def _prepare_out(args, cfg) -> Path:
    out = Path(args.out if args.out else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(cfgmod.emit_config(cfg), encoding="utf-8")
    return out


def _axis(name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise ConfigError(f"{name}: steps must be at least 2")
    if not lo < hi:
        raise ConfigError(f"{name}: bounds must satisfy min < max")
    return np.linspace(lo, hi, steps)


def _cmd_scenario(args) -> int:
    cfg = _load_run_config(args)
    out = _prepare_out(args, cfg)
    result = scn.compare_scenarios(cfgmod.scenario_config(cfg))
    fmt = args.format if args.format else cfg.output_format
    if fmt == "markdown":
        (out / "scenario.md").write_text(scn.markdown_comparison(result), encoding="utf-8")
    elif fmt == "text":
        (out / "scenario.txt").write_text(scn.record_comparison(result), encoding="utf-8")
    else:
        (out / "scenario.csv").write_text(scn.csv_comparison(result), encoding="utf-8")
    sys.stdout.write(scn.markdown_comparison(result))
    if args.require_feasible and not result.feasible:
        sys.stdout.write("storage infeasible: memory lifetime below the buffer interval\n")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_linkmap(args) -> int:
    cfg = _load_run_config(args)
    out = _prepare_out(args, cfg)
    ranges = _axis("range axis", args.range_min, args.range_max, args.range_steps)
    jitters = _axis("jitter axis", args.jitter_min * 1e-6, args.jitter_max * 1e-6, args.jitter_steps)
    grid = scn.downlink_probability_map(ranges, jitters, cfgmod.scenario_config(cfg))
    path = out / "linkmap.csv"
    path.write_text(scn.linkmap_csv(ranges, jitters, grid), encoding="utf-8")
    sys.stdout.write(f"wrote {path} ({grid.size} cells)\n")
    return EXIT_OK


def _cmd_gainmap(args) -> int:
    cfg = _load_run_config(args)
    out = _prepare_out(args, cfg)
    elevations = _axis(
        "elevation axis", math.radians(args.elev_min), math.radians(args.elev_max), args.elev_steps
    )
    memories = _axis("memory axis", args.mem_min, args.mem_max, args.mem_steps)
    grid = scn.gain_map(elevations, memories, cfgmod.scenario_config(cfg))
    path = out / "gainmap.csv"
    path.write_text(scn.gainmap_csv(elevations, memories, grid), encoding="utf-8")
    sys.stdout.write(f"wrote {path} ({grid.size} cells)\n")
    return EXIT_OK


def _cmd_memory(args) -> int:
    cfg = _load_run_config(args)
    out = _prepare_out(args, cfg)
    ens = cfgmod.ensemble_params(cfg, preset=args.preset)
    schedule = spindyn.ProtocolSchedule(
        write_time=args.write_time,
        dark_interval=args.storage,
        read_time=args.read_time,
        rabi_frequency=args.rabi,
        exchange_window=args.exchange_window,
    )
    tolerances = {
        name: value
        for name, value in (("relative_tolerance", args.rtol), ("absolute_tolerance", args.atol))
        if value is not None
    }
    solver = spindyn.SolverConfig(initial_profile=args.profile, **tolerances)
    grid = spindyn.RadialGrid(cfg.cell_radius_m, args.grid)
    try:
        result = spindyn.simulate_protocol(ens, schedule, grid, solver, time_samples=args.samples)
    except SolverFailure as exc:
        sys.stderr.write(
            f"solver failure: {exc}\n"
            f"  ensemble: {ens}\n  schedule: {schedule}\n  grid: {grid}\n"
        )
        return EXIT_SOLVER
    spindyn.write_kymograph_csv(out / "kymograph_s.csv", result, columns=("S_norm",))
    spindyn.write_kymograph_csv(out / "kymograph_k.csv", result, columns=("K_norm",))
    spindyn.write_kymograph_csv(out / "kymograph.csv", result)
    sys.stdout.write(f"eta_mem = {result.eta_mem:.6f}\n")
    sys.stdout.write(f"wrote {out / 'kymograph_s.csv'} and {out / 'kymograph_k.csv'}\n")
    return EXIT_OK


_COMMANDS = {
    "scenario": _cmd_scenario,
    "linkmap": _cmd_linkmap,
    "memory": _cmd_memory,
    "gainmap": _cmd_gainmap,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
