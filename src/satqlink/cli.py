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
import gc
import importlib
import math
import sys
from pathlib import Path

from . import config as cfgmod
from .config import ConfigError, ENSEMBLE_PRESETS, INITIAL_PROFILES


def _package_getattr(name: str):
    """The package's module ``__getattr__`` (PEP 562): the benchmark tracer
    reads ``satqlink.scenario`` and ``satqlink.spindyn`` also where no
    command imported them. Every command compiles this module anyway; in
    ``__init__.py`` the hook would add about 0.1 ms to ``import satqlink``."""
    if name in ("scenario", "spindyn"):
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__package__!r} has no attribute {name!r}")


sys.modules[__package__].__getattr__ = _package_getattr

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


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound; argparse names
    the flag in the usage error, and an unparsable value is an "invalid
    integer value"."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="satqlink", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file (key = value lines)")
    common.add_argument("--out", metavar="DIR", default="out", help="output directory (default out)")
    common.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one configuration key; repeatable",
    )

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_scenario = sub.add_parser(
        "scenario", parents=[common], help="architecture comparison table"
    )
    p_scenario.add_argument(
        "--format",
        choices=("csv", "markdown", "text"),
        default="markdown",
        help="scenario artifact format (default markdown)",
    )
    p_scenario.add_argument(
        "--eta-mem",
        type=lambda text: f"eta_mem={_finite_float(text)!r}",
        dest="overrides",
        action="append",
        metavar="X",
        help="shorthand for --set eta_mem=X",
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
    p_linkmap.add_argument("--range-steps", type=_int_at_least(2), default=21)
    p_linkmap.add_argument("--jitter-min", type=_finite_float, default=0.0, help="urad (default 0)")
    p_linkmap.add_argument("--jitter-max", type=_finite_float, default=5.0, help="urad (default 5)")
    p_linkmap.add_argument("--jitter-steps", type=_int_at_least(2), default=21)

    p_memory = sub.add_parser(
        "memory", parents=[common], help="spin-dynamics kymographs and memory efficiency"
    )
    p_memory.add_argument(
        "--preset",
        choices=ENSEMBLE_PRESETS,
        default="rescaled",
        help="ensemble preset (default rescaled; paper-literal keeps the configured coupling)",
    )
    p_memory.add_argument("--grid", type=_int_at_least(16), default=256, help="radial points (default 256)")
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
    p_memory.add_argument("--samples", type=_int_at_least(2), default=121, help="kymograph time samples")
    p_memory.add_argument(
        "--profile",
        choices=INITIAL_PROFILES,
        default="uniform",
        help="initial alkali profile",
    )

    p_gainmap = sub.add_parser(
        "gainmap", parents=[common], help="buffering gain grid"
    )
    p_gainmap.add_argument("--elev-min", type=_finite_float, default=20.0, help="deg (default 20)")
    p_gainmap.add_argument("--elev-max", type=_finite_float, default=90.0, help="deg (default 90)")
    p_gainmap.add_argument("--elev-steps", type=_int_at_least(2), default=15)
    p_gainmap.add_argument("--mem-min", type=_finite_float, default=0.1)
    p_gainmap.add_argument("--mem-max", type=_finite_float, default=1.0)
    p_gainmap.add_argument("--mem-steps", type=_int_at_least(2), default=19)

    return parser


def _axis(name: str, lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` (at least 2, as the parser ensures) evenly spaced points
    from lo to hi, as ``numpy.linspace`` makes them."""
    if not lo < hi:
        raise ConfigError(f"{name}: bounds must satisfy min < max")
    step = (hi - lo) / (steps - 1)
    return [i * step + lo for i in range(steps - 1)] + [hi]


def _cmd_scenario(args, cfg: cfgmod.RunConfig, out: Path) -> int:
    from . import scenario as scn

    result = scn.compare_scenarios(cfgmod.scenario_config(cfg))
    if args.format == "markdown":
        (out / "scenario.md").write_text(scn.markdown_comparison(result), encoding="utf-8")
    elif args.format == "text":
        (out / "scenario.txt").write_text(scn.record_comparison(result), encoding="utf-8")
    else:
        (out / "scenario.csv").write_text(scn.csv_comparison(result), encoding="utf-8")
    sys.stdout.write(scn.markdown_comparison(result))
    if args.require_feasible and not result.feasible:
        sys.stdout.write("storage infeasible: memory lifetime below the buffer interval\n")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_linkmap(args, cfg: cfgmod.RunConfig, out: Path) -> int:
    from . import scenario as scn

    ranges = _axis("range axis", args.range_min, args.range_max, args.range_steps)
    jitters = _axis("jitter axis", args.jitter_min * 1e-6, args.jitter_max * 1e-6, args.jitter_steps)
    grid = scn.downlink_probability_map(ranges, jitters, cfgmod.scenario_config(cfg))
    path = out / "linkmap.csv"
    path.write_text(scn.linkmap_csv(ranges, jitters, grid), encoding="utf-8")
    sys.stdout.write(f"wrote {path} ({grid.size} cells)\n")
    return EXIT_OK


def _cmd_gainmap(args, cfg: cfgmod.RunConfig, out: Path) -> int:
    from . import scenario as scn

    elevations = _axis(
        "elevation axis", math.radians(args.elev_min), math.radians(args.elev_max), args.elev_steps
    )
    memories = _axis("memory axis", args.mem_min, args.mem_max, args.mem_steps)
    grid = scn.gain_map(elevations, memories, cfgmod.scenario_config(cfg))
    path = out / "gainmap.csv"
    path.write_text(scn.gainmap_csv(elevations, memories, grid), encoding="utf-8")
    sys.stdout.write(f"wrote {path} ({grid.size} cells)\n")
    return EXIT_OK


def _cmd_memory(args, cfg: cfgmod.RunConfig, out: Path) -> int:
    from . import spindyn

    ens = cfgmod.ensemble_params(cfg, preset=args.preset)
    schedule = spindyn.ProtocolSchedule(
        write_time=args.write_time,
        dark_interval=args.storage,
        read_time=args.read_time,
        rabi_frequency=args.rabi,
        exchange_window=args.exchange_window,
    )
    grid = spindyn.RadialGrid(cfg.cell_radius_m, args.grid)
    try:
        result = spindyn.simulate_protocol(
            ens, schedule, grid, args.profile, time_samples=args.samples
        )
    except spindyn.SolverFailure as exc:
        sys.stderr.write(
            f"solver failure: {exc}\n"
            f"  ensemble: {ens}\n  schedule: {schedule}\n  grid: {grid}\n"
        )
        return EXIT_SOLVER
    spindyn.write_kymograph_csv(out, result)
    sys.stdout.write(f"eta_mem = {result.eta_mem:.6f}\n")
    sys.stdout.write(
        f"wrote {out / 'kymograph_s.csv'}, {out / 'kymograph_k.csv'} and {out / 'kymograph.csv'}\n"
    )
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
        cfg = cfgmod.load_config(args.config) if args.config else cfgmod.RunConfig()
        if args.overrides:
            cfg = cfgmod.apply_overrides(cfg, args.overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "effective_config.txt").write_text(cfgmod.emit_config(cfg), encoding="utf-8")
        return _COMMANDS[args.command](args, cfg, out)
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


def entry() -> int:
    """Process entry of ``python -m satqlink`` and the ``satqlink`` script:
    :func:`main`'s exit code (a usage error's included), with the heap frozen
    on the way out so the collections at shutdown skip the import heap.
    Reference counting still frees objects, and every artifact is closed by
    then. ``main`` never freezes, because the tests call it in-process.
    """
    try:
        return main()
    except SystemExit as exc:
        return exc.code
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(entry())
