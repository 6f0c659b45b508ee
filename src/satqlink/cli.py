"""Command-line entry point.

Subcommands: ``scenario`` (architecture comparison table), ``linkmap``
(downlink success probability grid), ``memory`` (spin-dynamics kymographs
and memory efficiency), ``gainmap`` (buffering gain grid). Outputs are
byte-deterministic for a given configuration. Exit codes: 0 success, 1 a
``ConfigError`` or ``OSError``, 2 a ``SolverFailure``, 3 infeasible storage
under ``--require-feasible``; any other exception is a bug (a traceback).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import sys
from pathlib import Path

from . import config as cfgmod
from .config import ENSEMBLE_PRESETS, INITIAL_PROFILES
from .domain import ELEVATION_DEG, NON_NEGATIVE, POSITIVE, PROBABILITY, ConfigError, Domain, SolverFailure, require


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


def _number(kind, domain: Domain):
    """argparse type of a numeric flag: an int or float ``kind`` inside ``domain``."""

    def number(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <__name__> value"
        try:
            require(domain, value=value)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc).removeprefix("value ")) from None
        return value

    number.__name__ = "integer" if kind is int else "float"
    return number


def build_parser() -> argparse.ArgumentParser:
    non_negative, probability = _number(float, NON_NEGATIVE), _number(float, PROBABILITY)
    positive, elevation = _number(float, POSITIVE), _number(float, ELEVATION_DEG)
    steps = _number(int, Domain("at least 2", 2))
    points = _number(int, Domain("in [16, 2048]", 16, 2048))  # cost n^3: 2 s at 2048 on 2 vCPUs
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
        type=lambda text: f"eta_mem={text}",
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
    p_linkmap.add_argument("--range-min", type=positive, default=500.0, help="km (default 500)")
    p_linkmap.add_argument("--range-max", type=positive, default=2500.0, help="km (default 2500)")
    p_linkmap.add_argument("--range-steps", type=steps, default=21)
    p_linkmap.add_argument("--jitter-min", type=non_negative, default=0.0, help="urad (default 0)")
    p_linkmap.add_argument("--jitter-max", type=non_negative, default=5.0, help="urad (default 5)")
    p_linkmap.add_argument("--jitter-steps", type=steps, default=21)

    p_memory = sub.add_parser(
        "memory", parents=[common], help="spin-dynamics kymographs and memory efficiency"
    )
    p_memory.add_argument(
        "--preset",
        choices=ENSEMBLE_PRESETS,
        default="rescaled",
        help="ensemble preset (default rescaled; paper-literal keeps the configured coupling)",
    )
    p_memory.add_argument("--grid", type=points, default=256, help="radial points, 16 to 2048 (default 256)")
    p_memory.add_argument("--storage", type=non_negative, default=463.0, help="dark interval, s")
    p_memory.add_argument(
        "--exchange-window",
        type=non_negative,
        default=None,
        help="transfer window T' in s (default pi/(2J))",
    )
    p_memory.add_argument("--write-time", type=non_negative, default=0.0, help="optical write window, s")
    p_memory.add_argument("--read-time", type=non_negative, default=0.0, help="optical read window, s")
    p_memory.add_argument("--rabi", type=non_negative, default=0.0, help="control Rabi frequency, s^-1")
    p_memory.add_argument("--samples", type=steps, default=121, help="kymograph time samples")
    p_memory.add_argument(
        "--profile",
        choices=INITIAL_PROFILES,
        default="uniform",
        help="initial alkali profile",
    )

    p_gainmap = sub.add_parser(
        "gainmap", parents=[common], help="buffering gain grid"
    )
    p_gainmap.add_argument("--elev-min", type=elevation, default=20.0, help="deg (default 20)")
    p_gainmap.add_argument("--elev-max", type=elevation, default=90.0, help="deg (default 90)")
    p_gainmap.add_argument("--elev-steps", type=steps, default=15)
    p_gainmap.add_argument("--mem-min", type=probability, default=0.1)
    p_gainmap.add_argument("--mem-max", type=probability, default=1.0)
    p_gainmap.add_argument("--mem-steps", type=steps, default=19)

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

    require(scn.MAP_CELLS, **{"--range-steps x --jitter-steps": args.range_steps * args.jitter_steps})
    ranges = _axis("range axis", args.range_min, args.range_max, args.range_steps)
    jitters = _axis("jitter axis", args.jitter_min * 1e-6, args.jitter_max * 1e-6, args.jitter_steps)
    grid = scn.downlink_probability_map(ranges, jitters, cfgmod.scenario_config(cfg))
    path = out / "linkmap.csv"
    scn.linkmap_csv(ranges, jitters, grid, path)
    sys.stdout.write(f"wrote {path} ({grid.size} cells)\n")
    return EXIT_OK


def _cmd_gainmap(args, cfg: cfgmod.RunConfig, out: Path) -> int:
    from . import scenario as scn

    require(scn.MAP_CELLS, **{"--elev-steps x --mem-steps": args.elev_steps * args.mem_steps})
    elevations = _axis(
        "elevation axis", math.radians(args.elev_min), math.radians(args.elev_max), args.elev_steps
    )
    memories = _axis("memory axis", args.mem_min, args.mem_max, args.mem_steps)
    grid = scn.gain_map(elevations, memories, cfgmod.scenario_config(cfg))
    path = out / "gainmap.csv"
    scn.gainmap_csv(elevations, memories, grid, path)
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
    result = spindyn.simulate_protocol(ens, schedule, grid, args.profile, time_samples=args.samples)
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
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except SolverFailure as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except OSError as exc:  # such as an --out that names a file
        sys.stderr.write(f"file error: {exc}\n")
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
