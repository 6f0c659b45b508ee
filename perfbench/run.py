"""satqlink benchmark: drives ``python -m satqlink`` the way a user does.

Usage, from the repository root::

    python3 perfbench/run.py --workload reproduce-sweep --seed 0 --seconds 36 --trace 0

Workloads are listed in ``workloads.py``. One closed-loop client runs one
fresh interpreter per command, one at a time, and checks every output with
``oracle.py``. The interpreter times ``import satqlink`` and then runs
``satqlink.__main__`` through ``runpy``, which is what ``python -m satqlink``
does. A run makes one discarded warm-up pass (so ``.pyc`` and page-cache
effects stay out of the samples; its outputs are the byte-identity
baseline), then repeats timed passes for ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of ``import satqlink`` in the command processes;
* ``wall_s``: median wall time of one pass through the command list;
* ``cmd_s.p50``: median wall time of one command (process start to exit);
* ``peak_rss_mb``: largest resident set of any command process.

It also prints the highest percentile of the command times that has at
least ten samples beyond it, with the sample count. Failed commands or
checks are ``failed`` out of ``attempted`` in the result line.

``--trace 1`` runs ``satqlink.cli.main`` in-process after a warm import,
alternating untraced and traced passes, and reports the per-layer metrics
from the spans and counters of ``tracing.py`` plus the import breakdown of
``python -X importtime``. Counts must repeat exactly across traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch outputs and
span files go to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORTTIME_REPEATS = 3
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 120.0
# python -c CHILD IMPORT_LOG ARGS... behaves as python -m satqlink ARGS...
# and writes the import time and location of the package to IMPORT_LOG.
CHILD = """\
import sys, time
start = time.perf_counter()
import satqlink
elapsed = time.perf_counter() - start
with open(sys.argv[1], "w") as log:
    log.write(f"{elapsed!r}\\n{satqlink.__file__}\\n")
import runpy
sys.argv = ["satqlink", *sys.argv[2:]]
runpy.run_module("satqlink", run_name="__main__", alter_sys=True)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_s.p50": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "import.satqlink_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "config.load_us": "us",
    "scenario.compare_us": "us",
    "scenario.linkmap_us_per_cell": "us", "scenario.linkmap_cells": "count",
    "scenario.gainmap_us_per_cell": "us", "scenario.gainmap_cells": "count",
    "scenario.csv_us_per_row": "us", "scenario.csv_rows": "count",
    "linkbudget.calls": "count", "geometry.calls": "count", "skr.calls": "count",
    "spindyn.solve_s": "s", "spindyn.rhs_evals": "count", "spindyn.jac_evals": "count",
    "spindyn.lu_decomps": "count", "spindyn.phases": "count",
    "spindyn.laplacian_calls": "count", "spindyn.us_per_rhs": "us",
    "spindyn.kymograph_us_per_row": "us", "spindyn.kymograph_rows": "count",
    "cli.self_s": "s", "emit.bytes": "B", "trace.overhead_s": "s",
}
# Counts that must repeat exactly from one traced pass to the next.
EXACT = {name for name, unit in LAYER_UNITS.items() if unit in ("count", "B")}
# Per-layer metric -> the seams it is measured at.
SEAMS_OF = {
    "config.load_us": ("config.load_config", "config.apply_overrides",
                       "config.scenario_config", "config.ensemble_params"),
    "scenario.compare_us": ("scenario.compare_scenarios",),
    "scenario.linkmap_us_per_cell": ("scenario.downlink_probability_map",),
    "scenario.linkmap_cells": ("scenario.downlink_probability_map",),
    "scenario.gainmap_us_per_cell": ("scenario.gain_map",),
    "scenario.gainmap_cells": ("scenario.gain_map",),
    "scenario.csv_us_per_row": ("scenario.linkmap_csv", "scenario.gainmap_csv"),
    "scenario.csv_rows": ("scenario.linkmap_csv", "scenario.gainmap_csv"),
    "linkbudget.calls": ("linkbudget.single_link_efficiency",),
    "geometry.calls": ("geometry.elevation_from_slant_range",),
    "skr.calls": ("skr.instantaneous_skr",),
    "spindyn.solve_s": ("spindyn.solve_ivp",),
    "spindyn.rhs_evals": ("spindyn.solve_ivp",),
    "spindyn.jac_evals": ("spindyn.solve_ivp",),
    "spindyn.lu_decomps": ("spindyn.solve_ivp",),
    "spindyn.phases": ("spindyn.solve_ivp",),
    "spindyn.laplacian_calls": ("spindyn.radial_laplacian",),
    "spindyn.us_per_rhs": ("spindyn.solve_ivp",),
    "spindyn.kymograph_us_per_row": ("spindyn.write_kymograph_csv",),
    "spindyn.kymograph_rows": ("spindyn.write_kymograph_csv",),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, or the package misbehaves)."""


@dataclass
class Pass:
    """One pass through a workload's command list."""

    wall: float = 0.0
    times: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failed: int = 0
    check_s: float = 0.0


# ---------------------------------------------------------------------------
# environment and run record


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "satqlink").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(), "src_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# child processes


class _Expired(Exception):
    pass


def _raise_expired(signum, frame):
    raise _Expired


def run_child(argv, cwd: Path, log: Path):
    """Run one process to completion; returns (seconds, rusage, exit code)."""
    previous = signal.signal(signal.SIGALRM, _raise_expired)
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=cwd)
        try:
            signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Expired:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage, proc.returncode


def import_breakdown(tmp: Path) -> dict:
    """Seconds spent importing satqlink (cumulative), scipy and numpy (self)."""
    log = tmp / "importtime.out"
    _, _, code = run_child([sys.executable, "-X", "importtime", "-c", "import satqlink"], tmp, log)
    if code != 0:
        raise BenchError("python -X importtime -c 'import satqlink' failed")
    totals = {"import.satqlink_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    for line in log.with_suffix(".err").read_text(encoding="utf-8").splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
        top = name.split(".")[0]
        if name == "satqlink":
            totals["import.satqlink_s"] = int(cumulative_us) * 1e-6
        elif top in ("scipy", "numpy"):
            totals[f"import.{top}_s"] += int(self_us) * 1e-6
    return totals


def outputs_digest(out: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _finish_command(bench: Pass, cmd, out: Path, stdout: str, code: int, baseline) -> None:
    started = time.perf_counter()
    problems = oracle.check(cmd, out, stdout, code)
    digest = outputs_digest(out, stdout)
    if baseline is not None and digest != baseline.digests[len(bench.digests)]:
        problems.append(f"{cmd.label}: outputs differ from the warm-up pass (rerun not byte-identical)")
    bench.digests.append(digest)
    bench.problems += problems
    bench.failed += bool(problems)
    bench.check_s += time.perf_counter() - started


def _imported(import_log: Path) -> float:
    """Import time a command process logged; checks where satqlink came from."""
    seconds, location = import_log.read_text(encoding="utf-8").splitlines()
    if not Path(location).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"satqlink imported from {location}, not from {ROOT / 'src'}")
    return float(seconds)


def process_pass(cmds, tmp: Path, baseline: Pass | None) -> Pass:
    """Run every command as ``python -m satqlink`` does and check its outputs."""
    bench = Pass()
    for i, cmd in enumerate(cmds):
        out = tmp / f"cmd{i}"
        shutil.rmtree(out, ignore_errors=True)
        log = tmp / f"cmd{i}.stdout"
        import_log = tmp / f"cmd{i}.import"
        import_log.unlink(missing_ok=True)
        argv = [sys.executable, "-c", CHILD, str(import_log), *cmd.argv, "--out", str(out)]
        seconds, usage, code = run_child(argv, tmp, log)
        bench.times.append(seconds)
        bench.rss_kb.append(usage.ru_maxrss)
        if import_log.is_file():
            bench.import_s.append(_imported(import_log))
        _finish_command(bench, cmd, out, log.read_text(encoding="utf-8"), code, baseline)
    bench.wall = sum(bench.times)
    return bench


def _keep_going(costs: list, started: float, seconds: float) -> bool:
    """Start another round only if it is expected to end within the budget."""
    if len(costs) < MIN_PASSES:
        return True
    return time.perf_counter() - started + statistics.median(costs) <= seconds


def tail_percentile(samples: list) -> tuple:
    """Highest percentile at or above the median with ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < len(ordered) / 2:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def timed_run(args, cmds, tmp: Path) -> tuple:
    warm = process_pass(cmds, tmp, None)
    passes: list[Pass] = []
    started = time.perf_counter()
    while _keep_going([p.wall + p.check_s for p in passes], started, args.seconds):
        passes.append(process_pass(cmds, tmp, warm))
    times = [t for p in passes for t in p.times]
    setup = [t for p in passes for t in p.import_s]
    if not setup:
        raise BenchError("no command process imported satqlink")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cmd_s.p50": statistics.median(times),
        "peak_rss_mb": max(kb for p in [warm] + passes for kb in p.rss_kb) / 1024.0,
    }
    tail = tail_percentile(times)
    notes = [
        f"setup_s: median of n={len(setup)} imports, one per timed command process",
        f"wall_s: median of {len(passes)} timed passes of {len(cmds)} commands",
        f"cmd_s.p50: median of n={len(times)} command times",
        "cmd_s tail: " + (f"p{tail[0]:.0f} = {tail[1]:.4f} s (n={len(times)}, 10 samples beyond it)"
                          if tail else f"none (n={len(times)}: no percentile from p50 up has 10 samples beyond it)"),
    ]
    all_passes = [warm] + passes
    return metrics, END_TO_END_UNITS, all_passes, notes, []


# ---------------------------------------------------------------------------
# in-process traced run


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import satqlink
    from satqlink import cli

    if not Path(satqlink.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"satqlink imported from {satqlink.__file__}, not from {ROOT / 'src'}")
    return satqlink, cli


def inprocess_pass(cli, cmds, tmp: Path, baseline, tracer=None, label="") -> Pass:
    bench = Pass()
    for i, cmd in enumerate(cmds):
        out = tmp / f"cmd{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [*cmd.argv, "--out", str(out)]
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.run_id = f"{label}/cmd{i}"
                    code = tracer.call("cli.main", cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        bench.times.append(time.perf_counter() - start)
        _finish_command(bench, cmd, out, buffer.getvalue(), code, baseline)
    bench.wall = sum(bench.times)
    return bench


def _emitted_bytes(tmp: Path, cmds) -> int:
    # Read right after the pass: every command's --out directory is intact.
    total = 0
    for i in range(len(cmds)):
        total += sum(p.stat().st_size for p in (tmp / f"cmd{i}").rglob("*") if p.is_file())
    return total


def layer_values(spans: list, counts, n_cmds: int) -> dict:
    """Per-layer values of one traced pass."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by[n])

    def summed(key, *names):
        return sum(s[key] for n in names for s in by[n])

    def per(value, base):
        return value / base if base else 0.0

    own = tracing.self_times(spans)
    solves = by["spindyn.solve_ivp"]
    rhs = summed("nfev", "spindyn.solve_ivp")
    maps_csv = ("scenario.linkmap_csv", "scenario.gainmap_csv")
    return {
        "config.load_us": 1e6 * per(total(*SEAMS_OF["config.load_us"]), n_cmds),
        "scenario.compare_us": 1e6 * per(total("scenario.compare_scenarios"),
                                         len(by["scenario.compare_scenarios"])),
        "scenario.linkmap_us_per_cell": 1e6 * per(total("scenario.downlink_probability_map"),
                                                  summed("cells", "scenario.downlink_probability_map")),
        "scenario.linkmap_cells": summed("cells", "scenario.downlink_probability_map"),
        "scenario.gainmap_us_per_cell": 1e6 * per(total("scenario.gain_map"),
                                                  summed("cells", "scenario.gain_map")),
        "scenario.gainmap_cells": summed("cells", "scenario.gain_map"),
        "scenario.csv_us_per_row": 1e6 * per(total(*maps_csv), summed("rows", *maps_csv)),
        "scenario.csv_rows": summed("rows", *maps_csv),
        "linkbudget.calls": sum(v for k, v in counts.items() if k.startswith("linkbudget.")),
        "geometry.calls": sum(v for k, v in counts.items() if k.startswith("geometry.")),
        "skr.calls": sum(v for k, v in counts.items() if k.startswith("skr.")),
        "spindyn.solve_s": total("spindyn.solve_ivp"),
        "spindyn.rhs_evals": rhs,
        "spindyn.jac_evals": summed("njev", "spindyn.solve_ivp"),
        "spindyn.lu_decomps": summed("nlu", "spindyn.solve_ivp"),
        "spindyn.phases": len(solves),
        "spindyn.laplacian_calls": counts["spindyn.radial_laplacian"],
        "spindyn.us_per_rhs": 1e6 * per(total("spindyn.solve_ivp"), rhs),
        "spindyn.kymograph_us_per_row": 1e6 * per(total("spindyn.write_kymograph_csv"),
                                                  summed("rows", "spindyn.write_kymograph_csv")),
        "spindyn.kymograph_rows": summed("rows", "spindyn.write_kymograph_csv"),
        "cli.self_s": sum(own[s["id"]] for s in by["cli.main"]),
        "solver_failures": sum(s["status"] < 0 for s in solves),
        "self_s": {name: sum(own[s["id"]] for s in group) for name, group in by.items() if group},
    }


def traced_run(args, cmds, tmp: Path) -> tuple:
    imports = [import_breakdown(tmp) for _ in range(IMPORTTIME_REPEATS)]
    package, cli = _import_package()
    warm = inprocess_pass(cli, cmds, tmp, None)
    tracer = tracing.Tracer(package)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    per_pass: list[dict] = []
    started = time.perf_counter()
    costs: list[float] = []
    while _keep_going(costs, started, args.seconds):
        untraced.append(inprocess_pass(cli, cmds, tmp, warm))
        first_span = len(tracer.spans)
        tracer.counts.clear()
        tracer.install()
        try:
            traced.append(inprocess_pass(cli, cmds, tmp, warm, tracer, f"pass{len(traced)}"))
        finally:
            tracer.remove()
        values = layer_values(tracer.spans[first_span:], tracer.counts, len(cmds))
        values["emit.bytes"] = _emitted_bytes(tmp, cmds)
        per_pass.append(values)
        costs.append(sum(p.wall + p.check_s for p in (untraced[-1], traced[-1])))

    problems = []
    for k, values in enumerate(per_pass[1:], start=1):
        moved = sorted(n for n in EXACT if values[n] != per_pass[0][n])
        if moved:
            problems.append(f"traced pass {k}: counts differ from pass 0: {moved}")
    failures = sum(v["solver_failures"] for v in per_pass)
    if failures:
        problems.append(f"{failures} solve_ivp phases reported failure")

    metrics = {name: statistics.median(i[name] for i in imports) for name in imports[0]}
    for name in LAYER_UNITS:
        if name in per_pass[0]:
            metrics[name] = (per_pass[0][name] if name in EXACT
                             else statistics.median(v[name] for v in per_pass))
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    absent = sorted(name for name, seams in SEAMS_OF.items() if tracer.absent.intersection(seams))
    for name in absent:
        del metrics[name]

    spans_path = ROOT / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    notes = [
        f"{len(traced)} traced and {len(untraced)} untraced in-process passes after one warm-up; "
        f"import.* are medians of {len(imports)} 'python -X importtime' runs",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ] + [f"{name}: absent (seam {', '.join(SEAMS_OF[name])} not found)" for name in absent]
    notes += [f"self time per pass {name}: {statistics.median(v['self_s'][name] for v in per_pass):.6f} s"
              for name in sorted(per_pass[0]["self_s"])]
    return metrics, LAYER_UNITS, [warm] + untraced + traced, notes, problems


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "satqlink" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no satqlink package under {ROOT / 'src'}\n")
        return 2
    cmds = workloads.commands(args.workload, args.seed)
    record = run_record(args)
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = traced_run if args.trace else timed_run
        metrics, units, passes, notes, extra_problems = run(args, cmds, tmp)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [p for b in passes for p in b.problems] + extra_problems
    attempted = sum(len(b.times) for b in passes)
    failed = sum(b.failed for b in passes) + len(extra_problems)
    print(f"# satqlink benchmark: workload {args.workload} ({workloads.WORKLOADS[args.workload]})")
    print("# record " + json.dumps(record))
    for cmd in cmds:
        print("# command: satqlink " + " ".join(cmd.argv))
    for note in notes:
        print("# " + note)
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:30s} {shown} {units[name]}")
    print(f"{'ops_failed':30s} {failed:14d} of ops_total {attempted}")
    for problem in problems[:20]:
        print(f"# FAIL {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
