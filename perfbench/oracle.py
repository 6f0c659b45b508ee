"""Output oracle: checks every artifact a satqlink command writes.

Under seed 0 each command is compared with the reference artifacts recorded
in ``reference/``:

* scenario record values at rel <= 1e-12, the markdown table verbatim;
* map CSVs at rel <= 1e-12 (the 320x320 maps against every 97th row);
* the printed ``eta_mem`` line verbatim;
* kymograph values within 1e-6 absolute (they are normalised to peak 1).

Under every seed the invariants hold: finite values, 0 <= eta <= 1, gain
equal to eta_buffered / eta_dual, linkmap non-increasing in range and in
jitter, gainmap linear in memory efficiency, per-field kymograph files equal
to the columns of the combined one, and a lossless retrieval of 1.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
KYMO_ABS_TOL = 1e-6
DENSE_ROW_STRIDE = 97

SCENARIO_FILES = {"markdown": "scenario.md", "text": "scenario.txt", "csv": "scenario.csv"}
RECORD_KEYS = ("eta_dual", "eta_buffered", "skr_dual_bits_per_s",
               "skr_buffered_bits_per_s", "gain", "t_buffer_s")
LINKMAP_HEADER = "slant_range_km,pointing_jitter_urad,success_probability"
GAINMAP_HEADER = "elevation_deg,memory_efficiency,gain"
KYMO_HEADER = "t_seconds,r_over_R,S_norm,K_norm"


def check(cmd, out_dir: Path, stdout: str, returncode: int) -> list[str]:
    """Every problem found with one command's outputs; empty when correct."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    problems: list[str] = []
    if not (out_dir / "effective_config.txt").is_file():
        problems.append("effective_config.txt missing")
    try:
        CHECKERS[cmd.kind](cmd, out_dir, stdout, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return [f"{cmd.label}: {p}" for p in problems]


def _rel_mismatch(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def _compare(problems, what, got, want, tol=REL_TOL):
    err = _rel_mismatch(got, want)
    if not err <= tol:
        problems.append(f"{what} differs from the reference (max rel {err:.3g} > {tol:g})")


def load_csv(path: Path, header: str, columns: int) -> np.ndarray:
    """Parse an emitted CSV; the float parse is exact for 17-digit values."""
    text = Path(path).read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"{Path(path).name}: header {first!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != columns:
        raise ValueError(f"{Path(path).name}: {data.shape[1]} columns")
    return data


# ---------------------------------------------------------------------------
# scenario


def parse_record(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, sep, raw = line.partition(" = ")
        if not sep:
            raise ValueError(f"record line {line!r}")
        values[key] = raw
    return values


def parse_scenario_csv(text: str) -> dict:
    lines = text.splitlines()
    if lines[0] != "quantity,value":
        raise ValueError(f"csv header {lines[0]!r}")
    return dict(line.split(",", 1) for line in lines[1:])


def parse_markdown(text: str) -> dict:
    """Table cells of the comparison, as printed (six significant digits)."""
    cells = {}
    for line in text.splitlines():
        if line.startswith("| Dual downlink |"):
            cells["eta_dual"], cells["skr_dual_bits_per_s"] = line.split("|")[2:4]
        elif line.startswith("| Buffered downlink |"):
            cells["eta_buffered"], cells["skr_buffered_bits_per_s"] = line.split("|")[2:4]
        elif line.startswith("| Improvement factor |"):
            cells["gain"] = line.split("|")[2].strip().rstrip("x")
        elif line.startswith("Buffer interval: "):
            t_part, _, feasible = line[len("Buffer interval: "):].partition(" s; storage feasible: ")
            cells["t_buffer_s"] = t_part
            cells["feasible"] = {"yes": "true", "no": "false"}[feasible]
    missing = [k for k in RECORD_KEYS + ("feasible",) if k not in cells]
    if missing:
        raise ValueError(f"markdown table lacks {missing}")
    return {k: v.strip() for k, v in cells.items()}


def _scenario_invariants(values: dict, gain_tol: float, problems: list) -> None:
    nums = {k: float(values[k]) for k in RECORD_KEYS}
    bad = [k for k, v in nums.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite {bad}")
        return
    for k in ("eta_dual", "eta_buffered"):
        if not 0.0 <= nums[k] <= 1.0:
            problems.append(f"{k} = {nums[k]} outside [0, 1]")
    for k in ("skr_dual_bits_per_s", "skr_buffered_bits_per_s", "t_buffer_s"):
        if nums[k] < 0.0:
            problems.append(f"{k} = {nums[k]} negative")
    if nums["eta_dual"] > 0.0:
        ratio = nums["eta_buffered"] / nums["eta_dual"]
        if not abs(nums["gain"] - ratio) <= gain_tol * abs(ratio):
            problems.append(f"gain {nums['gain']} != eta_buffered/eta_dual {ratio}")
    if values["feasible"] not in ("true", "false"):
        problems.append(f"feasible = {values['feasible']!r}")


def check_scenario(cmd, out_dir, stdout, problems):
    fmt = cmd.params["format"]
    text = (out_dir / SCENARIO_FILES[fmt]).read_text(encoding="utf-8")
    printed = parse_markdown(stdout)
    _scenario_invariants(printed, 2e-5, problems)
    if fmt == "markdown":
        if text != stdout:
            problems.append("scenario.md differs from the printed table")
    else:
        values = parse_record(text) if fmt == "text" else parse_scenario_csv(text)
        _scenario_invariants(values, REL_TOL, problems)
        for k in RECORD_KEYS:
            if printed[k] != f"{float(values[k]):.6g}":
                problems.append(f"printed {k} {printed[k]} disagrees with {values[k]}")
        if cmd.reference:
            ref = parse_record((REFERENCE_DIR / "scenario.txt").read_text(encoding="utf-8"))
            _compare(problems, "scenario record",
                     [float(values[k]) for k in RECORD_KEYS], [float(ref[k]) for k in RECORD_KEYS])
            if values["feasible"] != ref["feasible"]:
                problems.append("feasible differs from the reference")
    if cmd.reference and stdout != (REFERENCE_DIR / "scenario.md").read_text(encoding="utf-8"):
        problems.append("printed table differs from the reference")


# ---------------------------------------------------------------------------
# maps


def _map_reference(name: str, header: str, data: np.ndarray, problems: list) -> None:
    full = REFERENCE_DIR / f"{name}.csv"
    if full.is_file():
        _compare(problems, name, data, load_csv(full, header, 3))
        return
    ref = load_csv(REFERENCE_DIR / f"{name}.sampled.csv", "row," + header, 4)
    rows = ref[:, 0].astype(int)
    if rows.max(initial=-1) >= len(data):
        problems.append(f"{name}: {len(data)} rows, fewer than the reference")
        return
    _compare(problems, f"{name} (every {DENSE_ROW_STRIDE}th row)", data[rows], ref[:, 1:])


def _expect_cells(stdout: str, cells: int, problems: list) -> None:
    if not stdout.endswith(f" ({cells} cells)\n"):
        problems.append(f"stdout {stdout!r} does not report {cells} cells")


def check_linkmap(cmd, out_dir, stdout, problems):
    p = cmd.params
    nr, nj = p["range_steps"], p["jitter_steps"]
    data = load_csv(out_dir / "linkmap.csv", LINKMAP_HEADER, 3)
    if data.shape[0] != nr * nj:
        problems.append(f"{data.shape[0]} rows, expected {nr * nj}")
        return
    _expect_cells(stdout, nr * nj, problems)
    ranges = np.linspace(p["range_min"], p["range_max"], nr)
    jitters = np.linspace(p["jitter_min"] * 1e-6, p["jitter_max"] * 1e-6, nj) * 1e6
    _compare(problems, "range column", data[:, 0], np.repeat(ranges, nj))
    _compare(problems, "jitter column", data[:, 1], np.tile(jitters, nr))
    grid = data[:, 2].reshape(nr, nj)
    if not np.all(np.isfinite(grid)):
        problems.append("non-finite success probability")
    elif grid.min() < 0.0 or grid.max() > 1.0:
        problems.append("success probability outside [0, 1]")
    if np.any(np.diff(grid, axis=0) > 0.0):
        problems.append("success probability increases with range")
    if np.any(np.diff(grid, axis=1) > 0.0):
        problems.append("success probability increases with jitter")
    if cmd.reference:
        _map_reference(cmd.reference, LINKMAP_HEADER, data, problems)


def check_gainmap(cmd, out_dir, stdout, problems):
    p = cmd.params
    ne, nm = p["elev_steps"], p["mem_steps"]
    data = load_csv(out_dir / "gainmap.csv", GAINMAP_HEADER, 3)
    if data.shape[0] != ne * nm:
        problems.append(f"{data.shape[0]} rows, expected {ne * nm}")
        return
    _expect_cells(stdout, ne * nm, problems)
    elevations = np.degrees(np.linspace(math.radians(p["elev_min"]), math.radians(p["elev_max"]), ne))
    memories = np.linspace(p["mem_min"], p["mem_max"], nm)
    _compare(problems, "elevation column", data[:, 0], np.repeat(elevations, nm))
    _compare(problems, "memory column", data[:, 1], np.tile(memories, ne))
    grid = data[:, 2].reshape(ne, nm)
    if not np.all(np.isfinite(grid)):
        problems.append("non-finite gain")
    elif grid.min() < 0.0:
        problems.append("negative gain")
    else:
        per_unit = grid / memories
        err = _rel_mismatch(per_unit, np.repeat(per_unit[:, :1], nm, axis=1))
        if not err <= REL_TOL:
            problems.append(f"gain not linear in memory efficiency (rel {err:.3g})")
    if cmd.reference:
        _map_reference(cmd.reference, GAINMAP_HEADER, data, problems)


# ---------------------------------------------------------------------------
# memory


def check_memory(cmd, out_dir, stdout, problems):
    first = stdout.splitlines()[0] if stdout else ""
    if not first.startswith("eta_mem = "):
        problems.append(f"stdout {stdout[:40]!r} lacks the eta_mem line")
        return
    eta = float(first[len("eta_mem = "):])
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        problems.append(f"eta_mem = {eta} outside [0, 1]")
    if cmd.params["preset"] == "lossless" and first != "eta_mem = 1.000000":
        problems.append(f"lossless retrieval printed {first!r}")

    combined = (out_dir / "kymograph.csv").read_text(encoding="utf-8").split("\n")
    if combined[0] != KYMO_HEADER or combined[-1] != "":
        problems.append("kymograph.csv header or final newline wrong")
        return
    rows = [line.split(",") for line in combined[1:-1]]
    for which, col in (("s", 2), ("k", 3)):
        lines = (out_dir / f"kymograph_{which}.csv").read_text(encoding="utf-8").split("\n")
        expected = [f"t_seconds,r_over_R,{which.upper()}_norm"]
        expected += [f"{r[0]},{r[1]},{r[col]}" for r in rows] + [""]
        if lines != expected:
            problems.append(f"kymograph_{which}.csv differs from the combined file")

    data = np.array(rows, dtype=float)
    n = cmd.params["grid"]
    if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] % n:
        problems.append(f"kymograph.csv has shape {data.shape}, not a multiple of {n} radii")
        return
    t = data[:, 0].reshape(-1, n)
    r = data[:, 1].reshape(-1, n)
    values = data[:, 2:]
    if not np.all(np.isfinite(data)):
        problems.append("non-finite kymograph value")
    elif values.min() < 0.0:
        problems.append("negative kymograph value")
    if np.any(t != t[:, :1]) or np.any(np.diff(t[:, 0]) < 0.0) or t[0, 0] != 0.0:
        problems.append("kymograph time column malformed")
    if np.any(r != r[:1]) or np.any(np.diff(r[0]) <= 0.0) or not (0.0 < r[0, 0] and r[0, -1] < 1.0):
        problems.append("kymograph radius column malformed")

    if cmd.reference:
        with gzip.open(REFERENCE_DIR / f"{cmd.reference}.json.gz", "rt", encoding="utf-8") as handle:
            ref = json.load(handle)
        if first != ref["eta_line"]:
            problems.append(f"{first!r} differs from the reference {ref['eta_line']!r}")
        shape = (len(ref["t"]), len(ref["r"]))
        if t.shape != shape:
            problems.append(f"kymograph shape {t.shape} differs from the reference {shape}")
            return
        _compare(problems, "kymograph times", t[:, 0], ref["t"])
        _compare(problems, "kymograph radii", r[0], ref["r"])
        for col, key in ((0, "S"), (1, "K")):
            err = float(np.max(np.abs(values[:, col] - np.asarray(ref[key]))))
            if not err <= KYMO_ABS_TOL:
                problems.append(f"kymograph {key} differs from the reference by {err:.3g} > {KYMO_ABS_TOL:g}")


CHECKERS = {
    "scenario": check_scenario,
    "linkmap": check_linkmap,
    "gainmap": check_gainmap,
    "memory": check_memory,
}
