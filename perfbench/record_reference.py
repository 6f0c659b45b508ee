"""Record the seed-0 reference artifacts the oracle compares against.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Runs every seed-0 command of every workload through ``python -m satqlink``
and stores what the oracle needs under ``perfbench/reference/``. The
reference pins the numbers of the commit it was recorded at; re-recording it
is itself a change to the benchmark's correctness check and belongs in a
change of its own that says why the artifacts moved.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
KYMO_DECIMALS = 9   # 5e-10 rounding, far inside the 1e-6 tolerance


def run(cmd, out: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "satqlink", *cmd.argv, "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def record(cmd, out: Path, stdout: str, dest: Path) -> None:
    if cmd.kind == "scenario":
        if cmd.params["format"] == "text":
            shutil.copyfile(out / "scenario.txt", dest / "scenario.txt")
        if cmd.params["format"] == "markdown":
            (dest / "scenario.md").write_text(stdout, encoding="utf-8")
        return
    if cmd.kind in ("linkmap", "gainmap"):
        src = out / f"{cmd.kind}.csv"
        if cmd.params.get("range_steps", cmd.params.get("elev_steps")) == workloads.DENSE_STEPS:
            lines = src.read_text(encoding="utf-8").splitlines()
            rows = list(range(0, len(lines) - 1, oracle.DENSE_ROW_STRIDE))
            body = [f"{i},{lines[i + 1]}" for i in rows]
            (dest / f"{cmd.reference}.sampled.csv").write_text(
                "\n".join(["row," + lines[0]] + body) + "\n", encoding="utf-8")
        else:
            shutil.copyfile(src, dest / f"{cmd.reference}.csv")
        return
    data = oracle.load_csv(out / "kymograph.csv", oracle.KYMO_HEADER, 4)
    n = cmd.params["grid"]
    ref = {
        "eta_line": stdout.splitlines()[0],
        "t": data[::n, 0].tolist(),
        "r": data[:n, 1].tolist(),
        "S": [round(v, KYMO_DECIMALS) for v in data[:, 2].tolist()],
        "K": [round(v, KYMO_DECIMALS) for v in data[:, 3].tolist()],
    }
    with gzip.GzipFile(dest / f"{cmd.reference}.json.gz", "wb", mtime=0) as handle:
        handle.write(json.dumps(ref, separators=(",", ":")).encode("utf-8"))


def main() -> int:
    dest = oracle.REFERENCE_DIR
    dest.mkdir(exist_ok=True)
    seen = set()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            for cmd in workloads.commands(workload, 0):
                if cmd.label in seen:
                    continue
                seen.add(cmd.label)
                out = Path(tmp) / cmd.label
                record(cmd, out, run(cmd, out), dest)
                print(f"recorded {cmd.label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
