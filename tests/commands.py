"""The command list behind the equivalence check of two checkouts.

Each entry is a ``satqlink`` command line without ``--out``, the exit code
it ends with, and the ``eta_mem = ...`` line that a ``memory`` run prints
(None for every other run). Tier-1 runs the list in process
(``test_cli.py``); as a script it compares two checkouts:

    python tests/commands.py DIR

runs every command in a fresh ``python -m satqlink`` process of the
checkout that holds this file, each in its own directory ``DIR/<n>`` with
``--out o``, so that stdout reads the same in any checkout. It writes
``DIR/SHA256SUMS`` over every artifact and each command's stdout, stderr
and exit code, and exits 1 when a command ends with an exit code other
than the listed one. ``diff`` of the files that two checkouts write is the
check. The standard library is all it needs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = [
    (("memory",), 0, "eta_mem = 0.815443"),
    (("memory", "--preset", "lossless"), 0, "eta_mem = 1.000000"),
    (("memory", "--preset", "lossless", "--samples", "301"), 0, "eta_mem = 1.000000"),
    (("memory", "--grid", "64"), 0, "eta_mem = 0.818446"),
    (("memory", "--preset", "paper-literal"), 0, "eta_mem = 0.000000"),
    (("memory", "--storage", "0"), 0, "eta_mem = 0.847217"),
    (("memory", "--profile", "fundamental-mode"), 0, "eta_mem = 0.570220"),
    (("memory", "--write-time", "1e-6", "--read-time", "1e-6", "--rabi", "1e6"), 0, "eta_mem = 0.774110"),
    (("memory", "--grid", "1024", "--samples", "21"), 0, "eta_mem = 0.815299"),
    (("memory", "--exchange-window", "4", "--grid", "32", "--samples", "5"), 0, "eta_mem = 0.123031"),
    (("memory", "--grid", "16", "--samples", "3", "--storage", "1e300"), 1, None),
    (("scenario",), 0, None),
    (("scenario", "--format", "text"), 0, None),
    (("scenario", "--format", "csv"), 0, None),
    (("scenario", "--require-feasible", "--set", "memory_lifetime_s=1"), 3, None),
    (("linkmap",), 0, None),
    (("gainmap",), 0, None),
    (("linkmap", "--range-steps", "320", "--jitter-steps", "320"), 0, None),
    (("gainmap", "--elev-steps", "320", "--mem-steps", "320"), 0, None),
    (("memory", "--grid", "1"), 1, None),
    (("scenario", "--set", "eta_mem=2"), 1, None),
    (("gainmap", "--set", "detector_efficiency=0"), 1, None),
    (("memory", "--set", "cell_radius_m=0"), 1, None),
    # transfers beyond the contour step cap
    (("memory", "--grid", "16", "--samples", "3", "--set", "noble_detuning=1e6"), 1, None),
    (("memory", "--grid", "16", "--samples", "3", "--set", "noble_detuning=1e300"), 1, None),
    (("memory", "--grid", "16", "--samples", "3", "--set", "exchange_coupling=1e-300"), 1, None),
    (("memory", "--grid", "16", "--samples", "3", "--exchange-window", "1e12"), 1, None),
]


def run_all(root: Path) -> int:
    """Run every command under ``root`` and write ``root/SHA256SUMS``; the
    number of commands whose exit code differs from the listed one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    mismatches = 0
    for n, (args, code, _) in enumerate(COMMANDS, 1):
        here = root / f"{n:02d}"
        here.mkdir(parents=True)
        cp = subprocess.run([sys.executable, "-m", "satqlink", *args, "--out", "o"],
                            cwd=here, env=env, capture_output=True)
        (here / "stdout").write_bytes(cp.stdout)
        (here / "stderr").write_bytes(cp.stderr)
        (here / "exit_code").write_text(f"{cp.returncode}\n")
        if cp.returncode != code:
            sys.stderr.write(f"{' '.join(args)}: exit {cp.returncode}, expected {code}\n")
            mismatches += 1
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}\n"
        for path in sorted(root.rglob("*")) if path.is_file() and path.name != "SHA256SUMS"
    ]
    (root / "SHA256SUMS").write_text("".join(lines))
    return mismatches


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    sys.exit(1 if run_all(Path(sys.argv[1])) else 0)
