"""The one table of end-to-end runs.

Each row is a ``satqlink`` command line without ``--out``, its exit code,
the sha256 of its artifacts but the kymographs, a ``memory`` run's
``eta_mem`` to full precision, and the recorded reference in
``perfbench/reference/`` it may name. Tier-1 checks every row in process
(``test_cli.py::test_command_table_row``); as a script it compares two
checkouts:

    python tests/commands.py DIR

runs every command in a fresh ``python -m satqlink`` process of the
checkout that holds this file, each in its own directory ``DIR/<n>`` with
``--out o``, under ``PYTHONWARNINGS=error::RuntimeWarning`` and a timeout
of ``TIMEOUT_S`` (a command past it stops the script). It writes
``DIR/SHA256SUMS`` over every artifact and each command's stdout, stderr
and exit code, and exits 1 when a command ends with another exit code or
prints a traceback. ``diff`` of the files that two checkouts write is the
check. The standard library is all it needs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 60  # the slowest command takes about 1 s

# recorded on Python 3.11; DEFAULTS is effective_config.txt alone, at the defaults
DEFAULTS = "86c6783c64185487228ba7695e9e8939b1ff3bcfbe040b91939df3e96d1f0a5e"
COMMANDS = [  # command line, exit code, artifact digest, eta_mem, reference
    ("memory", 0, DEFAULTS, 0.8154428801058261, "memory-rescaled-n256-s121.json.gz"),
    ("memory --preset lossless", 0, DEFAULTS, 1.0, None),
    ("memory --preset lossless --samples 301", 0, DEFAULTS, 1.0, "memory-lossless-n256-s301.json.gz"),
    ("memory --grid 64", 0, DEFAULTS, 0.8184463604232407, "memory-rescaled-n64-s121.json.gz"),
    ("memory --preset paper-literal", 0, DEFAULTS, 8.572967359832779e-09, None),
    ("memory --storage 0", 0, DEFAULTS, 0.8472165599836268, None),
    ("memory --profile fundamental-mode", 0, DEFAULTS, 0.5702201774991285, None),
    ("memory --write-time 1e-6 --read-time 1e-6 --rabi 1e6", 0, DEFAULTS, 0.7741102099100918, None),
    ("memory --grid 1024 --samples 21", 0, DEFAULTS, 0.8152991797612159, None),
    ("memory --exchange-window 4 --grid 32 --samples 5", 0, DEFAULTS, 0.12303061778288465, None),
    ("memory --grid 16 --samples 3 --storage 1e300", 1, DEFAULTS, None, None),
    ("scenario", 0, "1db99b4736b43f3a69f55daa4d62b223a5c24cd8c0441152f24c8a130a5ea9c0", None, "scenario.md"),
    ("scenario --format text", 0, "4b629aed8b0b330c80744fb436eda58bcbd5567026754e0fef8207aa8fdc6996", None, "scenario.txt"),
    ("scenario --format csv", 0, "4e9cf864c0650c075e4230b9cbeb87a44ee5f3c5507298b167ee719fb1e4bb1f", None, None),
    ("scenario --require-feasible --set memory_lifetime_s=1", 3, "4f7c888d284813f6b228784b0b77e78920e741b2205c021b160de7d4b320994f", None, None),
    ("linkmap", 0, "22f13582f38c0861422507bb4ac785ac91eaadbb9f6ac0f4bd4fc3ee490f2928", None, "linkmap-21x21.csv"),
    ("gainmap", 0, "8eb4c3565fc2ec5ec0a8c0160e89eac49e2f326811f7077a2d90abef1da81194", None, "gainmap-15x19.csv"),
    ("linkmap --range-steps 320 --jitter-steps 320", 0, "5767a4d03abae3cea845eb9331f1dcd5316c0f6166ddaf45d93f9fe19efc2c0c", None, "linkmap-320x320.sampled.csv"),
    ("gainmap --elev-steps 320 --mem-steps 320", 0, "f25193ee37be2eb4b806f55d4bb7034b83ec302073047a1188e43e0847e3a3d3", None, "gainmap-320x320.sampled.csv"),
    ("memory --grid 1", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None, None),
    ("scenario --set eta_mem=2", 1, "d9ff888e0c15e4cc2d5e883ffc1ecc8d0a7f804a552809eebef689c7b441128a", None, None),
    ("gainmap --set detector_efficiency=0", 1, "bd6d21e48ca50deea46fa77e50cfe93ad693f33eaa7bc7866bbe80204f736171", None, None),
    ("memory --set cell_radius_m=0", 1, "7f5c9d8425d78a84ea38980ed7b1921976023da86b3dfa9d6959a5df0adef7d0", None, None),
    # transfers beyond the contour step cap
    ("memory --grid 16 --samples 3 --set noble_detuning=1e6", 1, "ef1b3345c13b0fcfbf8b758b3d9c9384dcd8c98ad02ff5a630158fc056d6330d", None, None),
    ("memory --grid 16 --samples 3 --set noble_detuning=1e300", 1, "0c329c96a376efc2360b3370c7cda6c9aaf43b45f889f63e2a671d0facfbcc02", None, None),
    ("memory --grid 16 --samples 3 --set exchange_coupling=1e-300", 1, "7f8dfb4e03b39b0ce1b683597ecf4f0b701fae1d544e632aa3f67b17ced6e644", None, None),
    ("memory --grid 16 --samples 3 --exchange-window 1e12", 1, DEFAULTS, None, None),
    # shell volumes that underflow to 0
    ("memory --grid 16 --samples 3 --set cell_radius_m=1e-300", 1, "0d7c473799cd5c031fe54be37e4dd64d0c1416f3ee6b5576aae8cb651b57a5cc", None, None),
]


def artifact_digest(out: Path) -> str:
    """sha256 over the names and bytes of the artifacts in ``out`` but the kymographs."""
    listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                      for path in sorted(out.glob("*")) if not path.name.startswith("kymograph"))
    return hashlib.sha256(listing.encode()).hexdigest()


def run_all(root: Path) -> int:
    """Run every command under ``root`` and write ``root/SHA256SUMS``; the
    number of commands that end with another exit code or print a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    mismatches = 0
    for n, (line, code, *_) in enumerate(COMMANDS, 1):
        here = root / f"{n:02d}"
        here.mkdir(parents=True)
        cp = subprocess.run([sys.executable, "-m", "satqlink", *line.split(), "--out", "o"],
                            cwd=here, env=env, capture_output=True, timeout=TIMEOUT_S)
        (here / "stdout").write_bytes(cp.stdout)
        (here / "stderr").write_bytes(cp.stderr)
        (here / "exit_code").write_text(f"{cp.returncode}\n")
        if cp.returncode != code or b"Traceback" in cp.stderr:
            sys.stderr.write(f"{line}: exit {cp.returncode}, expected {code}\n{cp.stderr.decode(errors='replace')}")
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
