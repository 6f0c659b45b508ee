"""The one table of end-to-end runs.

Each row is a ``satqlink`` command line without ``--out``, its exit code,
the sha256 of its artifacts but the kymographs, a ``memory`` run's
``eta_mem`` to full precision, the recorded reference in
``perfbench/reference/`` it may name, and the last line it prints on
stderr (``""`` for none). Tier-1 checks every row in process
(``test_cli.py::test_command_table_row``), and the kymographs of each
``memory`` row that exits 0 against ``references.GOLDENS``; as a script it
compares two checkouts:

    python tests/commands.py DIR

runs every command in a fresh ``python -m satqlink`` process of the
checkout that holds this file, each in its own directory ``DIR/<n>`` with
``--out o``, under ``PYTHONWARNINGS=error::RuntimeWarning`` and a timeout
of ``TIMEOUT_S`` (a command past it stops the script). It writes
``DIR/SHA256SUMS`` over every artifact and each command's stdout, stderr
and exit code, and exits 1 when a command ends with another exit code or
last stderr line, or prints a traceback. Comparing the directories that
two checkouts write is the check:

    python tests/commands.py --diff A B

reports each file whose bytes differ between A and B: the largest
absolute and relative change of its numbers and their lines, or that its
other text differs. It exits 1 if any file differs. The standard library
is all it needs.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 10  # the slowest command takes about 1 s

CAP = ("configuration error: phase 1 of 3, a {} s transfer, needs more than 100000 contour steps of at "
       "most {} s; shorten --exchange-window, raise exchange_coupling, or narrow the gap between "
       "alkali_detuning and noble_detuning")
NO_GAIN = "configuration error: dual-downlink probability is zero; gain undefined"
TINY_CELL = ("cell_radius_m must be large enough that the Laplacian of 16 grid points stays within the float "
             "range, got {}")
GRID_16 = "  grid: RadialGrid(cell_radius=0.01, point_count=16)"
KYMOGRAPH_CAP = "configuration error: --samples x --grid must be at most 1048576 kymograph cells, got {} x {}"
MAP_CAP = "configuration error: {} must be at most 4194304 map cells, got {} x {}"

# recorded on Python 3.11; DEFAULTS is effective_config.txt alone, at the defaults
DEFAULTS = "86c6783c64185487228ba7695e9e8939b1ff3bcfbe040b91939df3e96d1f0a5e"
NOTHING = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no artifact
COMMANDS = [  # command line, exit code, artifact digest, eta_mem, reference, last stderr line
    ("memory", 0, DEFAULTS, 0.8154428801058261, "memory-rescaled-n256-s121.json.gz", ""),
    ("memory --preset lossless", 0, DEFAULTS, 1.0, None, ""),
    ("memory --preset lossless --samples 301", 0, DEFAULTS, 1.0, "memory-lossless-n256-s301.json.gz", ""),
    ("memory --grid 64", 0, DEFAULTS, 0.8184463604232407, "memory-rescaled-n64-s121.json.gz", ""),
    ("memory --preset paper-literal", 0, DEFAULTS, 8.572967359832779e-09, None, ""),
    ("memory --storage 0", 0, DEFAULTS, 0.8472165599836268, None, ""),
    ("memory --profile fundamental-mode", 0, DEFAULTS, 0.5702201774991285, None, ""),
    ("memory --write-time 1e-6 --read-time 1e-6 --rabi 1e6", 0, DEFAULTS, 0.7741102099100918, None, ""),
    ("memory --grid 1024 --samples 21", 0, DEFAULTS, 0.8152991797612159, None, ""),
    ("memory --exchange-window 4 --grid 32 --samples 5", 0, DEFAULTS, 0.12303061778288465, None, ""),
    ("memory --grid 16 --samples 3 --storage 1e300", 1, DEFAULTS, None, None, "configuration error: phase 3 of 3 (7.85398 s) is shorter than the time resolution at t = 1e+300 s"),
    ("scenario", 0, "1db99b4736b43f3a69f55daa4d62b223a5c24cd8c0441152f24c8a130a5ea9c0", None, "scenario.md", ""),
    ("scenario --format text", 0, "4b629aed8b0b330c80744fb436eda58bcbd5567026754e0fef8207aa8fdc6996", None, "scenario.txt", ""),
    ("scenario --format csv", 0, "4e9cf864c0650c075e4230b9cbeb87a44ee5f3c5507298b167ee719fb1e4bb1f", None, None, ""),
    ("scenario --require-feasible --set memory_lifetime_s=1", 3, "4f7c888d284813f6b228784b0b77e78920e741b2205c021b160de7d4b320994f", None, None, ""),
    ("linkmap", 0, "22f13582f38c0861422507bb4ac785ac91eaadbb9f6ac0f4bd4fc3ee490f2928", None, "linkmap-21x21.csv", ""),
    ("gainmap", 0, "8eb4c3565fc2ec5ec0a8c0160e89eac49e2f326811f7077a2d90abef1da81194", None, "gainmap-15x19.csv", ""),
    ("linkmap --range-steps 320 --jitter-steps 320", 0, "5767a4d03abae3cea845eb9331f1dcd5316c0f6166ddaf45d93f9fe19efc2c0c", None, "linkmap-320x320.sampled.csv", ""),
    ("gainmap --elev-steps 320 --mem-steps 320", 0, "f25193ee37be2eb4b806f55d4bb7034b83ec302073047a1188e43e0847e3a3d3", None, "gainmap-320x320.sampled.csv", ""),
    ("memory --grid 1", 1, NOTHING, None, None, "satqlink memory: error: argument --grid: must be in [16, 2048], got 1"),
    ("memory --grid 100000000000000000000 --samples 3", 1, NOTHING, None, None, "satqlink memory: error: argument --grid: must be in [16, 2048], got 100000000000000000000"),
    ("scenario --set eta_mem=2", 1, NOTHING, None, None, "configuration error: override: eta_mem must be in [0, 1], got 2.0"),
    ("gainmap --set detector_efficiency=0", 1, "bd6d21e48ca50deea46fa77e50cfe93ad693f33eaa7bc7866bbe80204f736171", None, None, NO_GAIN),
    ("memory --set cell_radius_m=0", 1, NOTHING, None, None, "configuration error: override: cell_radius_m must be positive and finite, got 0.0"),
    # transfers beyond the contour step cap
    ("memory --grid 16 --samples 3 --set noble_detuning=1e6", 1, "ef1b3345c13b0fcfbf8b758b3d9c9384dcd8c98ad02ff5a630158fc056d6330d", None, None, CAP.format("7.85398", "1.5e-06")),
    ("memory --grid 16 --samples 3 --set noble_detuning=1e300", 1, "0c329c96a376efc2360b3370c7cda6c9aaf43b45f889f63e2a671d0facfbcc02", None, None, CAP.format("7.85398", "1.5e-300")),
    ("memory --grid 16 --samples 3 --set exchange_coupling=1e-300", 1, "7f8dfb4e03b39b0ce1b683597ecf4f0b701fae1d544e632aa3f67b17ced6e644", None, None, CAP.format("1.5708e+296", "1.35e+03")),
    ("memory --grid 16 --samples 3 --exchange-window 1e12", 1, DEFAULTS, None, None, CAP.format("1e+12", "3.74")),
    # shell volumes that underflow to 0, and face cubes that overflow
    ("memory --grid 16 --samples 3 --set cell_radius_m=1e300", 1, "61cc69a38ea92ea4875894a4ff0732945c0571be3bd11ce2036aadb3ad3befc3", None, None, "configuration error: cube of cell_radius must be finite, got inf"),
    ("memory --grid 16 --samples 3 --set cell_radius_m=1e-300", 1, "0d7c473799cd5c031fe54be37e4dd64d0c1416f3ee6b5576aae8cb651b57a5cc", None, None, f"configuration error: {TINY_CELL.format('1e-300')}"),
    # the operating point at which --require-feasible exits 3
    ("scenario --set memory_lifetime_s=1", 0, "4f7c888d284813f6b228784b0b77e78920e741b2205c021b160de7d4b320994f", None, None, ""),
    # refused keys and values
    ("scenario --set detector_efficiency=0", 1, "bd6d21e48ca50deea46fa77e50cfe93ad693f33eaa7bc7866bbe80204f736171", None, None, NO_GAIN),
    ("gainmap --set receiver_diameter_m=1e-9", 1, "46480cb77b9ba9a38fff91d3b0e3e9686ee3c765b5e66793c021359db60acd6a", None, None, NO_GAIN),
    ("scenario --set altitude_km=nan", 1, NOTHING, None, None, "configuration error: override: altitude_km must be non-negative and finite, got nan"),
    ("scenario --set pointing_jitter_urad=inf", 1, NOTHING, None, None, "configuration error: override: pointing_jitter_urad must be non-negative and finite, got inf"),
    ("scenario --set comb_bandwidth_hz=1", 1, NOTHING, None, None, "configuration error: override: unknown configuration key 'comb_bandwidth_hz'"),
    ("scenario --set output_format=text", 1, NOTHING, None, None, "configuration error: override: unknown configuration key 'output_format'"),
    ("linkmap --range-min 900 --range-max 800", 1, DEFAULTS, None, None, "configuration error: range axis: bounds must satisfy min < max"),
    ("gainmap --mem-max 1.5", 1, NOTHING, None, None, "satqlink gainmap: error: argument --mem-max: must be in [0, 1], got 1.5"),
    # schedules that overflow to inf
    ("memory --grid 16 --samples 3 --preset paper-literal --set exchange_coupling=1e-320", 1, "905da8fe55e09f381ae63c7fb3356d7b919dc09a45478367094ceeb5df460653", None, None, "configuration error: exchange_window must be positive and finite, got inf"),
    ("memory --grid 16 --samples 3 --storage 1.7e308 --exchange-window 1e308", 1, DEFAULTS, None, None, "configuration error: schedule_duration must be non-negative and finite, got inf"),
    # usage errors
    ("linkmap --format csv", 1, NOTHING, None, None, "satqlink: error: unrecognized arguments: --format csv"),
    ("gainmap --eta-mem 0.5", 1, NOTHING, None, None, "satqlink: error: unrecognized arguments: --eta-mem 0.5"),
    ("memory --rtol 1e-6", 1, NOTHING, None, None, "satqlink: error: unrecognized arguments: --rtol 1e-6"),
    ("memory --grid 16 --samples 3 --storage nan", 1, NOTHING, None, None, "satqlink memory: error: argument --storage: must be non-negative and finite, got nan"),
    ("memory --grid 16 --samples 3 --exchange-window nan", 1, NOTHING, None, None, "satqlink memory: error: argument --exchange-window: must be non-negative and finite, got nan"),
    ("gainmap --mem-max inf", 1, NOTHING, None, None, "satqlink gainmap: error: argument --mem-max: must be in [0, 1], got inf"),
    ("linkmap --range-steps many", 1, NOTHING, None, None, "satqlink linkmap: error: argument --range-steps: invalid integer value: 'many'"),
    ("memory --samples 1", 1, NOTHING, None, None, "satqlink memory: error: argument --samples: must be at least 2, got 1"),
    ("linkmap --range-steps 1", 1, NOTHING, None, None, "satqlink linkmap: error: argument --range-steps: must be at least 2, got 1"),
    ("linkmap --jitter-steps 1", 1, NOTHING, None, None, "satqlink linkmap: error: argument --jitter-steps: must be at least 2, got 1"),
    ("gainmap --elev-steps 1", 1, NOTHING, None, None, "satqlink gainmap: error: argument --elev-steps: must be at least 2, got 1"),
    ("gainmap --mem-steps 1", 1, NOTHING, None, None, "satqlink gainmap: error: argument --mem-steps: must be at least 2, got 1"),
    # derived quantities beyond the float range
    ("scenario --set altitude_km=1e103", 1, "48800cab32f1c986357eeb9ab2397c2fe51bcaed3804af0249847348765b4ddf", None, None, "configuration error: orbital_period must be positive and finite, got inf"),
    ("scenario --set gravitational_parameter_km3_s2=1e-300", 1, "99d1074ff07786745a9714568d5a0ac319d26cab323a9c89954d7fba22678cd1", None, None, "configuration error: orbital_period must be positive and finite, got inf"),
    ("scenario --set earth_radius_km=5e-324", 1, "eda052cea2c20df4b81394fe9d589ca897d730f23d2aa7341b3c8c7e1b178934", None, None, "configuration error: ground_speed must be positive and finite, got 0.0"),
    (f"scenario --set mode_count={10 ** 400}", 1, NOTHING, None, None, f"configuration error: override: mode_count must be at least 1 and within the float range, got {10 ** 400}"),
    ("scenario --set channel_use_rate_hz=1.7e308", 1, "152aded5e6dd8d20212f9daaad4c0dcbba49ee7b42b8ed924c04e68412fc751b", None, None, "configuration error: instantaneous_skr must be non-negative and finite, got inf"),
    (f"scenario --set mode_count={10 ** 308}", 1, "38a599e884528a62c9b437cff4c53872d394bff8534bd39f92d4f1b89cc05344", None, None, "configuration error: instantaneous_skr must be non-negative and finite, got inf"),
    # radii whose Laplacian leaves the float range (about 1.5e-76 m at n = 16), and one just inside it
    ("memory --grid 16 --samples 3 --set cell_radius_m=1e-100", 1, "fa72f4924281a82a14b84ac03097d155a44cff7784f0fcec074f363957bfbfd6", None, None, f"configuration error: {TINY_CELL.format('1e-100')}"),
    ("memory --grid 16 --samples 3 --set cell_radius_m=1e-76", 1, "b1a8d49fe4215fc7505f9d1d841867a3e507f4b95e539a64b10903ae61d59137", None, None, f"configuration error: {TINY_CELL.format('1e-76')}"),
    ("memory --grid 16 --samples 3 --set cell_radius_m=1e-74", 0, "1dbd0e73f2508ea39360c2f922a5466f266f860fdae821d96f637a59d23e67e0", 3.5551405640124682e-62, None, ""),
    # finite inputs whose first phase ends in a non-finite state (exit 2); the
    # first stderr line names the phase, the last the grid
    ("memory --grid 16 --samples 3 --set alkali_decay=1e300", 2, "0361d97a32ea588eadcc2ee258da7fc502c85145e12250a60a7e54ef933374dd", None, None, GRID_16),
    ("memory --grid 16 --samples 3 --set noble_decay=1e300", 2, "65a7d4fd04124982f8d61a5d7746ae1fb0ec907e33fb2ffb164f3880b0153cad", None, None, GRID_16),
    ("memory --grid 16 --samples 3 --set alkali_diffusion_m2_s=1e300", 2, "ff36f252459b4dfc006b6054ae6b4c70f6c58428ee4c553c880d32d985059195", None, None, GRID_16),
    ("memory --grid 16 --samples 3 --set noble_diffusion_m2_s=1e300", 2, "9a741d13f70c271b5e058be686ea595102ecdf1fd79dd0479ebd62e4435b180c", None, None, GRID_16),
    ("memory --grid 16 --samples 3 --rabi 1e300 --write-time 1e-6", 2, DEFAULTS, None, None, GRID_16),
    # runs past the caps on kymograph and map cells, refused before any allocation
    ("memory --grid 16 --samples 100000000000", 1, DEFAULTS, None, None, KYMOGRAPH_CAP.format(100000000000, 16)),
    ("memory --samples 4097", 1, DEFAULTS, None, None, KYMOGRAPH_CAP.format(4097, 256)),
    ("memory --grid 2048 --samples 513", 1, DEFAULTS, None, None, KYMOGRAPH_CAP.format(513, 2048)),
    ("linkmap --range-steps 100000000000 --jitter-steps 2", 1, DEFAULTS, None, None, MAP_CAP.format("--range-steps x --jitter-steps", 100000000000, 2)),
    ("linkmap --range-steps 2048 --jitter-steps 2049", 1, DEFAULTS, None, None, MAP_CAP.format("--range-steps x --jitter-steps", 2048, 2049)),
    ("gainmap --elev-steps 2049 --mem-steps 2048", 1, DEFAULTS, None, None, MAP_CAP.format("--elev-steps x --mem-steps", 2049, 2048)),
]


def artifact_digest(out: Path) -> str:
    """sha256 over the names and bytes of the artifacts in ``out`` but the kymographs."""
    listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                      for path in sorted(out.glob("*")) if not path.name.startswith("kymograph"))
    return hashlib.sha256(listing.encode()).hexdigest()


def sums(root: Path) -> dict:
    """The sha256 of every file under ``root`` but SHA256SUMS, by its path relative to ``root``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file() and path.name != "SHA256SUMS"}


def run_all(root: Path) -> int:
    """Run every command under ``root`` and write ``root/SHA256SUMS``; the number
    of commands that end with another exit code or last stderr line, or print
    a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    mismatches = 0
    for n, (line, code, *_, last) in enumerate(COMMANDS, 1):
        here = root / f"{n:02d}"
        here.mkdir(parents=True)
        cp = subprocess.run([sys.executable, "-m", "satqlink", *line.split(), "--out", "o"],
                            cwd=here, env=env, capture_output=True, timeout=TIMEOUT_S)
        (here / "stdout").write_bytes(cp.stdout)
        (here / "stderr").write_bytes(cp.stderr)
        (here / "exit_code").write_text(f"{cp.returncode}\n")
        stderr = cp.stderr.decode(errors="replace")
        got = stderr.splitlines()[-1] if stderr else ""
        if cp.returncode != code or got != last or "Traceback" in stderr:
            sys.stderr.write(f"{line}: exit {cp.returncode}, expected {code} and {last!r}\n{stderr}")
            mismatches += 1
    (root / "SHA256SUMS").write_text("".join(f"{digest}  {name}\n" for name, digest in sums(root).items()))
    return mismatches


# a number as the artifacts print it; split() keeps it as every odd part of a line
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:inf|nan)\b)")


def numeric_change(a: Path, b: Path) -> str:
    """The largest absolute and relative change between the numbers of two
    files, with the line of each, or where their other text differs."""
    lines_a, lines_b = a.read_text(errors="replace").split("\n"), b.read_text(errors="replace").split("\n")
    if len(lines_a) != len(lines_b):
        return f"line count differs ({len(lines_a)} and {len(lines_b)})"
    largest_abs = largest_rel = (0.0, 0)
    for n, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        parts_a, parts_b = NUMBER.split(line_a), NUMBER.split(line_b)
        if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
            return f"non-numeric text or token count differs at line {n}"
        for x, y in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
            if x == y:
                continue
            change = abs(x - y)
            if math.isfinite(change):
                relative = change / max(abs(x), abs(y))
            else:  # an inf or nan on either side
                change = relative = math.inf
            largest_abs, largest_rel = max(largest_abs, (change, n)), max(largest_rel, (relative, n))
    if not largest_abs[0]:
        return "the same numbers, written differently"
    return (f"largest absolute change {largest_abs[0]:.3g} (line {largest_abs[1]}), "
            f"largest relative change {largest_rel[0]:.3g} (line {largest_rel[1]})")


def diff(a: Path, b: Path) -> int:
    """Print each file whose bytes differ between two directories that
    :func:`run_all` wrote, and how; the number of such files."""
    sums_a, sums_b = sums(a), sums(b)
    differing = sorted(name for name in sums_a.keys() | sums_b.keys() if sums_a.get(name) != sums_b.get(name))
    for name in differing:
        if name in sums_a and name in sums_b:
            print(f"{name}: {numeric_change(a / name, b / name)}")
        else:
            print(f"{name}: only in {a if name in sums_a else b}")
    return len(differing)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"] and len(sys.argv) == 4:
        sys.exit(1 if diff(Path(sys.argv[2]), Path(sys.argv[3])) else 0)
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR | --diff A B")
    sys.exit(1 if run_all(Path(sys.argv[1])) else 0)
