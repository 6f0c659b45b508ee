"""Workload definitions: the satqlink command lists each workload runs.

Seed 0 is the shipped defaults, checked against the recorded reference
artifacts. Any other seed draws the same-sized commands with perturbed but
valid inputs (axis bounds, ``--eta-mem``, ``--storage``, ``--profile`` and
``--set`` of altitude or pointing jitter); those are checked through
invariants instead. Perturbations are kept small where they change the
amount of work (the storage interval sets the RK45 step count), so the cost
of a pass does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

EARTH_RADIUS_KM = 6371.0
DENSE_STEPS = 320        # reproduce-sweep: 320 x 320 = 102,400 cells per map
SMALL_SAMPLES = 301      # memory-small: dense lossless kymograph

WORKLOADS = {
    "reproduce-sweep": "the paper's headline session (scenario in three formats, "
    "default linkmap and gainmap), then linkmap and gainmap at 320x320 cells; "
    "start-up and the per-cell link kernel dominate, bypasses spindyn",
    "memory": "memory at its defaults (rescaled, n=256, 463 s); the only "
    "workload where the stiff RK45 solve dominates",
    "memory-small": "lossless n=256 with a dense kymograph plus rescaled n=64; "
    "short solves and heavy kymograph writes",
}


@dataclass(frozen=True)
class Command:
    """One satqlink invocation and what its outputs are checked against."""

    label: str
    argv: tuple            # satqlink arguments, without --out
    kind: str              # scenario | linkmap | gainmap | memory
    params: dict = field(default_factory=dict)
    reference: str | None = None   # reference artifact name, seed 0 only


def _num(x: float) -> str:
    return repr(round(x, 4))


def _horizon_km(altitude_km: float) -> float:
    r_s = EARTH_RADIUS_KM + altitude_km
    return math.sqrt(r_s * r_s - EARTH_RADIUS_KM * EARTH_RADIUS_KM)


def _link_sets(rng: random.Random) -> tuple[list[str], float]:
    altitude = round(rng.uniform(450.0, 550.0), 4)
    jitter = rng.uniform(0.5, 1.5)
    return ["--set", f"altitude_km={_num(altitude)}",
            "--set", f"pointing_jitter_urad={_num(jitter)}"], altitude


def scenario_command(fmt: str, rng: random.Random | None) -> Command:
    argv = ["scenario", "--format", fmt]
    if rng is not None:
        sets, _ = _link_sets(rng)
        argv += sets + ["--eta-mem", _num(rng.uniform(0.5, 0.95))]
    return Command(
        f"scenario-{fmt}", tuple(argv), "scenario", {"format": fmt},
        None if rng else "scenario",
    )


def linkmap_command(steps: int | None, rng: random.Random | None) -> Command:
    p = {"range_min": 500.0, "range_max": 2500.0, "range_steps": 21,
         "jitter_min": 0.0, "jitter_max": 5.0, "jitter_steps": 21}
    argv = ["linkmap"]
    if steps is not None:
        p["range_steps"] = p["jitter_steps"] = steps
    if rng is not None:
        sets, altitude = _link_sets(rng)
        horizon = _horizon_km(altitude)
        p["range_min"] = round(altitude + rng.uniform(1.0, 150.0), 4)
        p["range_max"] = round(rng.uniform(horizon - 400.0, horizon - 50.0), 4)
        p["jitter_min"] = round(rng.uniform(0.0, 0.5), 4)
        p["jitter_max"] = round(rng.uniform(4.0, 6.0), 4)
        argv += sets
    if steps is not None or rng is not None:
        for key in ("range_min", "range_max", "range_steps",
                    "jitter_min", "jitter_max", "jitter_steps"):
            argv += ["--" + key.replace("_", "-"), str(p[key])]
    shape = f"{p['range_steps']}x{p['jitter_steps']}"
    return Command(f"linkmap-{shape}", tuple(argv), "linkmap", p,
                   None if rng else f"linkmap-{shape}")


def gainmap_command(steps: int | None, rng: random.Random | None) -> Command:
    p = {"elev_min": 20.0, "elev_max": 90.0, "elev_steps": 15,
         "mem_min": 0.1, "mem_max": 1.0, "mem_steps": 19}
    argv = ["gainmap"]
    if steps is not None:
        p["elev_steps"] = p["mem_steps"] = steps
    if rng is not None:
        sets, _ = _link_sets(rng)
        p["elev_min"] = round(rng.uniform(10.0, 30.0), 4)
        p["elev_max"] = round(rng.uniform(70.0, 90.0), 4)
        p["mem_min"] = round(rng.uniform(0.05, 0.2), 4)
        p["mem_max"] = round(rng.uniform(0.8, 1.0), 4)
        argv += sets
    if steps is not None or rng is not None:
        for key in ("elev_min", "elev_max", "elev_steps",
                    "mem_min", "mem_max", "mem_steps"):
            argv += ["--" + key.replace("_", "-"), str(p[key])]
    shape = f"{p['elev_steps']}x{p['mem_steps']}"
    return Command(f"gainmap-{shape}", tuple(argv), "gainmap", p,
                   None if rng else f"gainmap-{shape}")


def memory_command(preset: str, grid: int, samples: int,
                   rng: random.Random | None) -> Command:
    argv = ["memory"]
    if preset != "rescaled":
        argv += ["--preset", preset]
    if grid != 256:
        argv += ["--grid", str(grid)]
    if samples != 121:
        argv += ["--samples", str(samples)]
    if rng is not None:
        # +-1 % storage keeps the RK45 step count within +-1 % of seed 0.
        argv += ["--storage", _num(463.0 * rng.uniform(0.99, 1.01)),
                 "--profile", rng.choice(("uniform", "fundamental-mode"))]
    name = f"memory-{preset}-n{grid}-s{samples}"
    return Command(name, tuple(argv), "memory",
                   {"preset": preset, "grid": grid, "samples": samples},
                   None if rng else name)


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one pass of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}") if seed != 0 else None
    if workload == "reproduce-sweep":
        return [scenario_command(fmt, rng) for fmt in ("markdown", "text", "csv")] + [
            linkmap_command(None, rng), gainmap_command(None, rng),
            linkmap_command(DENSE_STEPS, rng), gainmap_command(DENSE_STEPS, rng)]
    if workload == "memory":
        return [memory_command("rescaled", 256, 121, rng)]
    return [memory_command("lossless", 256, SMALL_SAMPLES, rng),
            memory_command("rescaled", 64, 121, rng)]
