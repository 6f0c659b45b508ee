"""Architecture comparison: simultaneous low-elevation downlinks versus
sequential overhead downlinks bridged by onboard storage.

The per-trial success probability of each architecture is the square of
one arm's efficiency (``linkbudget.single_link_efficiency``: detector,
atmosphere, diffraction), times the memory efficiency for the buffered
case. The dual-scenario slant range is an explicit configuration input,
deliberately not derived from the dual elevation angle; see the README
geometry note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, linkbudget, skr
from .formatting import csv_float, csv_floats, table_float
from .geometry import OrbitalConfig
from .linkbudget import OpticalLinkParams
from .skr import QKDParams

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "improvement_factor",
    "compare_scenarios",
    "downlink_probability_map",
    "gain_map",
    "markdown_comparison",
    "record_comparison",
    "csv_comparison",
    "linkmap_csv",
    "gainmap_csv",
]

KM = 1e3  # geometry works in km, beam optics in m


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one architecture comparison. Ranges in km, angles in rad."""

    orbit: OrbitalConfig = OrbitalConfig()
    link: OpticalLinkParams = OpticalLinkParams()
    qkd: QKDParams = QKDParams()
    dual_elevation: float = math.radians(20.0)
    dual_slant_range: float = 1461.9
    buffered_slant_range: float = 500.0
    ogs_separation: float = 3267.9
    eta_mem: float = 0.74

    def __post_init__(self):
        if self.dual_slant_range <= 0.0 or self.buffered_slant_range <= 0.0:
            raise ValueError("slant ranges must be positive")
        if not 0.0 < self.dual_elevation <= math.pi / 2.0:
            raise ValueError("dual_elevation must lie in (0, pi/2]")
        if self.ogs_separation < 0.0:
            raise ValueError("ogs_separation must be non-negative")
        if not 0.0 <= self.eta_mem <= 1.0:
            raise ValueError("eta_mem must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioResult:
    """Headline numbers of one comparison."""

    eta_dual: float
    eta_buffered: float
    skr_dual: float       # bits/s
    skr_buffered: float   # bits/s
    gain: float
    t_buffer: float       # s
    feasible: bool


def _dual_arm(cfg: ScenarioConfig) -> float:
    """Single-arm efficiency of the dual geometry, the reference of every gain.

    Raises ValueError when the dual-downlink probability is zero, because
    the gain is then undefined.
    """
    arm = linkbudget.single_link_efficiency(cfg.dual_elevation, cfg.dual_slant_range * KM, cfg.link)
    if arm * arm == 0.0:
        raise ValueError("dual-downlink probability is zero; gain undefined")
    return arm


def improvement_factor(cfg: ScenarioConfig) -> float:
    """Buffered over dual success probability (equals the rate ratio)."""
    return compare_scenarios(cfg).gain


def compare_scenarios(cfg: ScenarioConfig) -> ScenarioResult:
    """Evaluate both architectures and the storage feasibility constraint.

    Raises ValueError when the dual-downlink probability is zero, because
    the gain is then undefined.
    """
    arm_dual = _dual_arm(cfg)
    arm_buff = linkbudget.single_link_efficiency(
        math.pi / 2.0, cfg.buffered_slant_range * KM, cfg.link
    )
    eta_dual = arm_dual * arm_dual
    eta_buffered = cfg.eta_mem * arm_buff * arm_buff

    herald = cfg.qkd.herald_probability
    y_dual = skr.yield_dual(arm_dual, arm_dual, herald)
    y_buffered = skr.yield_buffered(arm_buff, arm_buff, cfg.eta_mem, herald)
    skr_dual = skr.instantaneous_skr(cfg.qkd, y_dual)
    skr_buffered = skr.instantaneous_skr(cfg.qkd, y_buffered)

    t_buffer = geometry.buffer_time(cfg.ogs_separation, cfg.orbit)
    return ScenarioResult(
        eta_dual=eta_dual,
        eta_buffered=eta_buffered,
        skr_dual=skr_dual,
        skr_buffered=skr_buffered,
        gain=eta_buffered / eta_dual,
        t_buffer=t_buffer,
        feasible=skr.feasibility(cfg.qkd.memory_lifetime, t_buffer),
    )


def downlink_probability_map(
    range_axis_km: np.ndarray,
    jitter_axis_rad: np.ndarray,
    cfg: ScenarioConfig,
) -> np.ndarray:
    """Single-photon downlink success over (slant range, pointing jitter).

    Cell value: one arm's efficiency, with the elevation recovered from the
    slant range at the configured altitude; the memory is excluded. Axes
    must be ascending; ranges must lie between zenith (altitude) and the
    horizon.
    """
    ranges = _checked_axis("range_axis_km", range_axis_km)
    jitters = _checked_axis("jitter_axis_rad", jitter_axis_rad, allow_zero=True)
    thetas = np.array([geometry.elevation_from_slant_range(l, cfg.orbit) for l in ranges.tolist()])
    ranges_m = ranges * KM
    grid = np.empty((ranges.size, jitters.size))
    for j, sigma in enumerate(jitters.tolist()):
        link = replace(cfg.link, pointing_jitter_rms=sigma)
        grid[:, j] = linkbudget.single_link_efficiency(thetas, ranges_m, link)
    return grid


def gain_map(
    elevation_axis_rad: np.ndarray,
    eta_mem_axis: np.ndarray,
    cfg: ScenarioConfig,
) -> np.ndarray:
    """Rate gain of buffering over the fixed dual geometry.

    Cell (theta, eta_mem): buffered links at elevation theta with slant
    range from the closed-form geometry, against the configured dual
    reference. Raises ValueError when the dual-downlink probability is zero,
    exactly as ``compare_scenarios`` does.
    """
    elevations = _checked_axis("elevation_axis_rad", elevation_axis_rad)
    memories = _checked_axis("eta_mem_axis", eta_mem_axis, allow_zero=True)
    arm_dual = _dual_arm(cfg)
    ranges = np.array([geometry.slant_range_from_elevation(t, cfg.orbit) for t in elevations.tolist()])
    arm = linkbudget.single_link_efficiency(elevations, ranges * KM, cfg.link)
    return np.outer(arm * arm / (arm_dual * arm_dual), memories)


def _checked_axis(name: str, axis, allow_zero: bool = False) -> np.ndarray:
    arr = np.asarray(axis, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D axis")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise ValueError(f"{name} must be strictly ascending")
    low = 0.0 if allow_zero else np.nextafter(0.0, 1.0)
    if arr[0] < low:
        raise ValueError(f"{name} values out of range")
    return arr


# ---------------------------------------------------------------------------
# artifact emission


def markdown_comparison(result: ScenarioResult) -> str:
    """Markdown table of the two architectures, 6 significant digits."""
    lines = [
        "| Scenario | Combined success probability | SKR (bits/s) |",
        "| --- | --- | --- |",
        f"| Dual downlink | {table_float(result.eta_dual)} | {table_float(result.skr_dual)} |",
        f"| Buffered downlink | {table_float(result.eta_buffered)} | {table_float(result.skr_buffered)} |",
        f"| Improvement factor | {table_float(result.gain)}x | {table_float(result.gain)}x |",
        "",
        f"Buffer interval: {table_float(result.t_buffer)} s; "
        f"storage feasible: {'yes' if result.feasible else 'no'}",
    ]
    return "\n".join(lines) + "\n"


def record_comparison(result: ScenarioResult) -> str:
    """Key-value record of the comparison, full precision."""
    items = [
        ("eta_dual", csv_float(result.eta_dual)),
        ("eta_buffered", csv_float(result.eta_buffered)),
        ("skr_dual_bits_per_s", csv_float(result.skr_dual)),
        ("skr_buffered_bits_per_s", csv_float(result.skr_buffered)),
        ("gain", csv_float(result.gain)),
        ("t_buffer_s", csv_float(result.t_buffer)),
        ("feasible", "true" if result.feasible else "false"),
    ]
    return "".join(f"{key} = {value}\n" for key, value in items)


def csv_comparison(result: ScenarioResult) -> str:
    """The comparison as quantity,value CSV rows."""
    rows = ["quantity,value"]
    for line in record_comparison(result).splitlines():
        key, _, value = line.partition(" = ")
        rows.append(f"{key},{value}")
    return "\n".join(rows) + "\n"


def _grid_csv(header: str, rows: list[float], columns: list[float], grid: np.ndarray) -> str:
    """Long-format CSV, one line per cell in row-major order.

    ``rows`` and ``columns`` are the axis values as printed; each is
    formatted once, not once per cell.
    """
    column_labels = csv_floats(columns)
    lines = [header]
    for row_label, values in zip(csv_floats(rows), grid.tolist()):
        lines.extend(f"{row_label},{c},{v}" for c, v in zip(column_labels, csv_floats(values)))
    return "\n".join(lines) + "\n"


def linkmap_csv(range_axis_km, jitter_axis_rad, grid: np.ndarray) -> str:
    """Long-format CSV of the downlink map, range-major row order."""
    return _grid_csv(
        "slant_range_km,pointing_jitter_urad,success_probability",
        np.asarray(range_axis_km, dtype=float).tolist(),
        (np.asarray(jitter_axis_rad, dtype=float) * 1e6).tolist(),
        grid,
    )


def gainmap_csv(elevation_axis_rad, eta_mem_axis, grid: np.ndarray) -> str:
    """Long-format CSV of the gain map, elevation-major row order."""
    return _grid_csv(
        "elevation_deg,memory_efficiency,gain",
        [math.degrees(t) for t in np.asarray(elevation_axis_rad, dtype=float).tolist()],
        np.asarray(eta_mem_axis, dtype=float).tolist(),
        grid,
    )
