"""Architecture comparison: simultaneous low-elevation downlinks versus
sequential overhead downlinks bridged by onboard storage.

The per-trial success probability of each architecture is the square of
one arm's efficiency (``linkbudget.single_link_efficiency``: detector,
atmosphere, diffraction), times the memory efficiency for the buffered
case. The dual-scenario slant range is an explicit configuration input,
deliberately not derived from the dual elevation angle; see the README
geometry note.
"""

import math
from array import array
from typing import Annotated

from . import geometry, linkbudget, skr
from .domain import (
    ELEVATION, NON_NEGATIVE, POSITIVE, PROBABILITY, ConfigError, Domain, Record, require,
)
from .formatting import csv_float, table_float, write_long_csv

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "Grid",
    "compare_scenarios",
    "downlink_probability_map",
    "gain_map",
    "MAP_CELLS",
    "markdown_comparison",
    "record_comparison",
    "csv_comparison",
    "linkmap_csv",
    "gainmap_csv",
]

KM = 1e3  # geometry works in km, beam optics in m

# cells of one map, rows x columns; its cost is noted beside spindyn._KYMOGRAPH_CELLS
MAP_CELLS = Domain("at most 4194304 map cells", 0, 2 ** 22)


class ScenarioConfig(Record):
    """Inputs of one architecture comparison. Ranges in km, angles in rad."""

    orbit: geometry.OrbitalConfig
    link: linkbudget.OpticalLinkParams
    qkd: skr.QKDParams
    dual_elevation: Annotated[float, ELEVATION]
    dual_slant_range: Annotated[float, POSITIVE]
    buffered_slant_range: Annotated[float, POSITIVE]
    ogs_separation: Annotated[float, NON_NEGATIVE]
    eta_mem: Annotated[float, PROBABILITY]


class ScenarioResult(Record):
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

    Raises ConfigError when the dual-downlink probability is zero, because
    the gain is then undefined.
    """
    arm = linkbudget.single_link_efficiency(cfg.dual_elevation, cfg.dual_slant_range * KM, cfg.link)
    if arm * arm == 0.0:
        raise ConfigError("dual-downlink probability is zero; gain undefined")
    return arm


def compare_scenarios(cfg: ScenarioConfig) -> ScenarioResult:
    """Evaluate both architectures and the storage feasibility constraint.

    Raises ConfigError when the dual-downlink probability is zero, because
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


class Grid(list):
    """A map as a row-major list of rows of floats.

    ``size`` (the cell count) reads as it does on a numpy array, and
    ``numpy.asarray`` gives the 2-D array.
    """

    @property
    def size(self) -> int:
        return sum(len(row) for row in self)


def downlink_probability_map(range_axis_km, jitter_axis_rad, cfg: ScenarioConfig) -> Grid:
    """Single-photon downlink success over (slant range, pointing jitter).

    Returns one row per range (km), one cell per pointing jitter (rad). Cell
    value: one arm's efficiency, with the elevation recovered from the slant
    range at the configured altitude; the memory is excluded. Axes must be
    ascending; ranges must lie between zenith (altitude) and the horizon.
    """
    ranges = _checked_axis("range_axis_km", range_axis_km, POSITIVE)
    jitters = _checked_axis("jitter_axis_rad", jitter_axis_rad, NON_NEGATIVE)
    require(MAP_CELLS, **{"len(range_axis_km) x len(jitter_axis_rad)": len(ranges) * len(jitters)})
    return Grid(
        linkbudget.link_efficiency_row(
            geometry.elevation_from_slant_range(l, cfg.orbit), l * KM, cfg.link, jitters
        )
        for l in ranges
    )


def gain_map(elevation_axis_rad, eta_mem_axis, cfg: ScenarioConfig) -> Grid:
    """Rate gain of buffering over the fixed dual geometry.

    Returns one row per elevation (rad), one cell per memory efficiency.
    Cell (theta, eta_mem): buffered links at elevation theta with slant
    range from the closed-form geometry, against the configured dual
    reference. Memory efficiencies must lie in [0, 1], the range
    ``ScenarioConfig`` accepts for ``eta_mem``. Raises ConfigError when the
    dual-downlink probability is zero, exactly as ``compare_scenarios`` does.
    """
    elevations = _checked_axis("elevation_axis_rad", elevation_axis_rad, ELEVATION)
    memories = _checked_axis("eta_mem_axis", eta_mem_axis, PROBABILITY)
    require(MAP_CELLS, **{"len(elevation_axis_rad) x len(eta_mem_axis)": len(elevations) * len(memories)})
    arm_dual = _dual_arm(cfg)
    rows = Grid()
    for theta in elevations:
        l = geometry.slant_range_from_elevation(theta, cfg.orbit)
        arm = linkbudget.single_link_efficiency(theta, l * KM, cfg.link)
        ratio = arm * arm / (arm_dual * arm_dual)
        rows.append([ratio * m for m in memories])
    return rows


def _checked_axis(name: str, axis, domain: Domain) -> list[float]:
    try:
        values = [float(x) for x in axis]
        ends = {f"{name}[0]": values[0], f"{name}[-1]": values[-1]}
    except (TypeError, IndexError):
        raise ConfigError(f"{name} must be a non-empty 1-D axis") from None
    if not all(a < b for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly ascending")
    require(domain, **ends)
    return values


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


def _comparison_items(result: ScenarioResult) -> list[tuple[str, str]]:
    """(quantity, value) pairs of the comparison, full precision."""
    return [
        ("eta_dual", csv_float(result.eta_dual)),
        ("eta_buffered", csv_float(result.eta_buffered)),
        ("skr_dual_bits_per_s", csv_float(result.skr_dual)),
        ("skr_buffered_bits_per_s", csv_float(result.skr_buffered)),
        ("gain", csv_float(result.gain)),
        ("t_buffer_s", csv_float(result.t_buffer)),
        ("feasible", "true" if result.feasible else "false"),
    ]


def record_comparison(result: ScenarioResult) -> str:
    """Key-value record of the comparison, full precision."""
    return "".join(f"{key} = {value}\n" for key, value in _comparison_items(result))


def csv_comparison(result: ScenarioResult) -> str:
    """The comparison as quantity,value CSV rows."""
    return "quantity,value\n" + "".join(f"{k},{v}\n" for k, v in _comparison_items(result))


def linkmap_csv(range_axis_km, jitter_axis_rad, grid: Grid, path) -> None:
    """Write the downlink map to ``path`` as long-format CSV, range-major row order."""
    write_long_csv(
        [(path, "slant_range_km,pointing_jitter_urad,success_probability", (0,))],
        [float(l) for l in range_axis_km],
        [float(s) * 1e6 for s in jitter_axis_rad],
        ((array("d", row),) for row in grid),
    )


def gainmap_csv(elevation_axis_rad, eta_mem_axis, grid: Grid, path) -> None:
    """Write the gain map to ``path`` as long-format CSV, elevation-major row order."""
    write_long_csv(
        [(path, "elevation_deg,memory_efficiency,gain", (0,))],
        [math.degrees(t) for t in elevation_axis_rad],
        [float(m) for m in eta_mem_axis],
        ((array("d", row),) for row in grid),
    )
