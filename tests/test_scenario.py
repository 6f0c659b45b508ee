import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from satqlink import geometry as geo, linkbudget as lb, scenario as scn
from satqlink.config import RunConfig, scenario_config
from satqlink.domain import replace

CFG = scenario_config(RunConfig())  # baseline operating point


def test_combined_eta_dual_matches_reference():
    eta = scn.compare_scenarios(CFG).eta_dual
    assert eta == pytest.approx(4.2253465369308956e-05, rel=1e-9)
    assert eta == pytest.approx(4.23e-5, rel=0.01)


def test_combined_eta_buffered_matches_reference():
    eta = scn.compare_scenarios(CFG).eta_buffered
    assert eta == pytest.approx(0.004699651304630778, rel=1e-9)
    assert eta == pytest.approx(4.70e-3, rel=0.01)
    perfect_memory = replace(CFG, eta_mem=1.0)
    assert scn.compare_scenarios(perfect_memory).eta_buffered == pytest.approx(6.35e-3, rel=0.01)


def test_degenerate_geometry_reduces_to_dual():
    degenerate = replace(
        CFG,
        eta_mem=1.0,
        buffered_slant_range=CFG.dual_slant_range,
    )
    degenerate = replace(degenerate, dual_elevation=math.pi / 2)
    result = scn.compare_scenarios(degenerate)
    assert result.eta_buffered == pytest.approx(result.eta_dual, rel=1e-12)


def test_extreme_jitter_kills_the_dual_link():
    blurred = replace(CFG, link=replace(CFG.link, pointing_jitter_rms=1e-2))
    assert scn.compare_scenarios(blurred).eta_dual < 1e-12


def test_improvement_factor():
    # the improvement factor is the gain of the comparison
    def gain(cfg):
        return scn.compare_scenarios(cfg).gain

    assert gain(CFG) == pytest.approx(111.22522764829596, rel=1e-9)
    assert abs(gain(CFG) - 111.0) <= 2.0
    assert gain(replace(CFG, eta_mem=0.37)) == pytest.approx(
        111.22522764829596 / 2.0, rel=1e-9
    )
    degenerate = replace(CFG, eta_mem=1.0, dual_elevation=math.pi / 2,
                         buffered_slant_range=CFG.dual_slant_range)
    assert gain(degenerate) == pytest.approx(1.0, rel=1e-12)
    dead = replace(CFG, link=replace(CFG.link, detector_efficiency=0.0))
    with pytest.raises(ValueError):
        gain(dead)


def test_compare_scenarios_baseline():
    result = scn.compare_scenarios(CFG)
    assert result.eta_dual == pytest.approx(4.2253465369308956e-05, rel=1e-9)
    assert result.eta_buffered == pytest.approx(0.004699651304630778, rel=1e-9)
    assert result.skr_dual == pytest.approx(8117.938583385409, rel=1e-9)
    assert result.skr_buffered == pytest.approx(902919.5669719273, rel=1e-9)
    assert result.skr_dual == pytest.approx(8.12e3, rel=0.015)
    assert result.skr_buffered == pytest.approx(9.03e5, rel=0.015)
    assert result.gain == pytest.approx(111.225, rel=1e-4)
    assert result.t_buffer == pytest.approx(462.7244297674163, rel=1e-12)
    assert result.feasible is True


def test_rate_ratio_equals_probability_ratio():
    result = scn.compare_scenarios(CFG)
    assert result.skr_buffered / result.skr_dual == pytest.approx(
        result.eta_buffered / result.eta_dual, rel=1e-9
    )
    assert result.skr_buffered / result.skr_dual == pytest.approx(result.gain, rel=1e-9)


def test_compare_scenarios_dead_memory():
    result = scn.compare_scenarios(replace(CFG, eta_mem=0.0))
    assert result.eta_buffered == 0.0
    assert result.skr_buffered == 0.0
    assert result.gain == 0.0
    assert result.eta_dual > 0.0


def test_compare_scenarios_at_error_threshold():
    at_threshold = replace(CFG, qkd=replace(CFG.qkd, qber_x=0.5, qber_z=0.5))
    result = scn.compare_scenarios(at_threshold)
    assert result.skr_dual == 0.0 and result.skr_buffered == 0.0
    assert result.eta_dual == pytest.approx(scn.compare_scenarios(CFG).eta_dual, rel=1e-12)


def test_infeasible_memory_lifetime():
    short = replace(CFG, qkd=replace(CFG.qkd, memory_lifetime=100.0))
    assert scn.compare_scenarios(short).feasible is False


def test_downlink_map_structure():
    ranges = np.linspace(500.0, 2500.0, 9)
    jitters = np.linspace(0.0, 5e-6, 7)
    grid = scn.downlink_probability_map(ranges, jitters, CFG)
    assert isinstance(grid, scn.Grid) and grid.size == 63
    grid = np.asarray(grid)
    assert grid.shape == (9, 7)
    assert np.all(np.diff(grid, axis=0) < 0)  # longer range, lower probability
    assert np.all(np.diff(grid, axis=1) < 0)  # more jitter, lower probability
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    # zero-jitter column dominates every jittered column
    assert np.all(grid[:, :1] >= grid[:, 1:])


def test_downlink_map_consistent_with_single_link():
    ranges = np.array([500.0, 1461.9])
    jitters = np.array([1e-6])
    grid = scn.downlink_probability_map(ranges, jitters, CFG)
    zenith = (
        CFG.link.detector_efficiency
        * lb.atmospheric_transmission(math.pi / 2, CFG.link.zenith_transmission)
        * lb.collected_fraction(500e3, CFG.link)
    )
    assert abs(grid[0][0] - zenith) < 1e-12
    assert grid[0][0] == pytest.approx(0.07969240955946144, rel=1e-12)
    assert grid[1][0] == pytest.approx(0.004939441019962934, rel=1e-12)
    # the diffraction parts of the two cells keep the closed-form ratio
    dif_ratio = (
        lb.collected_fraction(1461.9e3, CFG.link) / lb.collected_fraction(500e3, CFG.link)
    )
    assert dif_ratio == pytest.approx(0.1253, rel=1e-3)


def test_downlink_map_rejects_bad_axes():
    with pytest.raises(ValueError):
        scn.downlink_probability_map(np.array([]), np.array([1e-6]), CFG)
    with pytest.raises(ValueError):
        scn.downlink_probability_map(np.array([900.0, 700.0]), np.array([1e-6]), CFG)
    with pytest.raises(ValueError):
        # below the zenith range for this altitude
        scn.downlink_probability_map(np.array([450.0]), np.array([1e-6]), CFG)
    with pytest.raises(ValueError):
        scn.downlink_probability_map(np.array([math.nan]), np.array([1e-6]), CFG)
    with pytest.raises(ValueError):
        scn.downlink_probability_map(np.array([700.0]), np.array([math.nan]), CFG)
    with pytest.raises(ValueError):
        scn.downlink_probability_map(np.array([[700.0, 900.0]]), np.array([1e-6]), CFG)


def test_gain_map_baseline_and_structure():
    elevations = np.radians(np.linspace(20.0, 90.0, 15))
    memories = np.linspace(0.1, 1.0, 10)
    grid = np.asarray(scn.gain_map(elevations, memories, CFG))
    assert grid.shape == (15, 10)
    assert np.all(np.diff(grid, axis=0) > 0)  # higher elevation helps
    assert np.all(np.diff(grid, axis=1) > 0)  # better memory helps
    baseline = scn.gain_map(np.array([math.pi / 2]), np.array([0.74]), CFG)[0][0]
    assert baseline == pytest.approx(111.22522764829596, rel=1e-9)
    assert baseline >= 100.0


def test_gain_map_is_linear_in_memory():
    elevations = np.radians(np.array([30.0, 60.0, 90.0]))
    memories = np.array([0.25, 0.5, 1.0])
    grid = np.asarray(scn.gain_map(elevations, memories, CFG))
    assert np.allclose(grid[:, 2] * 0.25, grid[:, 0], rtol=1e-12)
    assert np.allclose(grid[:, 2] * 0.5, grid[:, 1], rtol=1e-12)


def test_gain_map_self_comparison_is_unity():
    l20 = geo.slant_range_from_elevation(math.radians(20.0), CFG.orbit)
    consistent = replace(CFG, dual_slant_range=l20)
    cell = scn.gain_map(np.array([math.radians(20.0)]), np.array([1.0]), consistent)[0][0]
    assert cell == pytest.approx(1.0, rel=1e-12)


def test_markdown_and_record_outputs():
    result = scn.compare_scenarios(CFG)
    md = scn.markdown_comparison(result)
    assert "| Dual downlink | 4.22535e-05 | 8117.94 |" in md
    assert "Buffered downlink" in md and "111.225x" in md
    record = scn.record_comparison(result)
    parsed = dict(line.split(" = ") for line in record.strip().splitlines())
    assert float(parsed["eta_dual"]) == result.eta_dual
    assert float(parsed["skr_buffered_bits_per_s"]) == result.skr_buffered
    assert parsed["feasible"] == "true"
    csv_text = scn.csv_comparison(result)
    assert csv_text.splitlines()[0] == "quantity,value"
    assert len(csv_text.splitlines()) == 8


def test_grid_csv_layout(tmp_path):
    ranges = np.array([500.0, 1000.0])
    jitters = np.array([0.0, 1e-6])
    grid = scn.downlink_probability_map(ranges, jitters, CFG)
    scn.linkmap_csv(ranges, jitters, grid, tmp_path / "linkmap.csv")
    lines = (tmp_path / "linkmap.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "slant_range_km,pointing_jitter_urad,success_probability"
    assert len(lines) == 5
    # range-major ordering, jitter in microradians
    assert lines[1].startswith("500,0,")
    assert lines[2].startswith("500,1,")
    assert lines[3].startswith("1000,0,")

    elevations = np.array([math.radians(45.0), math.radians(90.0)])
    memories = np.array([0.5, 1.0])
    gains = scn.gain_map(elevations, memories, CFG)
    scn.gainmap_csv(elevations, memories, gains, tmp_path / "gainmap.csv")
    glines = (tmp_path / "gainmap.csv").read_text(encoding="utf-8").splitlines()
    assert glines[0] == "elevation_deg,memory_efficiency,gain"
    assert glines[1].startswith("45,0.5,")
    assert glines[4].startswith("90,1,")


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        replace(CFG, dual_slant_range=0.0)
    with pytest.raises(ValueError):
        replace(CFG, dual_elevation=0.0)
    with pytest.raises(ValueError):
        replace(CFG, eta_mem=1.5)


def test_improvement_factor_agrees_with_compare_scenarios():
    # the gain is the buffered over the dual success probability (the rate
    # ratio), and undefined without a dual success probability
    for cfg in (CFG, replace(CFG, eta_mem=0.37, dual_elevation=0.5)):
        result = scn.compare_scenarios(cfg)
        assert result.gain == result.eta_buffered / result.eta_dual
    dead = replace(CFG, link=replace(CFG.link, detector_efficiency=0.0))

    def one_cell_gain_map(cfg):
        return scn.gain_map(np.array([1.0]), np.array([0.5]), cfg)

    for fn in (scn.compare_scenarios, one_cell_gain_map):
        with pytest.raises(ValueError, match="gain undefined"):
            fn(dead)


def test_downlink_map_matches_per_cell_reference():
    horizon_km = math.sqrt(CFG.orbit.orbit_radius ** 2 - CFG.orbit.earth_radius ** 2)
    ranges = np.array([500.0, 731.37, 1461.9, horizon_km - 1e-3])
    jitters = np.array([0.0, 3.3e-7, 1e-6, 4.71e-6])
    grid = scn.downlink_probability_map(ranges, jitters, CFG)
    for j, sigma in enumerate(jitters):
        link = replace(CFG.link, pointing_jitter_rms=float(sigma))
        for i, l_km in enumerate(ranges):
            theta = geo.elevation_from_slant_range(float(l_km), CFG.orbit)
            cell = (
                link.detector_efficiency
                * lb.atmospheric_transmission(theta, link.zenith_transmission)
                * lb.collected_fraction(float(l_km) * 1e3, link)
            )
            assert grid[i][j] == pytest.approx(cell, rel=1e-12, abs=0.0)


def test_gain_map_matches_per_row_reference():
    elevations = np.radians(np.array([10.37, 20.0, 47.123, 89.99, 90.0]))
    memories = np.array([0.0, 0.113, 0.74, 1.0])
    grid = scn.gain_map(elevations, memories, CFG)
    ez = CFG.link.zenith_transmission
    ref = (lb.atmospheric_transmission(CFG.dual_elevation, ez)
           * lb.collected_fraction(CFG.dual_slant_range * 1e3, CFG.link)) ** 2
    for i, theta in enumerate(elevations):
        l_km = geo.slant_range_from_elevation(float(theta), CFG.orbit)
        arm = (lb.atmospheric_transmission(float(theta), ez)
               * lb.collected_fraction(l_km * 1e3, CFG.link))
        for j, mem in enumerate(memories):
            assert grid[i][j] == pytest.approx(mem * arm * arm / ref, rel=1e-12, abs=0.0)


def test_map_writers_match_naive_reference(tmp_path):
    rng = np.random.default_rng(7)
    ranges = np.sort(rng.uniform(500.0, 2500.0, 6))
    jitters = np.sort(rng.uniform(0.0, 5e-6, 5))
    grid = rng.uniform(0.0, 0.1, (6, 5)) / 3.0
    scn.linkmap_csv(ranges, jitters, grid, tmp_path / "linkmap.csv")
    assert (tmp_path / "linkmap.csv").read_bytes() == references.naive_grid_csv(
        "slant_range_km,pointing_jitter_urad,success_probability",
        [float(l) for l in ranges], [float(s) * 1e6 for s in jitters], grid,
    ).encode()
    elevations = np.sort(rng.uniform(0.2, math.pi / 2, 6))
    memories = np.sort(rng.uniform(0.0, 1.0, 5))
    gains = rng.uniform(1.0, 200.0, (6, 5)) / 7.0
    scn.gainmap_csv(elevations, memories, gains, tmp_path / "gainmap.csv")
    assert (tmp_path / "gainmap.csv").read_bytes() == references.naive_grid_csv(
        "elevation_deg,memory_efficiency,gain",
        [math.degrees(float(t)) for t in elevations], [float(m) for m in memories], gains,
    ).encode()


# Axis points as distinct per-mille steps of their span, so neighbouring
# cells differ by far more than rounding.
_PER_MILLE = st.lists(st.integers(0, 999), min_size=1, max_size=8, unique=True).map(sorted)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(altitude=st.floats(300.0, 1500.0), range_steps=_PER_MILLE, jitter_steps=_PER_MILLE)
def test_link_map_cells_are_the_single_link_kernel(altitude, range_steps, jitter_steps):
    cfg = replace(CFG, orbit=replace(CFG.orbit, altitude=altitude))
    horizon = math.sqrt(cfg.orbit.orbit_radius ** 2 - cfg.orbit.earth_radius ** 2)
    ranges = [altitude + (horizon - altitude) * k / 1000.0 for k in range_steps]
    jitters = [k * 1e-8 for k in jitter_steps]
    grid = scn.downlink_probability_map(ranges, jitters, cfg)
    assert grid.size == len(ranges) * len(jitters)
    for l, row in zip(ranges, grid):
        theta = geo.elevation_from_slant_range(l, cfg.orbit)
        for sigma, cell in zip(jitters, row):
            link = replace(cfg.link, pointing_jitter_rms=sigma)
            assert cell == lb.single_link_efficiency(theta, l * 1e3, link)
            assert 0.0 <= cell <= 1.0
    # strictly decreasing along range and along jitter while positive
    for line in [*grid, *zip(*grid)]:
        for a, b in zip(line, line[1:]):
            assert b < a if a > 0.0 else b == 0.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(altitude=st.floats(300.0, 1500.0), elevation_steps=_PER_MILLE, memory_steps=_PER_MILLE)
def test_gain_map_cells_are_row_ratio_times_memory(altitude, elevation_steps, memory_steps):
    cfg = replace(CFG, orbit=replace(CFG.orbit, altitude=altitude))
    elevations = [(k + 1) / 1000.0 * math.pi / 2.0 for k in elevation_steps]
    memories = [k / 999.0 for k in memory_steps]
    grid = scn.gain_map(elevations, memories, cfg)
    assert grid.size == len(elevations) * len(memories)
    dual = lb.single_link_efficiency(cfg.dual_elevation, cfg.dual_slant_range * 1e3, cfg.link)
    for theta, row in zip(elevations, grid):
        l = geo.slant_range_from_elevation(theta, cfg.orbit)
        arm = lb.single_link_efficiency(theta, l * 1e3, cfg.link)
        ratio = arm * arm / (dual * dual)
        assert row == [ratio * m for m in memories]
