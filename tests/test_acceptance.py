"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import references
from satqlink import afc, geometry as geo, linkbudget as lb, scenario as scn, skr
from satqlink import spindyn as sd
from satqlink.config import RunConfig, ensemble_params, scenario_config
from satqlink.domain import replace
from satqlink.spindyn import EnsembleParams

BASELINE = scenario_config(RunConfig())  # the baseline operating point


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL {description}")
        raise
    print(f"[criterion {number:2d}] PASS {description}")


def test_criterion_01_combined_success_probabilities():
    with criterion(1, "combined success probabilities 4.23e-5 / 4.70e-3 within 1%, gain 111 +- 2"):
        cfg = BASELINE
        scn.compare_scenarios(cfg)  # warm-up
        t0 = time.perf_counter()
        result = scn.compare_scenarios(cfg)
        elapsed = time.perf_counter() - t0
        assert result.eta_dual == pytest.approx(4.23e-5, rel=0.01)
        assert result.eta_buffered == pytest.approx(4.70e-3, rel=0.01)
        assert abs(result.gain - 111.0) <= 2.0
        assert elapsed < 1e-3, f"comparison took {elapsed * 1e3:.3f} ms"


def test_criterion_02_skr_reproduction():
    with criterion(2, "instantaneous SKR 8.12e3 / 9.03e5 bits/s within 1.5% at the calibrated bracket"):
        q = BASELINE.qkd
        assert skr.key_bracket(q) == pytest.approx(0.03812, abs=1e-10)
        result = scn.compare_scenarios(BASELINE)
        assert result.skr_dual == pytest.approx(8.12e3, rel=0.015)
        assert result.skr_buffered == pytest.approx(9.03e5, rel=0.015)


def test_criterion_03_calibration_free_gain():
    with criterion(3, "SKR ratio equals probability ratio to 1e-9 over 100 random configs; baseline 111 +- 2"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            e = float(rng.uniform(0.0, 0.08))
            link = replace(
                BASELINE.link,
                divergence_half_angle=float(rng.uniform(2e-6, 8e-6)),
                pointing_jitter_rms=float(rng.uniform(0.0, 3e-6)),
                receiver_radius=float(rng.uniform(0.3, 0.7)),
                zenith_transmission=float(rng.uniform(0.5, 0.95)),
                detector_efficiency=float(rng.uniform(0.3, 1.0)),
            )
            qkd = replace(
                BASELINE.qkd,
                channel_use_rate=float(rng.uniform(1e6, 1e9)),
                qber_x=e,
                qber_z=e,
                ec_inefficiency=float(rng.uniform(1.0, 1.2)),
                herald_probability=float(rng.uniform(0.1, 1.0)),
                mode_count=int(rng.integers(1, 200)),
            )
            cfg = replace(
                BASELINE,
                link=link,
                qkd=qkd,
                dual_elevation=float(rng.uniform(math.radians(10.0), math.pi / 2)),
                dual_slant_range=float(rng.uniform(600.0, 2400.0)),
                buffered_slant_range=float(rng.uniform(500.0, 1200.0)),
                eta_mem=float(rng.uniform(0.05, 1.0)),
            )
            result = scn.compare_scenarios(cfg)
            assert result.skr_dual > 0.0
            rate_ratio = result.skr_buffered / result.skr_dual
            eta_ratio = result.eta_buffered / result.eta_dual
            assert abs(rate_ratio / eta_ratio - 1.0) < 1e-9
        baseline = scn.compare_scenarios(BASELINE).gain
        assert abs(baseline - 111.0) <= 2.0


def test_criterion_04_buffer_time():
    with criterion(4, "buffer time for a 3267.9 km station separation is 463 +- 1 s"):
        t = geo.buffer_time(3267.9, BASELINE.orbit)
        assert abs(t - 463.0) <= 1.0


def test_criterion_05_multimode_capacity():
    with criterion(5, "multimode capacity of a 27 GHz comb at 96 MHz spacing is exactly 112"):
        assert afc.multimode_capacity(27e9, 96e6) == 112


def test_criterion_06_diffraction_oracle():
    with criterion(6, "closed-form collection equals adaptive polar quadrature to 1e-6 on a 10x10 grid"):
        t0 = time.perf_counter()
        worst = 0.0
        for l in np.linspace(100e3, 3000e3, 10):
            for sigma in np.linspace(0.0, 5e-6, 10):
                params = replace(BASELINE.link, pointing_jitter_rms=float(sigma))
                analytic = lb.collected_fraction(float(l), params)
                reference = references.collected_fraction_quadrature(float(l), params)
                worst = max(worst, abs(analytic - reference) / analytic)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6, f"worst relative disagreement {worst:.3e}"
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_07_pde_property_suite():
    with criterion(7, "spin-dynamics properties: exchange, conservation, wall losses, convergence"):
        t0 = time.perf_counter()
        radius = 0.01

        def bare(j=0.0, d_a=0.0, d_b=0.0):
            return EnsembleParams(
                exchange_coupling=j, alkali_decay=0.0, noble_decay=0.0,
                alkali_detuning=0.0, noble_detuning=0.0,
                alkali_diffusion=d_a, noble_diffusion=d_b, optical_decay=0.0,
            )

        # (a) lossless exchange reaches |K|^2 = 1 at T' and returns at the full period
        grid = sd.RadialGrid(radius, 32)
        ens = bare(j=1.0)
        traj = sd.integrate(
            sd.initial_state(grid), sd.ProtocolSchedule(dark_interval=0.0), ens, grid,
            sample_times=np.linspace(0.0, math.pi, 41),
        )
        norm_k = np.array([grid.volume_norm_sq(traj.noble[i]) for i in range(len(traj.times))])
        i_half = int(np.argmin(np.abs(traj.times - math.pi / 2)))
        assert abs(norm_k[i_half] - 1.0) < 1e-4
        assert abs(grid.volume_norm_sq(traj.alkali[-1]) - 1.0) < 1e-3
        assert np.max(np.abs(norm_k - np.sin(traj.times) ** 2)) < 1e-3

        # (b) lossless norm conservation across control and exchange windows
        sched_b = sd.ProtocolSchedule(
            write_time=0.6, dark_interval=0.4, read_time=0.3,
            rabi_frequency=2.0, exchange_window=0.8,
        )
        ens_b = bare(j=1.0)
        total_b = sd.schedule_duration(sched_b, ens_b)
        traj_b = sd.integrate(sd.initial_state(grid), sched_b, ens_b, grid,
                              sample_times=np.linspace(0.0, total_b, 25))
        norms = (np.abs(traj_b.optical) ** 2 + np.abs(traj_b.alkali) ** 2
                 + np.abs(traj_b.noble) ** 2) @ grid.shell_volumes
        assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-6

        # (c) destructive-wall fundamental decay rate within 2% of D (pi/R)^2
        d_a = 1.02e-8
        grid_c = sd.RadialGrid(radius, 128)
        traj_c = sd.integrate(
            sd.initial_state(grid_c, "fundamental-mode"),
            sd.ProtocolSchedule(dark_interval=1000.0, exchange_window=0.0),
            bare(d_a=d_a), grid_c, sample_times=np.array([400.0, 900.0]),
        )
        n1 = math.sqrt(grid_c.volume_norm_sq(traj_c.alkali[int(np.argmin(np.abs(traj_c.times - 400.0)))]))
        n2 = math.sqrt(grid_c.volume_norm_sq(traj_c.alkali[int(np.argmin(np.abs(traj_c.times - 900.0)))]))
        rate = math.log(n1 / n2) / 500.0
        target = d_a * (math.pi / radius) ** 2
        assert abs(rate - target) / target < 0.02

        # (d) reflective-wall linear moment conserved to 1e-8
        grid_d = sd.RadialGrid(radius, 128)
        k0 = (1.0 + np.cos(math.pi * grid_d.nodes / radius)).astype(np.complex128)
        state_d = sd.SpinFieldState(np.zeros_like(k0), np.zeros_like(k0), k0)
        traj_d = sd.integrate(
            state_d, sd.ProtocolSchedule(dark_interval=600.0, exchange_window=0.0),
            bare(d_b=2.05e-8), grid_d, sample_times=np.array([600.0]),
        )
        moment0 = np.dot(grid_d.shell_volumes, k0)
        drift = abs(np.dot(grid_d.shell_volumes, traj_d.noble[-1]) - moment0)
        assert drift / abs(moment0) < 1e-8

        # (e) observed spatial order 2.0 +- 0.2 against an N = 512 reference
        horizon = 400.0
        sched_e = sd.ProtocolSchedule(dark_interval=horizon, exchange_window=0.0)

        def decay_factor(n):
            g = sd.RadialGrid(radius, n)
            s0 = sd.initial_state(g)
            out = sd.integrate(s0, sched_e, bare(d_a=d_a), g, sample_times=np.array([horizon]))
            return g.volume_norm_sq(out.alkali[-1]) / g.volume_norm_sq(s0.alkali)

        ref = decay_factor(512)
        errors = {n: abs(decay_factor(n) - ref) for n in (32, 64, 128)}
        order_low = math.log2(errors[32] / errors[64])
        order_high = math.log2(errors[64] / errors[128])
        assert 1.8 <= order_low <= 2.2, f"observed order {order_low:.2f}"
        assert 1.8 <= order_high <= 2.2, f"observed order {order_high:.2f}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"


def test_criterion_08_analytic_memory_chain():
    with criterion(8, "analytic memory factors 0.9525 and 0.9497 within 1e-4; saturated 0.9046 +- 1e-3"):
        ens = ensemble_params(RunConfig(), "paper-literal")
        spin_factor = math.exp(-math.pi * ens.alkali_decay / ens.exchange_coupling)
        assert spin_factor == pytest.approx(0.9525, abs=1e-4)
        comb_factor = afc.comb_dephasing_factor(8.0)
        assert comb_factor == pytest.approx(0.9497, abs=1e-4)
        saturated = afc.ControlPulse(duration=1.0, rabi_frequency=1e6)
        eta_m = afc.total_memory_efficiency(saturated, ens, afc.AFCParams())
        assert eta_m == pytest.approx(0.9046, abs=1e-3)


def test_criterion_09_structure_and_properties():
    with criterion(9, "map monotonicity, baseline gain >= 100, entropy symmetry and clamping (1000 cases)"):
        cfg = BASELINE
        ranges = np.linspace(500.0, 2500.0, 21)
        jitters = np.linspace(0.0, 5e-6, 21)
        downlink = scn.downlink_probability_map(ranges, jitters, cfg)
        assert np.all(np.diff(downlink, axis=0) < 0)
        assert np.all(np.diff(downlink, axis=1) < 0)

        elevations = np.radians(np.linspace(20.0, 90.0, 15))
        memories = np.linspace(0.1, 1.0, 19)
        gains = scn.gain_map(elevations, memories, cfg)
        assert np.all(np.diff(gains, axis=0) > 0)
        assert np.all(np.diff(gains, axis=1) > 0)
        baseline = scn.gain_map(np.array([math.pi / 2]), np.array([0.74]), cfg)[0][0]
        assert baseline >= 100.0

        rng = np.random.default_rng(99)
        for _ in range(1000):
            e = float(rng.uniform(0.0, 1.0))
            assert skr.binary_entropy(e) == pytest.approx(skr.binary_entropy(1.0 - e), abs=1e-12)
            q = replace(
                BASELINE.qkd,
                qber_x=float(rng.uniform(0.0, 0.5)),
                qber_z=float(rng.uniform(0.0, 0.5)),
                ec_inefficiency=float(rng.uniform(1.0, 2.0)),
            )
            y = float(rng.uniform(0.0, 1.0))
            r = skr.key_fraction(y, q)
            assert r >= 0.0
            bracket = skr.key_bracket(q)
            if bracket <= 0.0:
                assert r == 0.0
            else:
                assert r == pytest.approx(0.5 * y * bracket, rel=1e-12, abs=1e-300)


def test_criterion_10_byte_deterministic_artifacts(run_cli, tmp_path):
    with criterion(10, "scenario and linkmap artifacts are byte-identical across reruns"):
        for name, args in {
            "scenario": ["scenario", "--format", "text"],
            "linkmap": ["linkmap", "--range-steps", 11, "--jitter-steps", 6],
        }.items():
            out1 = tmp_path / f"{name}_1"
            out2 = tmp_path / f"{name}_2"
            assert run_cli(*args, "--out", out1).returncode == 0
            assert run_cli(*args, "--out", out2).returncode == 0
            artifacts = sorted(p.name for p in out1.iterdir())
            assert artifacts == sorted(p.name for p in out2.iterdir())
            for artifact in artifacts:
                assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), artifact
