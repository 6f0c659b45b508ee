import math

import numpy as np
import pytest

from satqlink import spindyn as sd
from satqlink.afc import EnsembleParams
from satqlink.config import RunConfig, ensemble_params
from satqlink.formatting import csv_float

R = 0.01


def lossless(j=1.0):
    return EnsembleParams(
        exchange_coupling=j,
        alkali_decay=0.0,
        noble_decay=0.0,
        alkali_detuning=0.0,
        noble_detuning=0.0,
        alkali_diffusion=0.0,
        noble_diffusion=0.0,
        optical_decay=0.0,
    )


def diffusion_only(d_a=0.0, d_b=0.0):
    return EnsembleParams(
        exchange_coupling=0.0,
        alkali_decay=0.0,
        noble_decay=0.0,
        alkali_detuning=0.0,
        noble_detuning=0.0,
        alkali_diffusion=d_a,
        noble_diffusion=d_b,
        optical_decay=0.0,
    )


# ---------------------------------------------------------------------------
# grid and Laplacian


def test_grid_geometry():
    g = sd.RadialGrid(R, 64)
    assert g.spacing == R / 64
    assert np.all(g.nodes > 0.0) and np.all(g.nodes < R)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.shell_volumes.sum() == pytest.approx(R ** 3 / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        sd.RadialGrid(R, 8)
    with pytest.raises(ValueError):
        sd.RadialGrid(0.0, 64)


def test_laplacian_constant_neumann_is_zero():
    g = sd.RadialGrid(R, 48)
    lap = sd.radial_laplacian(np.full(48, 2.5), g, "neumann")
    assert np.all(lap == 0.0)


def test_laplacian_of_r_squared():
    # lap(r^2) = 6; the flux form reproduces it exactly away from the wall
    g = sd.RadialGrid(R, 64)
    lap = sd.radial_laplacian(g.nodes ** 2, g, "neumann")
    assert np.max(np.abs(lap[:-1] - 6.0)) < 1e-8
    # the wall cell sees the mirror ghost instead of the true continuation
    assert abs(lap[-1] - 6.0) > 1.0


def test_laplacian_fundamental_mode_second_order():
    # interior residual against the exact eigenvalue shrinks by ~4x per refinement
    errs = {}
    for n in (64, 128, 256):
        g = sd.RadialGrid(R, n)
        x = math.pi * g.nodes / R
        f = np.sin(x) / x
        res = sd.radial_laplacian(f, g, "dirichlet") + (math.pi / R) ** 2 * f
        errs[n] = np.max(np.abs(res[:-1]))
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.2)
    assert errs[128] / errs[256] == pytest.approx(4.0, rel=0.2)


def test_laplacian_errors():
    g = sd.RadialGrid(R, 32)
    with pytest.raises(ValueError):
        sd.radial_laplacian(np.ones(31), g, "dirichlet")
    with pytest.raises(ValueError):
        sd.radial_laplacian(np.ones(32), g, "periodic")


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_fixed_point():
    g = sd.RadialGrid(R, 32)
    state = sd.initial_state(g)
    dp, ds, dk = sd.rhs(state, lossless(j=0.0), g, control_rabi=0.0, exchange_coupling=0.0)
    assert np.all(dp == 0) and np.all(ds == 0) and np.all(dk == 0)


def test_rhs_exchange_term():
    g = sd.RadialGrid(R, 32)
    state = sd.initial_state(g)
    _, ds, dk = sd.rhs(state, lossless(j=2.0), g)
    assert np.allclose(dk, -2.0j * state.alkali)
    assert np.allclose(ds, 0.0)  # K is empty, no back action yet


def test_phase_operator_matches_public_rhs():
    # the assembled phase operator must implement exactly the public equations
    g = sd.RadialGrid(R, 32)
    rng = np.random.default_rng(3)
    p, s, k = (
        rng.normal(size=32) + 1j * rng.normal(size=32) for _ in range(3)
    )
    ens = EnsembleParams(
        exchange_coupling=0.7, alkali_decay=1e-3, noble_decay=2e-4,
        alkali_detuning=0.3, noble_detuning=0.1,
        alkali_diffusion=1e-8, noble_diffusion=2e-8, optical_decay=0.5,
    )
    state = sd.SpinFieldState(optical=p, alkali=s, noble=k)
    dp, ds, dk = sd.rhs(state, ens, g, control_rabi=1.1, exchange_coupling=0.7,
                        comb_detuning=0.2)
    a = sd._phase_operator(ens, g, 1.1, 0.7, comb_detuning=0.2)
    applied = (a @ np.stack((p, s, k), axis=1).ravel()).reshape(32, 3)
    assert np.allclose(applied[:, 0], dp, rtol=1e-14, atol=0)
    assert np.allclose(applied[:, 1], ds, rtol=1e-14, atol=0)
    assert np.allclose(applied[:, 2], dk, rtol=1e-14, atol=0)


def test_phase_operator_diffusion_blocks_match_laplacian():
    g = sd.RadialGrid(R, 32)
    f = np.random.default_rng(5).normal(size=32)
    a = sd._phase_operator(diffusion_only(d_a=1.0, d_b=1.0), g, 0.0, 0.0)
    for field, bc in ((1, "dirichlet"), (2, "neumann")):
        block = a[field::3, field::3]
        assert np.allclose(block @ f, sd.radial_laplacian(f, g, bc), rtol=1e-14, atol=0)


def test_rhs_pure_decay():
    g = sd.RadialGrid(R, 32)
    ens = EnsembleParams(
        exchange_coupling=0.0, alkali_decay=0.25, noble_decay=0.0,
        alkali_detuning=0.0, noble_detuning=0.0,
        alkali_diffusion=0.0, noble_diffusion=0.0, optical_decay=0.0,
    )
    sched = sd.ProtocolSchedule(dark_interval=4.0, exchange_window=0.0)
    state0 = sd.initial_state(g)
    traj = sd.integrate(state0, sched, ens, g, sample_times=np.linspace(0, 4, 9))
    for i, t in enumerate(traj.times):
        expected = math.exp(-2.0 * 0.25 * t)  # norm^2 decays at twice the amplitude rate
        assert g.volume_norm_sq(traj.alkali[i]) == pytest.approx(expected, rel=1e-7)


# ---------------------------------------------------------------------------
# integration properties


def test_exchange_rabi_oscillation():
    g = sd.RadialGrid(R, 32)
    ens = lossless(j=1.0)
    sched = sd.ProtocolSchedule(dark_interval=0.0)  # two windows of pi/2 each
    samples = np.linspace(0.0, math.pi, 81)
    traj = sd.integrate(sd.initial_state(g), sched, ens, g, sample_times=samples)
    norm_k = np.array([g.volume_norm_sq(traj.noble[i]) for i in range(len(traj.times))])
    assert np.max(np.abs(norm_k - np.sin(traj.times) ** 2)) < 1e-3
    i_half = int(np.argmin(np.abs(traj.times - math.pi / 2)))
    assert norm_k[i_half] == pytest.approx(1.0, abs=1e-4)
    # back in the alkali mode after the full period
    assert g.volume_norm_sq(traj.alkali[-1]) == pytest.approx(1.0, abs=1e-3)


def test_three_field_norm_conservation():
    g = sd.RadialGrid(R, 32)
    ens = lossless(j=1.3)
    sched = sd.ProtocolSchedule(
        write_time=0.7, dark_interval=0.5, read_time=0.4,
        rabi_frequency=3.0, exchange_window=0.9,
    )
    total = sd.schedule_duration(sched, ens)
    traj = sd.integrate(sd.initial_state(g), sched, ens, g,
                        sample_times=np.linspace(0, total, 40))
    norms = [traj.state_at(i).total_norm_sq(g) for i in range(len(traj.times))]
    assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-6


def test_optical_alkali_rabi_validation_mode():
    # load the optical field instead and drive it with the control
    g = sd.RadialGrid(R, 32)
    ens = lossless(j=0.0)
    omega = 2.0
    p0 = np.ones(32, dtype=np.complex128)
    p0 /= math.sqrt(g.volume_norm_sq(p0))
    state0 = sd.SpinFieldState(optical=p0, alkali=np.zeros_like(p0), noble=np.zeros_like(p0))
    sched = sd.ProtocolSchedule(write_time=1.5, rabi_frequency=omega, exchange_window=0.0)
    samples = np.linspace(0.0, 1.5, 16)
    traj = sd.integrate(state0, sched, ens, g, sample_times=samples)
    for i, t in enumerate(traj.times):
        assert g.volume_norm_sq(traj.alkali[i]) == pytest.approx(
            math.sin(omega * t) ** 2, abs=1e-7
        )


def test_norm_never_increases_with_losses():
    g = sd.RadialGrid(R, 32)
    ens = EnsembleParams(
        exchange_coupling=0.5, alkali_decay=1e-3, noble_decay=1e-4,
        alkali_detuning=0.2, noble_detuning=0.1,
        alkali_diffusion=1e-8, noble_diffusion=2e-8, optical_decay=0.0,
    )
    sched = sd.ProtocolSchedule(dark_interval=3.0)
    total = sd.schedule_duration(sched, ens)
    traj = sd.integrate(sd.initial_state(g), sched, ens, g,
                        sample_times=np.linspace(0, total, 30))
    norms = np.array([traj.state_at(i).total_norm_sq(g) for i in range(len(traj.times))])
    assert np.all(np.diff(norms) < 1e-9)


def test_dirichlet_fundamental_decay_rate():
    ens = diffusion_only(d_a=1.02e-8)
    g = sd.RadialGrid(R, 128)
    sched = sd.ProtocolSchedule(dark_interval=1000.0, exchange_window=0.0)
    traj = sd.integrate(sd.initial_state(g, "fundamental-mode"), sched, ens, g,
                        sample_times=np.array([400.0, 900.0]))
    n1 = math.sqrt(g.volume_norm_sq(traj.alkali[int(np.argmin(np.abs(traj.times - 400.0)))]))
    n2 = math.sqrt(g.volume_norm_sq(traj.alkali[int(np.argmin(np.abs(traj.times - 900.0)))]))
    rate = math.log(n1 / n2) / 500.0
    target = 1.02e-8 * (math.pi / R) ** 2
    assert abs(rate - target) / target < 0.02


def test_dirichlet_norm_decays_monotonically():
    ens = diffusion_only(d_a=1.02e-8)
    g = sd.RadialGrid(R, 64)
    sched = sd.ProtocolSchedule(dark_interval=600.0, exchange_window=0.0)
    traj = sd.integrate(sd.initial_state(g), sched, ens, g,
                        sample_times=np.linspace(0.0, 600.0, 25))
    norms = [g.volume_norm_sq(traj.alkali[i]) for i in range(len(traj.times))]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_neumann_moment_conserved():
    ens = diffusion_only(d_b=2.05e-8)
    g = sd.RadialGrid(R, 128)
    k0 = (1.0 + np.cos(math.pi * g.nodes / R)).astype(np.complex128)
    state0 = sd.SpinFieldState(np.zeros_like(k0), np.zeros_like(k0), k0)
    sched = sd.ProtocolSchedule(dark_interval=600.0, exchange_window=0.0)
    traj = sd.integrate(state0, sched, ens, g, sample_times=np.array([600.0]))
    m0 = g.volume_integral(k0)
    m1 = g.volume_integral(traj.noble[-1])
    assert abs(m1 - m0) / abs(m0) < 1e-8
    # the norm does change, through profile flattening only
    assert g.volume_norm_sq(traj.noble[-1]) < g.volume_norm_sq(k0)


def test_spatial_convergence_against_fine_reference():
    # second order: doubling the resolution cuts the error ~4x vs N=1024
    ens = diffusion_only(d_a=1.02e-8)
    horizon = 200.0
    sched = sd.ProtocolSchedule(dark_interval=horizon, exchange_window=0.0)

    def decay_factor(n):
        g = sd.RadialGrid(R, n)
        s0 = sd.initial_state(g)
        traj = sd.integrate(s0, sched, ens, g, sample_times=np.array([horizon]))
        return g.volume_norm_sq(traj.alkali[-1]) / g.volume_norm_sq(s0.alkali)

    ref = decay_factor(1024)
    e64 = abs(decay_factor(64) - ref)
    e128 = abs(decay_factor(128) - ref)
    assert e64 / e128 == pytest.approx(4.0, rel=0.2)


def test_tolerance_refinement_consistency():
    g = sd.RadialGrid(R, 32)
    ens = lossless(j=1.0)
    sched = sd.ProtocolSchedule(dark_interval=0.3)
    coarse = sd.SolverConfig(relative_tolerance=1e-6, absolute_tolerance=1e-8)
    fine = sd.SolverConfig(relative_tolerance=1e-9, absolute_tolerance=1e-11)
    t_end = sd.schedule_duration(sched, ens)
    a = sd.integrate(sd.initial_state(g), sched, ens, g, coarse, np.array([t_end]))
    b = sd.integrate(sd.initial_state(g), sched, ens, g, fine, np.array([t_end]))
    scale = np.max(np.abs(b.alkali[-1]))
    assert np.max(np.abs(a.alkali[-1] - b.alkali[-1])) / scale < 1e-6


# ---------------------------------------------------------------------------
# protocol runs


def test_protocol_lossless_round_trip():
    g = sd.RadialGrid(R, 32)
    res = sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(dark_interval=2.0), g)
    assert res.eta_mem == pytest.approx(1.0, abs=1e-6)


def test_protocol_decoupled_limit():
    # no exchange channel: the alkali load just decays; K never populates
    gamma_s = 5e-4
    ens = EnsembleParams(
        exchange_coupling=0.0, alkali_decay=gamma_s, noble_decay=0.0,
        alkali_detuning=0.0, noble_detuning=0.0,
        alkali_diffusion=0.0, noble_diffusion=0.0, optical_decay=0.0,
    )
    sched = sd.ProtocolSchedule(dark_interval=300.0, exchange_window=25.0)
    g = sd.RadialGrid(R, 32)
    res = sd.simulate_protocol(ens, sched, g)
    t_ret = res.retrieval_time
    assert res.eta_mem == pytest.approx(math.exp(-2.0 * gamma_s * t_ret), rel=1e-6)
    assert np.max(res.kymograph_noble) == 0.0


def test_protocol_full_buffer_interval():
    # literal decay rates with the rescaled coupling over the full 463 s
    # storage; the retrieved efficiency is reported, not pinned
    ens = EnsembleParams(
        exchange_coupling=0.2, alkali_decay=3.1e-7, noble_decay=0.0,
        alkali_detuning=0.0, noble_detuning=1.11e-3,
        alkali_diffusion=1.02e-8, noble_diffusion=2.05e-8,
        optical_decay=0.0,
    )
    g = sd.RadialGrid(R, 64)
    res = sd.simulate_protocol(ens, sd.ProtocolSchedule(dark_interval=463.0), g,
                               time_samples=31)
    assert 0.0 < res.eta_mem < 1.0
    # storage leaves the excitation parked in the noble spin
    mid = int(np.argmin(np.abs(res.times - res.retrieval_time / 2.0)))
    assert res.kymograph_noble[mid].max() > res.kymograph_alkali[mid].max()


def test_protocol_kymograph_layout():
    g = sd.RadialGrid(R, 32)
    res = sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(dark_interval=1.0), g,
                               time_samples=41)
    assert res.kymograph_alkali.shape == (len(res.times), 32)
    assert res.kymograph_alkali[0].max() == pytest.approx(1.0, rel=1e-12)
    assert res.radii_over_r[0] > 0.0 and res.radii_over_r[-1] < 1.0
    assert np.all(np.diff(res.times) > 0)


def test_kymograph_csv_schema(tmp_path):
    g = sd.RadialGrid(R, 16)
    res = sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(dark_interval=0.5), g,
                               time_samples=5)
    path = tmp_path / "kymo.csv"
    sd.write_kymograph_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_seconds,r_over_R,S_norm,K_norm"
    assert len(lines) == 1 + len(res.times) * 16
    # row-major in time: the first block shares t = 0
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == second[0] == "0"
    assert float(second[1]) > float(first[1])


def test_kymograph_files_match_naive_reference(tmp_path):
    g = sd.RadialGrid(R, 16)
    res = sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(dark_interval=0.37), g,
                               time_samples=7)
    columns = {"S_norm": res.kymograph_alkali, "K_norm": res.kymograph_noble}
    for picked in (("S_norm",), ("K_norm",), ("S_norm", "K_norm")):
        lines = [",".join(("t_seconds", "r_over_R") + picked)]
        for i, t in enumerate(res.times):
            for j, r in enumerate(res.radii_over_r):
                values = [csv_float(float(columns[c][i, j])) for c in picked]
                lines.append(",".join([csv_float(float(t)), csv_float(float(r)), *values]))
        path = tmp_path / f"kymo_{len(picked)}_{picked[0]}.csv"
        sd.write_kymograph_csv(path, res, columns=picked)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_schedule_validation():
    for bad in (-1.0, math.nan):
        for name in ("write_time", "dark_interval", "read_time", "rabi_frequency"):
            with pytest.raises(ValueError):
                sd.ProtocolSchedule(**{name: bad})
    with pytest.raises(ValueError):
        sd.ProtocolSchedule(exchange_window=-0.1)
    with pytest.raises(ValueError):
        sd.ProtocolSchedule(exchange_window=math.nan)
    sched = sd.ProtocolSchedule()
    with pytest.raises(ValueError):
        sched.resolve_exchange_window(lossless(j=0.0))
    assert sched.resolve_exchange_window(lossless(j=2.0)) == pytest.approx(math.pi / 4.0)


def test_solver_config_validation():
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            sd.SolverConfig(relative_tolerance=bad)
        with pytest.raises(ValueError):
            sd.SolverConfig(absolute_tolerance=bad)
    with pytest.raises(ValueError):
        sd.SolverConfig(initial_profile="gaussian")


def test_solver_failure_is_reported(monkeypatch):
    class _Failed:
        success = False
        message = "step size underflow"
        nfev, njev, nlu = 12, 3, 4

    real_solve_ivp = sd.solve_ivp
    calls = []

    def fail_second_phase(*args, **kwargs):
        calls.append(args[1])
        return real_solve_ivp(*args, **kwargs) if len(calls) == 1 else _Failed()

    monkeypatch.setattr(sd, "solve_ivp", fail_second_phase)
    g = sd.RadialGrid(R, 32)
    with pytest.raises(sd.SolverFailure) as info:
        sd.integrate(sd.initial_state(g), sd.ProtocolSchedule(dark_interval=1.0),
                     lossless(j=1.0), g)
    message = str(info.value)
    assert "step size underflow" in message
    assert "phase 2 of 3" in message
    assert f"t = {calls[1][0]:g} to {calls[1][1]:g} s" in message
    assert "nfev=12, njev=3, nlu=4" in message


# ---------------------------------------------------------------------------
# stiff regimes


@pytest.mark.parametrize(
    "preset, points, eta_rk45",
    [("rescaled", 64, 0.818446360423),
     ("rescaled", 256, 0.815442880106),
     ("lossless", 256, 1.0)],
)
def test_default_protocol_eta_matches_tight_rk45(preset, points, eta_rk45):
    # eta_rk45: RK45 at rtol 1e-12 / atol 1e-14 over the default 463 s protocol
    cfg = RunConfig()
    ens = ensemble_params(cfg, preset=preset)
    res = sd.simulate_protocol(ens, sd.ProtocolSchedule(dark_interval=463.0),
                               sd.RadialGrid(cfg.cell_radius_m, points), time_samples=2)
    assert abs(res.eta_mem - eta_rk45) < 1e-9


def test_three_field_stiff_optical_decay():
    # optical write and read at the rescaled preset's optical decay: the
    # polarization relaxes many orders of magnitude faster than the spins
    cfg = RunConfig()
    ens = ensemble_params(cfg, preset="rescaled")
    g = sd.RadialGrid(cfg.cell_radius_m, 32)
    sched = sd.ProtocolSchedule(write_time=1e-6, dark_interval=1.0, read_time=1e-6,
                                rabi_frequency=1e6)
    res = sd.simulate_protocol(ens, sched, g, time_samples=41)
    assert 0.0 <= res.eta_mem <= 1.0
    traj = res.trajectory
    norms = np.array([traj.state_at(i).total_norm_sq(g) for i in range(len(traj.times))])
    assert np.all(np.diff(norms) < 1e-9)
    assert norms[-1] < norms[0]
