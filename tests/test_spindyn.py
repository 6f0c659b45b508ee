import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import references
from satqlink import scenario as scn, spindyn as sd
from satqlink.spindyn import EnsembleParams
from satqlink.config import ConfigError, RunConfig, ensemble_params
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


def norms(traj, grid):
    """Volume-weighted |P|^2 + |S|^2 + |K|^2 at every sample of a trajectory."""
    fields = np.abs(traj.optical) ** 2 + np.abs(traj.alkali) ** 2 + np.abs(traj.noble) ** 2
    return fields @ grid.shell_volumes


def protocol_trajectory(ens, sched, grid, time_samples):
    """The trajectory that ``simulate_protocol`` samples, from ``integrate``."""
    samples = np.linspace(0.0, sd.schedule_duration(sched, ens), time_samples)
    return sd.integrate(sd.initial_state(grid), sched, ens, grid, sample_times=samples)


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
    dp, ds, dk = references.rhs(state, lossless(j=0.0), g, control_rabi=0.0, exchange_coupling=0.0)
    assert np.all(dp == 0) and np.all(ds == 0) and np.all(dk == 0)


def test_rhs_exchange_term():
    g = sd.RadialGrid(R, 32)
    state = sd.initial_state(g)
    _, ds, dk = references.rhs(state, lossless(j=2.0), g)
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
    dp, ds, dk = references.rhs(state, ens, g, control_rabi=1.1, exchange_coupling=0.7)
    a = references.assemble(sd._phase_operator(ens, 1.1, 0.7), g)
    applied = a @ np.stack((p, s, k), axis=1)
    assert np.allclose(applied[:, 0], dp, rtol=1e-14, atol=0)
    assert np.allclose(applied[:, 1], ds, rtol=1e-14, atol=0)
    assert np.allclose(applied[:, 2], dk, rtol=1e-14, atol=0)


def test_phase_operator_diffusion_blocks_match_laplacian():
    g = sd.RadialGrid(R, 32)
    f = np.random.default_rng(5).normal(size=32)
    a = references.assemble(sd._phase_operator(diffusion_only(d_a=1.0, d_b=1.0), 0.0, 0.0), g)
    for field, bc in ((1, "dirichlet"), (2, "neumann")):
        y = np.zeros((32, 3))
        y[:, field] = f
        applied = a @ y
        assert np.allclose(applied[:, field], sd.radial_laplacian(f, g, bc), rtol=1e-14, atol=0)
        assert not np.delete(applied, field, axis=1).any()


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
    boundaries = [0.0, math.pi / 2, math.pi]
    # the second set is unsorted, repeats times and names every phase boundary
    for samples in (np.linspace(0.0, math.pi, 81),
                    np.array([2.0, 0.3, math.pi / 2, 1.0, 0.3, math.pi, 0.0, 2.5, 1.0, math.pi / 2])):
        traj = sd.integrate(sd.initial_state(g), sched, ens, g, sample_times=samples)
        assert np.all(np.diff(traj.times) > 0.0)
        assert np.array_equal(traj.times, np.unique(np.concatenate((samples, boundaries))))
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
    assert np.max(np.abs(norms(traj, g) - 1.0)) < 1e-6


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
    assert np.all(np.diff(norms(traj, g)) < 1e-9)


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
    m0 = np.dot(g.shell_volumes, k0)
    m1 = np.dot(g.shell_volumes, traj.noble[-1])
    assert abs(m1 - m0) / abs(m0) < 1e-8
    # the norm does change, through profile flattening only
    assert g.volume_norm_sq(traj.noble[-1]) < g.volume_norm_sq(k0)


def _storage_norm_factor(wall, n, horizon):
    """(scheme, series) of a field's volume-norm factor after ``horizon`` s of
    diffusion alone on n points: S from a uniform start under its Dirichlet
    wall, or K from the continuum's slowest mode under its Neumann wall."""
    g = sd.RadialGrid(R, n)
    if wall == "dirichlet":
        d, field, state = 1.02e-8, "alkali", sd.initial_state(g)
        exact = references.dirichlet_norm_factor(d, R, horizon)
    else:
        d, field, k1 = 2.05e-8, "noble", references.neumann_wavenumber(R)
        k = (np.sin(k1 * g.nodes) / (k1 * g.nodes)).astype(np.complex128)
        state = sd.SpinFieldState(np.zeros_like(k), np.zeros_like(k), k)
        exact = math.exp(-2.0 * d * k1 ** 2 * horizon)
    ens = diffusion_only(**{"d_a" if wall == "dirichlet" else "d_b": d})
    sched = sd.ProtocolSchedule(dark_interval=horizon, exchange_window=0.0)
    traj = getattr(sd.integrate(state, sched, ens, g, sample_times=np.array([horizon])), field)
    return g.volume_norm_sq(traj[-1]) / g.volume_norm_sq(traj[0]), exact


@pytest.mark.parametrize("wall, constant", [("dirichlet", 0.505), ("neumann", 0.532)])
def test_storage_converges_to_the_continuum_series(wall, constant):
    # the scheme's norm factor after 200 s against the continuum's, at
    # n = 64 ... 512: second order (observed orders 2.000 to 2.001), with
    # the error constant C of error = C / n^2 within 1 % (measured: C from
    # 0.50496 to 0.50538 under the Dirichlet wall, 0.53199 to 0.53207 under
    # the Neumann one)
    errors = []
    for n in (64, 128, 256, 512):
        scheme, exact = _storage_norm_factor(wall, n, 200.0)
        errors.append(scheme - exact)
        assert errors[-1] * n ** 2 == pytest.approx(constant, rel=0.01), n
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.05), orders


# (Omega, J) of a phase: storage switches neither coupling on, an optical
# window only the control, a transfer only the exchange
_COUPLINGS = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(0.1, 3.0), st.just(0.0)),
    st.tuples(st.just(0.0), st.floats(0.1, 3.0)),
)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    n=st.integers(16, 40),
    decays=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    detunings=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    diffusions=st.tuples(st.floats(0.0, 1e-6), st.floats(0.0, 1e-6)),
    couplings=_COUPLINGS,
    duration=st.floats(1e-3, 2.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
# a paper-literal transfer, a 100 us write window at 1e9 s^-1 and a transfer
# without diffusion
@example(n=16, decays=(2.0 * math.pi * 5.96e6, 3.1e-7, 0.0), detunings=(0.0, 1.11e-3),
         diffusions=(1.02e-8, 2.05e-8), couplings=(0.0, 2e-5), duration=math.pi / 4e-5, seed=0)
@example(n=16, decays=(2.0 * math.pi * 5.96e6, 3.1e-7, 0.0), detunings=(0.0, 1.11e-3),
         diffusions=(1.02e-8, 2.05e-8), couplings=(1e9, 0.0), duration=1e-4, seed=1)
@example(n=32, decays=(0.0, 3.1e-7, 0.0), detunings=(0.0, 1.11e-3),
         diffusions=(0.0, 0.0), couplings=(0.0, 0.2), duration=math.pi / 0.4, seed=2)
def test_propagators_agree_with_group_expm(n, decays, detunings, diffusions, couplings, duration, seed):
    # storage, transfers and optical windows (exact modal propagators)
    # against a dense expm of each coupled group of the assembled operator,
    # on all three fields at once, to 1e-11 of the initial volume norm:
    # 3.7e-13 off on the paper-literal transfer, at most 2.7e-15 on the
    # others; with 24 Talbot nodes instead of 32 the paper-literal transfer
    # is 1.4e-11 off and fails
    omega, j = couplings
    g = sd.RadialGrid(R, n)
    ens = EnsembleParams(
        exchange_coupling=j, optical_decay=decays[0], alkali_decay=decays[1],
        noble_decay=decays[2], alkali_detuning=detunings[0], noble_detuning=detunings[1],
        alkali_diffusion=diffusions[0], noble_diffusion=diffusions[1],
    )
    phase = sd._phase_operator(ens, omega, j)
    rng = np.random.default_rng(seed)
    y0 = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    t0 = 1.0
    t_eval = t0 + duration * np.array([0.3, 0.7, 1.0])
    exact = sd._propagate(phase, sd._groups(*phase, "phase"), g, y0, t0, t_eval, "phase")
    dense = references.expm_propagate(phase, g, y0, t_eval - t0)

    def volume_norm(y):
        return math.sqrt(np.sum(g.shell_volumes[:, None] * np.abs(y) ** 2))

    for got, want in zip(exact, dense):
        assert volume_norm(got - want) <= 1e-11 * volume_norm(y0)


def test_propagate_rejects_a_phase_with_both_couplings():
    # no schedule phase switches on the control and the exchange together;
    # the groups that every propagation takes refuse one
    phase = sd._phase_operator(lossless(j=1.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="phase 1 of 1 switches on both the control and the exchange"):
        sd._groups(*phase, "phase 1 of 1")


def test_norm1_is_the_largest_column_sum_of_the_assembled_operator():
    # the negligible-phase check's ||A||_1, against the dense A column by column
    n = 16
    g = sd.RadialGrid(R, n)
    ens = EnsembleParams(
        exchange_coupling=0.7, alkali_decay=1e-3, noble_decay=2e-4,
        alkali_detuning=0.3, noble_detuning=0.1,
        alkali_diffusion=1e-8, noble_diffusion=2e-8, optical_decay=0.5,
    )
    for omega, j in ((0.0, 0.0), (1.1, 0.0), (0.0, 0.7)):
        phase = sd._phase_operator(ens, omega, j)
        a = references.assemble(phase, g)
        dense = np.stack([(a @ unit.reshape(n, 3)).ravel() for unit in np.eye(3 * n)], axis=1)
        assert sd._norm1(phase, g) == pytest.approx(np.abs(dense).sum(axis=0).max(), rel=1e-14)


# ---------------------------------------------------------------------------
# protocol runs


def test_protocol_lossless_round_trip():
    g = sd.RadialGrid(R, 32)
    res = sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(dark_interval=2.0), g,
                               time_samples=201)
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
    res = sd.simulate_protocol(ens, sched, g, time_samples=201)
    t_ret = sd.retrieval_instant(sched, ens)
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
    sched = sd.ProtocolSchedule(dark_interval=463.0)
    res = sd.simulate_protocol(ens, sched, g, time_samples=31)
    assert 0.0 < res.eta_mem < 1.0
    # storage leaves the excitation parked in the noble spin
    mid = int(np.argmin(np.abs(res.times - sd.retrieval_instant(sched, ens) / 2.0)))
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
    sd.write_kymograph_csv(tmp_path, res)
    lines = (tmp_path / "kymograph.csv").read_text().splitlines()
    assert lines[0] == "t_seconds,r_over_R,S_norm,K_norm"
    assert len(lines) == 1 + len(res.times) * 16
    # row-major in time: the first block shares t = 0
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == second[0] == "0"
    assert float(second[1]) > float(first[1])


def _assert_kymograph_files_match_naive_reference(out_dir, res):
    columns = {"S_norm": res.kymograph_alkali, "K_norm": res.kymograph_noble}
    for name, picked in (("kymograph_s.csv", ("S_norm",)), ("kymograph_k.csv", ("K_norm",)),
                         ("kymograph.csv", ("S_norm", "K_norm"))):
        lines = [",".join(("t_seconds", "r_over_R") + picked)]
        for i, t in enumerate(res.times):
            for j, r in enumerate(res.radii_over_r):
                values = [csv_float(float(columns[c][i, j])) for c in picked]
                lines.append(",".join([csv_float(float(t)), csv_float(float(r)), *values]))
        assert (out_dir / name).read_bytes() == ("\n".join(lines) + "\n").encode(), name


def test_kymograph_files_match_naive_reference(tmp_path):
    g = sd.RadialGrid(R, 16)
    res = sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(dark_interval=0.37), g,
                               time_samples=7)
    sd.write_kymograph_csv(tmp_path, res)
    _assert_kymograph_files_match_naive_reference(tmp_path, res)


# Values whose text is easy to get wrong: both zeros (which compare equal but
# print as 0 and -0), NaN (which compares unequal to itself), subnormals and
# the extremes.
_KYMO_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3.0, 1e300, 1.0, math.nan,
                     math.inf]),
    st.floats(),
)


@st.composite
def _plateau_kymographs(draw):
    """(S rows, K rows) built step by step: a fresh row, a repeat of the
    row before, that row with the sign of each zero of S flipped, or that
    row with one K node changed to a value that prints differently."""
    n = draw(st.integers(1, 4))
    row = st.lists(_KYMO_VALUE, min_size=n, max_size=n)
    s_rows, k_rows = [draw(row)], [draw(row)]
    steps = ("fresh", "repeat", "flip zeros of S", "change one K node")
    for step in draw(st.lists(st.sampled_from(steps), max_size=8)):
        s, k = list(s_rows[-1]), list(k_rows[-1])
        if step == "fresh":
            s, k = draw(row), draw(row)
        elif step == "flip zeros of S":
            s = [-x if x == 0.0 else x for x in s]
        elif step == "change one K node":
            j = draw(st.integers(0, n - 1))
            k[j] = draw(_KYMO_VALUE.filter(lambda v, old=csv_float(k[j]): csv_float(v) != old))
        s_rows.append(s)
        k_rows.append(k)
    return s_rows, k_rows


def _synthetic_result(s_rows, k_rows):
    nt, n = len(s_rows), len(s_rows[0])
    return sd.ProtocolResult(
        times=np.linspace(0.0, 1.0, nt), radii_over_r=(np.arange(n) + 0.5) / n,
        kymograph_alkali=np.array(s_rows, dtype=float), kymograph_noble=np.array(k_rows, dtype=float),
        eta_mem=1.0,
    )


@settings(max_examples=80, derandomize=True, deadline=None)
@given(kymographs=_plateau_kymographs())
# a zero changes sign between equal-comparing rows; only K changes
@example(kymographs=([[0.0, 1.0]] * 2 + [[-0.0, 1.0]] * 2, [[0.5, 0.5]] * 4))
@example(kymographs=([[0.25, 1e300]] * 3, [[0.5, 5e-324], [0.5, 5e-324], [0.5, 0.0]]))
@example(kymographs=([[math.nan]] * 3, [[2.2250738585072014e-308 / 3.0]] * 3))
def test_kymograph_writer_reuses_plateau_rows_exactly(kymographs):
    # the map writers share the plateau reuse, so each field's rows also go
    # through one of them, on the kymograph's axes
    res = _synthetic_result(*kymographs)
    with tempfile.TemporaryDirectory() as out:
        sd.write_kymograph_csv(Path(out), res)
        _assert_kymograph_files_match_naive_reference(Path(out), res)
        for rows in kymographs:
            path = Path(out) / "linkmap.csv"
            scn.linkmap_csv(res.times, res.radii_over_r, scn.Grid(rows), path)
            assert path.read_bytes() == references.naive_grid_csv(
                "slant_range_km,pointing_jitter_urad,success_probability",
                res.times.tolist(), [float(r) * 1e6 for r in res.radii_over_r], np.array(rows),
            ).encode()


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
    g = sd.RadialGrid(R, 16)
    with pytest.raises(ValueError, match="initial_profile"):
        sd.initial_state(g, "gaussian")
    with pytest.raises(ValueError, match="initial_profile"):
        sd.simulate_protocol(lossless(j=1.0), sd.ProtocolSchedule(), g, "gaussian",
                             time_samples=2)


@pytest.mark.parametrize("storage, window", [(1e-300, 1.0), (1.0, 1e-200), (1.0, 1e-16)])
def test_phases_too_short_to_step(storage, window):
    # a storage below the resolution of its start time, a transfer near the
    # underflow range, a reverse transfer that rounds away: none is stepped
    g = sd.RadialGrid(R, 16)
    sched = sd.ProtocolSchedule(dark_interval=storage, exchange_window=window)
    res = sd.simulate_protocol(lossless(j=1.0), sched, g, time_samples=5)
    assert abs(res.eta_mem - math.cos(2.0 * window) ** 2) < 1e-9
    assert np.all(np.diff(res.times) > 0)


def test_transfer_step_cap_counts_the_contour_steps(monkeypatch):
    # the rescaled default transfer is stepped in ceil(7.85 s / 3.74 s) = 3
    # contour steps, each way; a cap of 3 lets it run, a cap of 2 refuses it
    # before the first step
    g = sd.RadialGrid(R, 16)
    ens = ensemble_params(RunConfig(), "rescaled")
    sched = sd.ProtocolSchedule(dark_interval=1.0)
    steps = []
    contour_step = sd._contour_step

    def counted(blocks, wall, h):
        step = contour_step(blocks, wall, h)
        return lambda x: steps.append(h) or step(x)

    monkeypatch.setattr(sd, "_contour_step", counted)
    monkeypatch.setattr(sd, "_MAX_CONTOUR_STEPS", 3)
    sd.integrate(sd.initial_state(g), sched, ens, g)
    assert len(steps) == 6
    steps.clear()
    monkeypatch.setattr(sd, "_MAX_CONTOUR_STEPS", 2)
    with pytest.raises(ConfigError, match="phase 1 of 3, a 7.85398 s transfer, needs more than 2 contour steps"):
        sd.integrate(sd.initial_state(g), sched, ens, g)
    assert not steps


_WINDOW = [([0, 1], "dirichlet", None), ([2], "neumann", None)]
_STORAGE = [([0], None, None), ([1], "dirichlet", None), ([2], "neumann", None)]


def _transfer(steps):
    return [([0], None, None), ([1, 2], "neumann", steps)]


@pytest.mark.parametrize(("preset", "timing", "expected", "longest_step", "eigh_calls"), [
    ("rescaled", {}, [_transfer(3), _STORAGE, _transfer(3)], 3.7396, 2),
    ("paper-literal", {}, [_transfer(61), _STORAGE, _transfer(61)], 1304.35, 2),
    ("lossless", {}, [[([0], None, None), ([1, 2], None, None)],
                      [([0], None, None), ([1], None, None), ([2], None, None)],
                      [([0], None, None), ([1, 2], None, None)]], None, 0),
    ("rescaled", {"write_time": 1e-6, "read_time": 1e-6, "rabi_frequency": 1e6},
     [_WINDOW, _transfer(3), _STORAGE, _transfer(3), _WINDOW], 3.7396, 2),
], ids=["rescaled", "paper-literal", "lossless", "optical-windows"])
def test_plan_fixes_each_phase_before_any_eigenbasis(monkeypatch, preset, timing, expected, longest_step,
                                                     eigh_calls):
    # the memory command's plans: per phase, each coupled group's basis and
    # contour step count; the plan computes no eigenbasis, and the run then
    # computes one per distinct basis
    g = sd.RadialGrid(R, 16)
    ens = ensemble_params(RunConfig(), preset)
    sched = sd.ProtocolSchedule(dark_interval=463.0, **timing)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(len(matrix)) or eigh(matrix))
    plan, steps = [], []
    for where, t0, t_eval, phase, groups in sd._plan(sched, ens, g, np.array([])):
        plan.append([(fields, basis, longest and math.ceil((t_eval[-1] - t0) / longest))
                     for fields, basis, longest in groups])
        steps += [longest for _, _, longest in groups if longest is not None]
    assert plan == expected
    assert steps == pytest.approx([longest_step] * len(steps), rel=1e-5)
    assert not calls
    sd.simulate_protocol(ens, sched, g, time_samples=3)
    assert len(calls) == len({basis for groups in plan for _, basis, _ in groups} - {None}) == eigh_calls


def test_phase_boundaries_do_not_depend_on_sum(monkeypatch):
    # Python 3.12's sum() is compensated; a boundary summed by sum() would
    # differ in its last bit from the boundary integrate steps to, and the
    # sample grid would end past the schedule (478.70796326794897 s instead
    # of 478.7079632679489 s for the rescaled default)
    monkeypatch.setattr(sd, "sum", math.fsum, raising=False)
    g = sd.RadialGrid(R, 16)
    ens = ensemble_params(RunConfig(), "rescaled")
    sched = sd.ProtocolSchedule(dark_interval=463.0)
    traj = protocol_trajectory(ens, sched, g, 121)
    assert sd.schedule_duration(sched, ens) == traj.times[-1]
    assert sd.retrieval_instant(sched, ens) in traj.times.tolist()


def test_phase_below_the_time_resolution_is_rejected():
    # 1e-14 s is lost in t0 ~ 1e3 s, yet the 1e10 s^-1 drive would act on it
    g = sd.RadialGrid(R, 16)
    sched = sd.ProtocolSchedule(dark_interval=1e3, read_time=1e-14, rabi_frequency=1e10,
                                exchange_window=1.0)
    with pytest.raises(ValueError, match="time resolution"):
        sd.integrate(sd.initial_state(g), sched, lossless(j=1.0), g)


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
    traj = protocol_trajectory(ens, sched, g, 41)
    # the retrieval instant is the reverse transfer's phase boundary, bit for bit
    assert sd.retrieval_instant(sched, ens) in traj.times.tolist()
    total = norms(traj, g)
    assert np.all(np.diff(total) < 1e-9)
    assert total[-1] < total[0]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(16, 48),
    j=st.floats(0.0, 2.0),
    window=st.floats(0.0, 2.0),
    storage=st.floats(0.0, 5.0),
)
def test_lossless_protocol_is_an_exact_exchange_rotation(n, j, window, storage):
    # two transfers of angle J T' around a lossless storage interval
    g = sd.RadialGrid(R, n)
    sched = sd.ProtocolSchedule(dark_interval=storage, exchange_window=window)
    res = sd.simulate_protocol(lossless(j=j), sched, g, time_samples=5)
    assert abs(res.eta_mem - math.cos(2.0 * j * window) ** 2) < 1e-6
    traj = protocol_trajectory(lossless(j=j), sched, g, 5)
    assert np.max(np.abs(norms(traj, g) - 1.0)) < 1e-6
