import math

import pytest

from satqlink import afc
from satqlink.spindyn import EnsembleParams


def test_finesse():
    assert afc.finesse(afc.AFCParams()) == 8.0
    assert afc.finesse(afc.AFCParams(tooth_spacing=96e6, tooth_width=96e6)) == 1.0
    coarse = afc.AFCParams(
        total_bandwidth=1e9, tooth_spacing=100.0, tooth_width=25.0, homogeneous_linewidth=0.0
    )
    assert afc.finesse(coarse) == 4.0


def test_afc_params_validation_and_warning():
    with pytest.raises(ValueError):
        afc.AFCParams(tooth_width=0.0)
    with pytest.raises(ValueError):
        afc.AFCParams(tooth_spacing=10e6, tooth_width=12e6)  # width above spacing
    with pytest.warns(UserWarning):
        afc.AFCParams(tooth_width=11e6)  # below twice the 5.96 MHz linewidth


def test_multimode_capacity():
    assert afc.multimode_capacity(27e9, 96e6) == 112
    assert afc.multimode_capacity(2.5 * 96e6, 96e6) == 1
    assert afc.multimode_capacity(54e9, 96e6) == 225
    with pytest.raises(ValueError):
        afc.multimode_capacity(27e9, 0.0)


def test_reflection_coefficient():
    assert afc.reflection_coefficient(afc.CavityParams(1.0, 1.0)) == 0.0
    assert afc.reflection_coefficient(afc.CavityParams(1.0, 0.0)) == 1.0
    assert afc.reflection_coefficient(afc.CavityParams(3.0, 1.0)) == 0.5
    # sign antisymmetry under swapping decay and coupling
    for kappa, z in ((2.0, 0.5), (1.5, 3.0), (4.0, 4.0)):
        swapped = afc.reflection_coefficient(afc.CavityParams(z, kappa)) if z > 0 else None
        if swapped is not None:
            assert afc.reflection_coefficient(afc.CavityParams(kappa, z)) == pytest.approx(-swapped)
    assert afc.absorbed_fraction(afc.CavityParams(1.0, 1.0)) == 1.0


def test_optical_to_spin_efficiency():
    assert afc.optical_to_spin_efficiency(afc.ControlPulse(), 27e9) == 0.0
    gamma = 27e9
    omega = 1e6
    t_half = math.log(2.0) * gamma / (math.pi * omega ** 2)
    pulse = afc.ControlPulse(duration=t_half, rabi_frequency=omega)
    assert afc.optical_to_spin_efficiency(pulse, gamma) == pytest.approx(0.5, rel=1e-12)
    saturated = afc.ControlPulse(duration=1e3 * t_half, rabi_frequency=omega)
    assert afc.optical_to_spin_efficiency(saturated, gamma) == pytest.approx(1.0, abs=1e-12)


def test_exchange_transfer_efficiency():
    assert afc.exchange_transfer_efficiency(0.0, 2e-5) == 1.0
    assert afc.exchange_transfer_efficiency(3.1e-7, 2.0e-5) == pytest.approx(
        0.975946662573106, rel=1e-12
    )
    j = 2.0e-5
    assert afc.exchange_transfer_efficiency(2.0 * j * math.log(2.0) / math.pi, j) == pytest.approx(
        0.5, rel=1e-12
    )
    assert afc.exchange_transfer_efficiency(3.1e-7, 0.0) == 0.0


def test_comb_dephasing_factor():
    assert afc.comb_dephasing_factor(1e9) == pytest.approx(1.0, abs=1e-12)
    assert afc.comb_dephasing_factor(8.0) == pytest.approx(0.9496412035517837, rel=1e-12)
    assert afc.comb_dephasing_factor(1.0) == pytest.approx(0.0, abs=1e-30)
    fs = [1.5, 2.0, 4.0, 8.0, 16.0, 64.0]
    vals = [afc.comb_dephasing_factor(f) for f in fs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_total_memory_efficiency():
    ens = EnsembleParams()
    comb = afc.AFCParams()
    saturated = afc.ControlPulse(duration=1.0, rabi_frequency=1e6)
    eta = afc.total_memory_efficiency(saturated, ens, comb)
    assert eta == pytest.approx(0.9045065502476972, rel=1e-9)
    # never exceeds any individual factor
    assert eta <= math.exp(-math.pi * ens.alkali_decay / ens.exchange_coupling)
    assert eta <= afc.comb_dephasing_factor(afc.finesse(comb))

    lossless_spin = EnsembleParams(alkali_decay=0.0)
    sharp = afc.AFCParams(total_bandwidth=27e9, tooth_spacing=96e6, tooth_width=96e6 / 1e6,
                          homogeneous_linewidth=0.0)
    assert afc.total_memory_efficiency(saturated, lossless_spin, sharp) == pytest.approx(1.0, rel=1e-9)

    assert afc.total_memory_efficiency(afc.ControlPulse(), ens, comb) == 0.0
    no_channel = EnsembleParams(exchange_coupling=0.0)
    assert afc.total_memory_efficiency(saturated, no_channel, comb) == 0.0


def test_echo_time():
    assert afc.echo_time(afc.ControlPulse(), 2.0 * math.pi) == pytest.approx(1.0, rel=1e-12)
    pulse = afc.ControlPulse(duration=1e-6, rabi_frequency=0.0, exchange_duration=1e-3)
    assert afc.echo_time(pulse, 96e6) == pytest.approx(0.0020020654498469495, rel=1e-12)
    # doubling the spacing halves the comb contribution
    base = afc.echo_time(afc.ControlPulse(), 96e6)
    assert afc.echo_time(afc.ControlPulse(), 192e6) == pytest.approx(base / 2.0, rel=1e-12)


def test_multimode_success():
    assert afc.multimode_success(0.0, 112) == 0.0
    assert afc.multimode_success(1.0, 112) == 1.0
    assert afc.multimode_success(0.37, 1) == 0.37
    assert afc.multimode_success(1e-4, 112) == pytest.approx(0.011138067300255905, rel=1e-12)


def test_multimode_success_bounded_by_linearisation():
    n = 112
    for p in (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0):
        assert afc.multimode_success(p, n) <= n * p
    # the linearisation becomes exact as p -> 0
    p = 1e-6
    gap = (n * p - afc.multimode_success(p, n)) / (n * p)
    assert gap == pytest.approx(5.549793659461977e-05, rel=1e-6)
    assert gap < 1e-4


def test_multimode_success_domain():
    with pytest.raises(ValueError):
        afc.multimode_success(-0.1, 10)
    with pytest.raises(ValueError):
        afc.multimode_success(0.5, 0)


def test_ensemble_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(exchange_coupling=-1.0)
    with pytest.raises(ValueError):
        EnsembleParams(cell_radius=0.0)
