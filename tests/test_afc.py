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


def test_ensemble_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(exchange_coupling=-1.0)
