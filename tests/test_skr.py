import math

import numpy as np
import pytest

from satqlink import skr
from satqlink.config import RunConfig, scenario_config
from satqlink.domain import replace

QKD = scenario_config(RunConfig()).qkd  # 90 MHz, 112 modes, calibrated bracket


def test_binary_entropy_edges_and_peak():
    assert skr.binary_entropy(0.0) == 0.0
    assert skr.binary_entropy(1.0) == 0.0
    assert skr.binary_entropy(0.5) == 1.0
    assert skr.binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)


def test_binary_entropy_symmetry():
    rng = np.random.default_rng(7)
    for e in rng.uniform(0.0, 1.0, 1000):
        assert skr.binary_entropy(float(e)) == pytest.approx(
            skr.binary_entropy(1.0 - float(e)), abs=1e-12
        )
    assert skr.binary_entropy(0.5) >= skr.binary_entropy(0.4999)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        skr.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        skr.binary_entropy(1.01)


def test_default_bracket_is_calibrated():
    assert skr.key_bracket(QKD) == pytest.approx(0.03812, abs=1e-12)


def test_key_fraction():
    clean = replace(QKD, qber_x=0.0, qber_z=0.0, ec_inefficiency=1.0)
    assert skr.key_fraction(0.4, clean) == pytest.approx(0.2, rel=1e-12)
    # above the error threshold no key is extractable
    noisy = replace(QKD, qber_x=0.25, qber_z=0.25, ec_inefficiency=1.2)
    assert skr.key_bracket(noisy) < 0.0
    assert skr.key_fraction(0.9, noisy) == 0.0
    assert skr.key_fraction(4.70e-3, QKD) == pytest.approx(8.9582e-05, rel=1e-9)


def test_key_fraction_monotone_in_errors():
    y = 0.5
    brackets = [skr.key_fraction(y, replace(QKD, qber_x=e, qber_z=e)) for e in
                (0.0, 0.02, 0.05, 0.08, 0.10)]
    assert all(b <= a for a, b in zip(brackets, brackets[1:]))
    fs = [skr.key_fraction(y, replace(QKD, ec_inefficiency=f)) for f in (1.0, 1.1, 1.3, 1.6)]
    assert all(b <= a for a, b in zip(fs, fs[1:]))


def test_instantaneous_skr_values():
    q = QKD
    assert skr.instantaneous_skr(q, 4.226e-5) == pytest.approx(8119.194048, rel=1e-9)
    assert skr.instantaneous_skr(q, 4.700e-3) == pytest.approx(902986.56, rel=1e-9)
    # within published rounding of the reference operating point
    assert skr.instantaneous_skr(q, 4.226e-5) == pytest.approx(8.12e3, rel=0.015)
    assert skr.instantaneous_skr(q, 4.700e-3) == pytest.approx(9.03e5, rel=0.015)


def test_instantaneous_skr_linearity():
    base = replace(QKD, qber_x=0.0, qber_z=0.0, ec_inefficiency=1.0)
    single = replace(QKD, qber_x=0.0, qber_z=0.0, ec_inefficiency=1.0, mode_count=1)
    assert skr.instantaneous_skr(single, 0.2) == pytest.approx(90e6 * 0.1, rel=1e-12)
    assert skr.instantaneous_skr(base, 0.2) == pytest.approx(112 * 90e6 * 0.1, rel=1e-12)
    doubled_rate = replace(QKD, channel_use_rate=180e6, qber_x=0.0, qber_z=0.0, ec_inefficiency=1.0)
    assert skr.instantaneous_skr(doubled_rate, 0.2) == pytest.approx(
        2.0 * skr.instantaneous_skr(base, 0.2), rel=1e-12
    )
    rng = np.random.default_rng(11)
    for y in rng.uniform(0.0, 1.0, 50):
        assert skr.instantaneous_skr(base, float(y)) == pytest.approx(
            float(y) * skr.instantaneous_skr(base, 1.0), rel=1e-9, abs=1e-9
        )


def test_yield_dual():
    assert skr.yield_dual(0.0, 0.5) == 0.0
    assert skr.yield_dual(6.50e-3, 6.50e-3) == pytest.approx(4.225e-5, rel=1e-3)
    assert skr.yield_dual(0.3, 0.2, 0.5) == pytest.approx(0.03, rel=1e-12)
    assert skr.yield_dual(0.3, 0.2) == skr.yield_dual(0.2, 0.3)


def test_yield_buffered():
    assert skr.yield_buffered(0.0797, 0.0797, 1.0) == pytest.approx(0.0797 ** 2, rel=1e-12)
    assert skr.yield_buffered(0.0797, 0.0797, 0.74) == pytest.approx(4.70e-3, rel=1e-2)
    assert skr.yield_buffered(0.5, 0.5, 0.0) == 0.0
    assert skr.yield_buffered(0.3, 0.2, 0.9) == skr.yield_buffered(0.2, 0.3, 0.9)


def test_yield_domain():
    with pytest.raises(ValueError):
        skr.yield_dual(1.2, 0.5)
    with pytest.raises(ValueError):
        skr.yield_buffered(0.5, 0.5, -0.1)


def test_feasibility():
    assert skr.feasibility(463.0, 463.0) is True
    assert skr.feasibility(462.9, 463.0) is False
    assert skr.feasibility(0.0, 0.0) is True
    assert skr.feasibility(5.0, 0.0) is True
    with pytest.raises(ValueError):
        skr.feasibility(-1.0, 10.0)


def test_qkd_params_validation():
    with pytest.raises(ValueError):
        replace(QKD, qber_x=0.6)
    with pytest.raises(ValueError):
        replace(QKD, ec_inefficiency=0.9)
    with pytest.raises(ValueError):
        replace(QKD, mode_count=0)
    with pytest.raises(ValueError):
        replace(QKD, channel_use_rate=0.0)
