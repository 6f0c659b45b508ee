import math
from dataclasses import replace

import numpy as np
import pytest

from satqlink import linkbudget as lb

LINK = lb.OpticalLinkParams()  # 795 nm, 3 urad, 1 urad jitter, 0.5 m pupil


def test_waist_derived_from_divergence():
    assert LINK.beam_waist == pytest.approx(0.08435211983870454, rel=1e-12)
    assert LINK.beam_waist * LINK.divergence_half_angle == pytest.approx(
        LINK.wavelength / math.pi, rel=1e-12
    )


def test_explicit_waist_must_match():
    lb.OpticalLinkParams(beam_waist=795e-9 / (math.pi * 3e-6))
    with pytest.raises(ValueError):
        lb.OpticalLinkParams(beam_waist=0.09)


def test_beam_radius():
    assert lb.beam_radius(0.0, LINK) == LINK.beam_waist
    assert lb.beam_radius(500e3, LINK) == pytest.approx(1.5023698879175138, rel=1e-12)
    # far field: w(z) -> divergence * z
    assert lb.beam_radius(1e9, LINK) / (3e-6 * 1e9) == pytest.approx(1.0, rel=1e-6)


def test_effective_spot_sigma():
    zero_jitter = replace(LINK, pointing_jitter_rms=0.0)
    z = 700e3
    assert lb.effective_spot_sigma(z, zero_jitter) == lb.beam_radius(z, zero_jitter) / 2.0
    assert lb.effective_spot_sigma(500e3, LINK) == pytest.approx(0.9023739912200045, rel=1e-12)
    assert lb.effective_spot_sigma(1461.9e3, LINK) == pytest.approx(2.635815159022028, rel=1e-12)


def test_collected_fraction_closed_form():
    assert lb.collected_fraction(500e3, LINK) == pytest.approx(0.14230787421332403, rel=1e-12)
    assert lb.collected_fraction(1461.9e3, LINK) == pytest.approx(0.017831137497062333, rel=1e-12)
    wide_open = replace(LINK, receiver_radius=1e6)
    assert lb.collected_fraction(500e3, wide_open) == pytest.approx(1.0, abs=1e-12)


def test_collected_fraction_ratio_between_ranges():
    ratio = lb.collected_fraction(1461.9e3, LINK) / lb.collected_fraction(500e3, LINK)
    assert ratio == pytest.approx(0.12529972494939312, rel=1e-12)


@pytest.mark.parametrize(
    "l_km,jitter_urad",
    [(500.0, 1.0), (1461.9, 1.0), (100.0, 0.0), (3000.0, 5.0), (800.0, 2.5)],
)
def test_quadrature_oracle_agrees(l_km, jitter_urad):
    params = replace(LINK, pointing_jitter_rms=jitter_urad * 1e-6)
    analytic = lb.collected_fraction(l_km * 1e3, params)
    reference = lb.collected_fraction_quadrature(l_km * 1e3, params)
    assert analytic == pytest.approx(reference, rel=1e-6)


def test_collected_fraction_monotone():
    ranges = np.linspace(100e3, 3000e3, 60)
    vals = [lb.collected_fraction(float(z), LINK) for z in ranges]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    jitters = np.linspace(0.0, 5e-6, 30)
    at_fixed_range = [
        lb.collected_fraction(800e3, replace(LINK, pointing_jitter_rms=float(s))) for s in jitters
    ]
    assert all(b < a for a, b in zip(at_fixed_range, at_fixed_range[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals + at_fixed_range)


def test_far_field_limit():
    # dropping the waist term changes the result by <0.1% once the
    # divergence-dominated spot is much wider than the waist
    for z in (1000e3, 1500e3, 2000e3, 3000e3):
        full = lb.collected_fraction(z, LINK)
        sigma_far = math.hypot(LINK.divergence_half_angle * z / 2.0, LINK.pointing_jitter_rms * z)
        far = 1.0 - math.exp(-LINK.receiver_radius ** 2 / (2.0 * sigma_far ** 2))
        assert abs(far - full) / full < 1e-3


def test_atmospheric_transmission():
    assert lb.atmospheric_transmission(math.pi / 2, 0.8) == 0.8
    assert lb.atmospheric_transmission(math.radians(20.0), 0.8) == pytest.approx(
        0.5207797365283114, rel=1e-12
    )
    for theta in (0.1, 0.5, 1.0, math.pi / 2):
        assert lb.atmospheric_transmission(theta, 1.0) == 1.0
    thetas = np.linspace(0.05, math.pi / 2, 50)
    vals = [lb.atmospheric_transmission(float(t), 0.8) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_atmospheric_transmission_domain():
    with pytest.raises(ValueError):
        lb.atmospheric_transmission(0.0, 0.8)
    with pytest.raises(ValueError):
        lb.atmospheric_transmission(-0.2, 0.8)
    with pytest.raises(ValueError):
        lb.atmospheric_transmission(math.pi / 2 + 0.01, 0.8)
    with pytest.raises(ValueError):
        lb.atmospheric_transmission(1.0, 0.0)


def test_single_link_efficiency_factor_sets():
    arm_zenith = lb.single_link_efficiency(math.pi / 2, 500e3, LINK)
    assert arm_zenith == pytest.approx(0.07969240955946144, rel=1e-12)
    # detector * atmosphere * diffraction, in that order; the zenith air mass is 1
    assert arm_zenith == 0.70 * 0.8 * lb.collected_fraction(500e3, LINK)

    arm_low = lb.single_link_efficiency(math.radians(20.0), 1461.9e3, LINK)
    assert arm_low == pytest.approx(0.006500266561404151, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        lb.OpticalLinkParams(wavelength=0.0)
    with pytest.raises(ValueError):
        lb.OpticalLinkParams(pointing_jitter_rms=-1e-6)
    with pytest.raises(ValueError):
        lb.OpticalLinkParams(zenith_transmission=0.0)
    with pytest.raises(ValueError):
        lb.OpticalLinkParams(detector_efficiency=1.2)
    with pytest.raises(ValueError):
        lb.effective_spot_sigma(0.0, LINK)
    with pytest.raises(ValueError):
        lb.beam_radius(-1.0, LINK)


def test_closed_forms_broadcast_like_scalar_calls():
    thetas = np.linspace(0.05, math.pi / 2, 17)
    ranges = np.linspace(300e3, 2600e3, 17)
    cases = (
        (lambda x: lb.atmospheric_transmission(x, 0.8), thetas),
        (lambda x: lb.beam_radius(x, LINK), ranges),
        (lambda x: lb.effective_spot_sigma(x, LINK), ranges),
        (lambda x: lb.collected_fraction(x, LINK), ranges),
        (lambda x: lb.single_link_efficiency(x, 500e3 / np.sin(x), LINK), thetas),
    )
    for fn, axis in cases:
        batch = fn(axis)
        assert batch.shape == axis.shape
        scalar = np.array([fn(float(x)) for x in axis])
        np.testing.assert_allclose(batch, scalar, rtol=1e-15, atol=0.0)


def test_array_range_checks_still_raise():
    with pytest.raises(ValueError):
        lb.atmospheric_transmission(np.array([0.5, 0.0]), 0.8)
    with pytest.raises(ValueError):
        lb.atmospheric_transmission(np.array([0.5, math.nan]), 0.8)
    with pytest.raises(ValueError):
        lb.beam_radius(np.array([1.0, -1.0]), LINK)
    with pytest.raises(ValueError):
        lb.effective_spot_sigma(np.array([1e5, 0.0]), LINK)
    with pytest.raises(ValueError):
        lb.collected_fraction(np.array([1e5, -1e5]), LINK)
