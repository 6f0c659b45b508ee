import math

import numpy as np
import pytest

import references
from satqlink import linkbudget as lb
from satqlink.config import RunConfig, scenario_config
from satqlink.domain import replace

LINK = scenario_config(RunConfig()).link  # 795 nm, 3 urad, 1 urad jitter, 0.5 m pupil


def test_waist_derived_from_divergence():
    assert LINK.beam_waist == pytest.approx(0.08435211983870454, rel=1e-12)
    assert LINK.beam_waist * LINK.divergence_half_angle == pytest.approx(
        LINK.wavelength / math.pi, rel=1e-12
    )


def test_beam_radius():
    assert lb.beam_radius(0.0, LINK) == LINK.beam_waist
    assert lb.beam_radius(500e3, LINK) == pytest.approx(1.5023698879175138, rel=1e-12)
    # far field: w(z) -> divergence * z
    assert lb.beam_radius(1e9, LINK) / (3e-6 * 1e9) == pytest.approx(1.0, rel=1e-6)


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
    reference = references.collected_fraction_quadrature(l_km * 1e3, params)
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
        replace(LINK, wavelength=0.0)
    with pytest.raises(ValueError):
        replace(LINK, pointing_jitter_rms=-1e-6)
    with pytest.raises(ValueError):
        replace(LINK, zenith_transmission=0.0)
    with pytest.raises(ValueError):
        replace(LINK, detector_efficiency=1.2)
    with pytest.raises(ValueError):
        lb.collected_fraction(0.0, LINK)
    with pytest.raises(ValueError):
        lb.beam_radius(-1.0, LINK)


def test_row_kernel_matches_scalar_calls():
    # one row per elevation, each cell bit for bit the scalar closed forms
    # with that cell's jitter: detector * atmosphere * collected fraction,
    # the collected fraction from the jitter-broadened spot
    thetas = np.linspace(0.05, math.pi / 2, 17).tolist()
    jitters = np.linspace(0.0, 5e-6, 17).tolist()
    r = LINK.receiver_radius
    for theta in thetas:
        l = 500e3 / math.sin(theta)
        row = lb.link_efficiency_row(theta, l, LINK, jitters)
        assert len(row) == len(jitters)
        for sigma, cell in zip(jitters, row):
            link = replace(LINK, pointing_jitter_rms=sigma)
            assert cell == lb.single_link_efficiency(theta, l, link)
            collected = lb.collected_fraction(l, link)
            assert cell == (link.detector_efficiency
                            * lb.atmospheric_transmission(theta, link.zenith_transmission)
                            * collected)
            spot = math.hypot(lb.beam_radius(l, link) / 2.0, sigma * l)
            assert collected == 1.0 - math.exp(-r * r / (2.0 * spot * spot))


def test_range_checks_reject_nan_and_out_of_domain():
    for bad in (math.nan, -1.0, math.pi / 2 + 0.01):
        with pytest.raises(ValueError):
            lb.atmospheric_transmission(bad, 0.8)
        with pytest.raises(ValueError):
            lb.atmospheric_transmission(0.5, bad)
    for bad in (math.nan, -1.0):
        for fn in (lb.beam_radius, lb.collected_fraction):
            with pytest.raises(ValueError):
                fn(bad, LINK)
        with pytest.raises(ValueError):
            lb.single_link_efficiency(0.5, bad, LINK)
        with pytest.raises(ValueError):
            lb.link_efficiency_row(0.5, bad, LINK, [0.0, 1e-6])
