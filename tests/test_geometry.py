import math

import numpy as np
import pytest

import references
from satqlink import geometry as geo
from satqlink.config import RunConfig, scenario_config
from satqlink.domain import replace

ORBIT = scenario_config(RunConfig()).orbit  # 6371 km, 500 km, 398600 km^3/s^2


def test_zenith_slant_range_equals_altitude_exactly():
    assert references.slant_range(0.0, ORBIT) == 500.0


def test_slant_range_direct_evaluation():
    # frozen from direct evaluation of the law-of-cosines form
    assert references.slant_range(1633.95, ORBIT) == pytest.approx(1764.5316113622143, rel=1e-12)
    assert references.slant_range(1042.9, ORBIT) == pytest.approx(1191.7978558088823, rel=1e-12)


def test_elevation_direct_evaluation():
    assert references.elevation(0.0, ORBIT) == math.pi / 2
    assert math.degrees(references.elevation(1633.95, ORBIT)) == pytest.approx(8.974738109976032, rel=1e-12)
    assert math.degrees(references.elevation(1042.9, ORBIT)) == pytest.approx(20.027056829463522, rel=1e-12)


def test_slant_range_from_elevation_closed_form():
    assert geo.slant_range_from_elevation(math.pi / 2, ORBIT) == pytest.approx(500.0, rel=1e-12)
    assert geo.slant_range_from_elevation(math.radians(20.0), ORBIT) == pytest.approx(
        1192.7971987277238, rel=1e-12
    )
    # 1461.9 km corresponds to an elevation near 13.93 deg, not 20 deg
    assert geo.slant_range_from_elevation(0.2430981611666087, ORBIT) == pytest.approx(1461.9, rel=1e-9)


def test_closed_form_matches_bisection_through_forward_equations():
    # independent route: bisect the ground-track separation until the
    # forward elevation formula returns the target, then compare slant
    # ranges; from the horizon up to zenith, where lo = 0 is the answer
    for target in (math.radians(20.0), *np.linspace(0.01, math.pi / 2, 40)):
        lo, hi = 0.0, 3000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if references.elevation(mid, ORBIT) > target:
                lo = mid
            else:
                hi = mid
        l_forward = references.slant_range(0.5 * (lo + hi), ORBIT)
        assert geo.slant_range_from_elevation(float(target), ORBIT) == pytest.approx(l_forward, rel=1e-9)


def test_round_trip_elevation_recovery():
    # elevation -> slant range -> ground-track separation -> elevation; the
    # separation comes from the law of cosines that slant_range inverts
    r_e, r_s = ORBIT.earth_radius, ORBIT.orbit_radius
    for theta in np.linspace(0.01, math.pi / 2, 40):
        l = geo.slant_range_from_elevation(float(theta), ORBIT)
        arg = (r_e * r_e + r_s * r_s - l * l) / (2.0 * r_e * r_s)
        lg = r_e * math.acos(min(1.0, arg))
        assert references.elevation(lg, ORBIT) == pytest.approx(float(theta), abs=1e-9)


def test_elevation_from_slant_range_inverse():
    assert geo.elevation_from_slant_range(500.0, ORBIT) == math.pi / 2
    for l in (600.0, 1000.0, 1461.9, 2000.0, 2500.0):
        theta = geo.elevation_from_slant_range(l, ORBIT)
        assert geo.slant_range_from_elevation(theta, ORBIT) == pytest.approx(l, rel=1e-12)


def test_monotonicity_over_ground_track():
    lg = np.linspace(1.0, math.pi * ORBIT.earth_radius / 2 * 0.999, 200)
    slants = np.array([references.slant_range(float(x), ORBIT) for x in lg])
    elevs = np.array([references.elevation(float(x), ORBIT) for x in lg])
    assert np.all(np.diff(slants) > 0)
    assert np.all(np.diff(elevs) < 0)


def test_pass_geometry_invariants():
    for lg in (0.0, 100.0, 500.0, 1500.0):
        assert references.slant_range(lg, ORBIT) >= ORBIT.altitude
        assert 0.0 <= references.elevation(lg, ORBIT) <= math.pi / 2


def test_orbital_period():
    assert geo.orbital_period(ORBIT) == pytest.approx(5668.147510287317, rel=1e-12)
    surface = replace(ORBIT, altitude=0.0)
    assert geo.orbital_period(surface) == pytest.approx(5060.8402520035215, rel=1e-12)


def test_orbital_period_scaling_law():
    # doubling the orbit radius multiplies the period by 2^1.5
    base = replace(ORBIT, earth_radius=6371.0, altitude=500.0)
    doubled = replace(ORBIT, earth_radius=6371.0, altitude=500.0 + base.orbit_radius)
    assert geo.orbital_period(doubled) / geo.orbital_period(base) == pytest.approx(2.0 ** 1.5, rel=1e-12)


def test_buffer_time():
    assert geo.buffer_time(3267.9, ORBIT) == pytest.approx(462.7244297674163, rel=1e-12)
    assert abs(geo.buffer_time(3267.9, ORBIT) - 463.0) <= 1.0
    assert geo.buffer_time(0.0, ORBIT) == 0.0
    full_circle = 2 * math.pi * ORBIT.earth_radius
    assert geo.buffer_time(full_circle, ORBIT) == pytest.approx(geo.orbital_period(ORBIT), rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        references.slant_range(-1.0, ORBIT)
    with pytest.raises(ValueError):
        references.slant_range(math.pi * ORBIT.earth_radius + 1.0, ORBIT)
    with pytest.raises(ValueError):
        geo.slant_range_from_elevation(0.0, ORBIT)
    with pytest.raises(ValueError):
        geo.slant_range_from_elevation(math.pi / 2 + 0.1, ORBIT)
    with pytest.raises(ValueError):
        geo.elevation_from_slant_range(499.0, ORBIT)  # below zenith range
    with pytest.raises(ValueError):
        geo.elevation_from_slant_range(3000.0, ORBIT)  # beyond the horizon
    with pytest.raises(ValueError):
        geo.buffer_time(-1.0, ORBIT)


def test_orbital_config_validation():
    with pytest.raises(ValueError):
        replace(ORBIT, earth_radius=0.0)
    with pytest.raises(ValueError):
        replace(ORBIT, altitude=-1.0)
    with pytest.raises(ValueError):
        replace(ORBIT, gravitational_parameter=0.0)
