import math

import numpy as np
import pytest

from satqlink import geometry as geo

ORBIT = geo.OrbitalConfig()  # 6371 km, 500 km, 398600 km^3/s^2


def test_zenith_slant_range_equals_altitude_exactly():
    assert geo.slant_range(0.0, ORBIT) == 500.0


def test_slant_range_direct_evaluation():
    # frozen from direct evaluation of the law-of-cosines form
    assert geo.slant_range(1633.95, ORBIT) == pytest.approx(1764.5316113622143, rel=1e-12)
    assert geo.slant_range(1042.9, ORBIT) == pytest.approx(1191.7978558088823, rel=1e-12)


def test_elevation_direct_evaluation():
    assert geo.elevation(0.0, ORBIT) == math.pi / 2
    assert math.degrees(geo.elevation(1633.95, ORBIT)) == pytest.approx(8.974738109976032, rel=1e-12)
    assert math.degrees(geo.elevation(1042.9, ORBIT)) == pytest.approx(20.027056829463522, rel=1e-12)


def test_slant_range_from_elevation_closed_form():
    assert geo.slant_range_from_elevation(math.pi / 2, ORBIT) == pytest.approx(500.0, rel=1e-12)
    assert geo.slant_range_from_elevation(math.radians(20.0), ORBIT) == pytest.approx(
        1192.7971987277238, rel=1e-12
    )
    # 1461.9 km corresponds to an elevation near 13.93 deg, not 20 deg
    assert geo.slant_range_from_elevation(0.2430981611666087, ORBIT) == pytest.approx(1461.9, rel=1e-9)


def test_closed_form_matches_bisection_through_forward_equations():
    # independent route: bisect the ground-track separation until the
    # forward elevation formula returns 20 deg, then compare slant ranges
    target = math.radians(20.0)
    lo, hi = 1.0, 3000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if geo.elevation(mid, ORBIT) > target:
            lo = mid
        else:
            hi = mid
    l_forward = geo.slant_range(0.5 * (lo + hi), ORBIT)
    assert geo.slant_range_from_elevation(target, ORBIT) == pytest.approx(l_forward, rel=1e-9)


def test_round_trip_elevation_recovery():
    for theta in np.linspace(0.01, math.pi / 2, 40):
        l = geo.slant_range_from_elevation(float(theta), ORBIT)
        lg = geo.ground_track_separation(l, ORBIT)
        assert geo.elevation(lg, ORBIT) == pytest.approx(float(theta), abs=1e-9)


def test_elevation_from_slant_range_inverse():
    assert geo.elevation_from_slant_range(500.0, ORBIT) == math.pi / 2
    for l in (600.0, 1000.0, 1461.9, 2000.0, 2500.0):
        theta = geo.elevation_from_slant_range(l, ORBIT)
        assert geo.slant_range_from_elevation(theta, ORBIT) == pytest.approx(l, rel=1e-12)


def test_monotonicity_over_ground_track():
    lg = np.linspace(1.0, math.pi * ORBIT.earth_radius / 2 * 0.999, 200)
    slants = np.array([geo.slant_range(float(x), ORBIT) for x in lg])
    elevs = np.array([geo.elevation(float(x), ORBIT) for x in lg])
    assert np.all(np.diff(slants) > 0)
    assert np.all(np.diff(elevs) < 0)


def test_pass_geometry_invariants():
    for lg in (0.0, 100.0, 500.0, 1500.0):
        assert geo.slant_range(lg, ORBIT) >= ORBIT.altitude
        assert 0.0 <= geo.elevation(lg, ORBIT) <= math.pi / 2


def test_orbital_period():
    assert geo.orbital_period(ORBIT) == pytest.approx(5668.147510287317, rel=1e-12)
    surface = geo.OrbitalConfig(altitude=0.0)
    assert geo.orbital_period(surface) == pytest.approx(5060.8402520035215, rel=1e-12)


def test_orbital_period_scaling_law():
    # doubling the orbit radius multiplies the period by 2^1.5
    base = geo.OrbitalConfig(earth_radius=6371.0, altitude=500.0)
    doubled = geo.OrbitalConfig(earth_radius=6371.0, altitude=500.0 + base.orbit_radius)
    assert geo.orbital_period(doubled) / geo.orbital_period(base) == pytest.approx(2.0 ** 1.5, rel=1e-12)


def test_buffer_time():
    assert geo.buffer_time(3267.9, ORBIT) == pytest.approx(462.7244297674163, rel=1e-12)
    assert abs(geo.buffer_time(3267.9, ORBIT) - 463.0) <= 1.0
    assert geo.buffer_time(0.0, ORBIT) == 0.0
    full_circle = 2 * math.pi * ORBIT.earth_radius
    assert geo.buffer_time(full_circle, ORBIT) == pytest.approx(geo.orbital_period(ORBIT), rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        geo.slant_range(-1.0, ORBIT)
    with pytest.raises(ValueError):
        geo.slant_range(math.pi * ORBIT.earth_radius + 1.0, ORBIT)
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
        geo.OrbitalConfig(earth_radius=0.0)
    with pytest.raises(ValueError):
        geo.OrbitalConfig(altitude=-1.0)
    with pytest.raises(ValueError):
        geo.OrbitalConfig(gravitational_parameter=0.0)
