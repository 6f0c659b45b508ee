"""Circular-orbit pass geometry for a LEO satellite and its ground stations.

Distances are kilometres, angles radians. Degrees are accepted only at the
command-line boundary. The ground track is modelled on a non-rotating Earth;
the satellite moves on a circular orbit whose period follows from Kepler's
third law.
"""

import math
from typing import Annotated

from .domain import ELEVATION, NON_NEGATIVE, POSITIVE, Record, require

__all__ = [
    "OrbitalConfig",
    "slant_range_from_elevation",
    "elevation_from_slant_range",
    "orbital_period",
    "buffer_time",
]

_ASIN_TOL = 1e-12


class OrbitalConfig(Record):
    """Circular-orbit parameters.

    earth_radius and altitude are in km, gravitational_parameter in km^3/s^2.
    altitude = 0 is allowed (surface-grazing orbit, useful for scaling checks).
    """

    earth_radius: Annotated[float, POSITIVE]
    altitude: Annotated[float, NON_NEGATIVE]
    gravitational_parameter: Annotated[float, POSITIVE]

    @property
    def orbit_radius(self) -> float:
        """Distance of the satellite from the Earth centre (km)."""
        return self.earth_radius + self.altitude


def slant_range_from_elevation(theta: float, orbit: OrbitalConfig) -> float:
    """Closed-form inverse: slant range (km) at elevation theta (rad).

    Valid for 0 < theta <= pi/2; returns altitude exactly at zenith.
    """
    require(ELEVATION, elevation=theta)
    r_e = orbit.earth_radius
    h = orbit.altitude
    s = r_e * math.sin(theta)
    return math.sqrt(s * s + 2.0 * r_e * h + h * h) - s


def elevation_from_slant_range(l: float, orbit: OrbitalConfig) -> float:
    """Elevation angle (rad) at which the slant range equals l (km).

    Defined for l between the altitude (zenith) and the horizon range
    sqrt(orbit_radius^2 - earth_radius^2).
    """
    require(POSITIVE, slant_range=l)
    r_e = orbit.earth_radius
    r_s = orbit.orbit_radius
    arg = (r_s * r_s - r_e * r_e - l * l) / (2.0 * l * r_e)
    if not (-_ASIN_TOL <= arg <= 1.0 + _ASIN_TOL):
        raise ValueError(f"slant range {l} km is outside the visible pass")
    arg = max(0.0, min(1.0, arg))
    return math.asin(arg)


def orbital_period(orbit: OrbitalConfig) -> float:
    """Circular-orbit period (s) from Kepler's third law; a period beyond
    the float range is a ValueError."""
    a = orbit.orbit_radius
    try:
        cube = a ** 3
    except OverflowError:  # float ** raises where * would give inf
        cube = math.inf
    period = 2.0 * math.pi * math.sqrt(cube / orbit.gravitational_parameter)
    require(POSITIVE, orbital_period=period)
    return period


def buffer_time(ogs_separation: float, orbit: OrbitalConfig) -> float:
    """Storage interval (s) between overhead passes of two stations.

    Arc distance between the stations divided by the ground-track speed
    2*pi*earth_radius / period.
    """
    require(NON_NEGATIVE, ogs_separation=ogs_separation)
    ground_speed = 2.0 * math.pi * orbit.earth_radius / orbital_period(orbit)
    require(POSITIVE, ground_speed=ground_speed)
    return ogs_separation / ground_speed
