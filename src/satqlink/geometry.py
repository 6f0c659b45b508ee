"""Circular-orbit pass geometry for a LEO satellite and its ground stations.

Distances are kilometres, angles radians. Degrees are accepted only at the
command-line boundary. The ground track is modelled on a non-rotating Earth;
the satellite moves on a circular orbit whose period follows from Kepler's
third law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "OrbitalConfig",
    "slant_range_from_elevation",
    "elevation_from_slant_range",
    "orbital_period",
    "buffer_time",
]

_ASIN_TOL = 1e-12


@dataclass(frozen=True)
class OrbitalConfig:
    """Circular-orbit parameters.

    earth_radius and altitude are in km, gravitational_parameter in km^3/s^2.
    altitude = 0 is allowed (surface-grazing orbit, useful for scaling checks).
    """

    earth_radius: float = 6371.0
    altitude: float = 500.0
    gravitational_parameter: float = 398600.0

    def __post_init__(self):
        if not self.earth_radius > 0.0:
            raise ValueError("earth_radius must be positive")
        if not self.altitude >= 0.0:
            raise ValueError("altitude must be non-negative")
        if not self.gravitational_parameter > 0.0:
            raise ValueError("gravitational_parameter must be positive")
        if math.inf in (self.earth_radius, self.altitude, self.gravitational_parameter):
            raise ValueError("orbit parameters must be finite")

    @property
    def orbit_radius(self) -> float:
        """Distance of the satellite from the Earth centre (km)."""
        return self.earth_radius + self.altitude


def slant_range_from_elevation(theta: float, orbit: OrbitalConfig) -> float:
    """Closed-form inverse: slant range (km) at elevation theta (rad).

    Valid for 0 < theta <= pi/2; returns altitude exactly at zenith.
    """
    if not 0.0 < theta <= math.pi / 2.0:
        raise ValueError("elevation must lie in (0, pi/2]")
    r_e = orbit.earth_radius
    h = orbit.altitude
    s = r_e * math.sin(theta)
    return math.sqrt(s * s + 2.0 * r_e * h + h * h) - s


def elevation_from_slant_range(l: float, orbit: OrbitalConfig) -> float:
    """Elevation angle (rad) at which the slant range equals l (km).

    Defined for l between the altitude (zenith) and the horizon range
    sqrt(orbit_radius^2 - earth_radius^2).
    """
    if not (l > 0.0):
        raise ValueError("slant range must be positive")
    r_e = orbit.earth_radius
    r_s = orbit.orbit_radius
    arg = (r_s * r_s - r_e * r_e - l * l) / (2.0 * l * r_e)
    if not (-_ASIN_TOL <= arg <= 1.0 + _ASIN_TOL):
        raise ValueError(f"slant range {l} km is outside the visible pass")
    arg = max(0.0, min(1.0, arg))
    return math.asin(arg)


def orbital_period(orbit: OrbitalConfig) -> float:
    """Circular-orbit period (s) from Kepler's third law."""
    a = orbit.orbit_radius
    return 2.0 * math.pi * math.sqrt(a ** 3 / orbit.gravitational_parameter)


def buffer_time(ogs_separation: float, orbit: OrbitalConfig) -> float:
    """Storage interval (s) between overhead passes of two stations.

    Arc distance between the stations divided by the ground-track speed
    2*pi*earth_radius / period.
    """
    if not (ogs_separation >= 0.0):
        raise ValueError("ogs_separation must be non-negative")
    if ogs_separation == math.inf:
        raise ValueError("ogs_separation must be finite")
    ground_speed = 2.0 * math.pi * orbit.earth_radius / orbital_period(orbit)
    return ogs_separation / ground_speed
