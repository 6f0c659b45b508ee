"""Free-space optical downlink efficiencies.

One downlink arm is the product of three statistically independent terms:
detector efficiency, atmospheric transmission (air-mass model) and
diffraction-plus-pointing loss. Pointing jitter is folded in as
long-exposure spot broadening: the far-field Gaussian intensity is
convolved with the Gaussian jitter kernel, which again yields a Gaussian
whose per-axis spread obeys sigma_eff^2 = w(z)^2/4 + (sigma_p z)^2.
All quantities are SI (metres, radians). The closed forms are scalar
``math`` expressions; ``link_efficiency_row`` evaluates one arm over a row
of pointing jitters at a fixed elevation and range, which is how the maps
in ``scenario`` are filled.
"""

import math
from typing import Annotated

from .domain import (
    ELEVATION, NON_NEGATIVE, POSITIVE, PROBABILITY, TRANSMISSION, Record, require,
)

__all__ = [
    "OpticalLinkParams",
    "atmospheric_transmission",
    "beam_radius",
    "collected_fraction",
    "link_efficiency_row",
    "single_link_efficiency",
]

class OpticalLinkParams(Record):
    """Downlink beam, receiver and detector parameters.

    ``beam_waist`` is derived, not set: the diffraction-limited value
    wavelength / (pi * divergence_half_angle).
    """

    wavelength: Annotated[float, POSITIVE]               # m
    divergence_half_angle: Annotated[float, POSITIVE]    # rad
    pointing_jitter_rms: Annotated[float, NON_NEGATIVE]  # rad, may be zero
    receiver_radius: Annotated[float, POSITIVE]          # m
    zenith_transmission: Annotated[float, TRANSMISSION]
    detector_efficiency: Annotated[float, PROBABILITY]

    @property
    def beam_waist(self) -> float:
        """Diffraction-limited waist radius (m)."""
        return self.wavelength / (math.pi * self.divergence_half_angle)


def atmospheric_transmission(theta: float, zenith_transmission: float) -> float:
    """Single-pass atmospheric transmission at elevation theta (rad).

    Air-mass scaling: zenith transmission raised to 1/sin(theta). Diverges
    toward the horizon, so theta must lie in (0, pi/2].
    """
    require(ELEVATION, elevation=theta)
    require(TRANSMISSION, zenith_transmission=zenith_transmission)
    return zenith_transmission ** (1.0 / math.sin(theta))


def beam_radius(z: float, params: OpticalLinkParams) -> float:
    """Gaussian beam radius w(z) (m) a distance z (m) from the waist."""
    require(NON_NEGATIVE, propagation_distance=z)
    return math.hypot(params.beam_waist, params.divergence_half_angle * z)


def _collected_row(scale: float, l: float, params: OpticalLinkParams, jitters) -> list[float]:
    """scale times the collected fraction at range l (m), one value per jitter (rad).

    The beam radius is computed once; only the jitter term is per value.
    """
    require(POSITIVE, slant_range=l)
    half_w = beam_radius(l, params) / 2.0
    r = params.receiver_radius
    return [
        scale * (1.0 - math.exp(-r * r / (2.0 * sigma * sigma)))
        for sigma in [math.hypot(half_w, jitter * l) for jitter in jitters]
    ]


def collected_fraction(l: float, params: OpticalLinkParams) -> float:
    """Fraction of transmitted power collected by the receiver pupil at range l (m)."""
    return _collected_row(1.0, l, params, (params.pointing_jitter_rms,))[0]


def link_efficiency_row(theta: float, l: float, params: OpticalLinkParams, jitters) -> list[float]:
    """``single_link_efficiency`` at (theta, l) for each pointing jitter (rad).

    The air mass, the detector factor and the beam radius are computed once
    per call, so a map row costs one jitter term per cell. The jitter of
    ``params`` is ignored.
    """
    loss = params.detector_efficiency * atmospheric_transmission(theta, params.zenith_transmission)
    return _collected_row(loss, l, params, jitters)


def single_link_efficiency(theta: float, l: float, params: OpticalLinkParams) -> float:
    """Efficiency of one space-to-ground arm: detector * atmosphere * diffraction.

    theta is the elevation (rad) for the air-mass factor, l the slant range
    (m) for the diffraction/pointing factor.
    """
    return link_efficiency_row(theta, l, params, (params.pointing_jitter_rms,))[0]
