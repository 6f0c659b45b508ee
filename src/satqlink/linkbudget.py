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

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "OpticalLinkParams",
    "atmospheric_transmission",
    "beam_radius",
    "collected_fraction",
    "link_efficiency_row",
    "single_link_efficiency",
]

@dataclass(frozen=True)
class OpticalLinkParams:
    """Downlink beam, receiver and detector parameters.

    ``beam_waist`` is derived, not set: the diffraction-limited value
    wavelength / (pi * divergence_half_angle).
    """

    wavelength: float = 795e-9            # m
    divergence_half_angle: float = 3e-6   # rad
    pointing_jitter_rms: float = 1e-6     # rad, may be zero
    receiver_radius: float = 0.5          # m
    zenith_transmission: float = 0.8      # dimensionless, in (0, 1]
    detector_efficiency: float = 0.70

    def __post_init__(self):
        if not (self.wavelength > 0.0 and self.divergence_half_angle > 0.0):
            raise ValueError("wavelength and divergence_half_angle must be positive")
        if not self.pointing_jitter_rms >= 0.0:
            raise ValueError("pointing_jitter_rms must be non-negative")
        if not self.receiver_radius > 0.0:
            raise ValueError("receiver_radius must be positive")
        if not 0.0 < self.zenith_transmission <= 1.0:
            raise ValueError("zenith_transmission must lie in (0, 1]")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in [0, 1]")

    @property
    def beam_waist(self) -> float:
        """Diffraction-limited waist radius (m)."""
        return self.wavelength / (math.pi * self.divergence_half_angle)


def atmospheric_transmission(theta: float, zenith_transmission: float) -> float:
    """Single-pass atmospheric transmission at elevation theta (rad).

    Air-mass scaling: zenith transmission raised to 1/sin(theta). Diverges
    toward the horizon, so theta must lie in (0, pi/2].
    """
    if not (0.0 < theta <= math.pi / 2.0):
        raise ValueError("elevation must lie in (0, pi/2]")
    if not (0.0 < zenith_transmission <= 1.0):
        raise ValueError("zenith_transmission must lie in (0, 1]")
    return zenith_transmission ** (1.0 / math.sin(theta))


def beam_radius(z: float, params: OpticalLinkParams) -> float:
    """Gaussian beam radius w(z) (m) a distance z (m) from the waist."""
    if not (z >= 0.0):
        raise ValueError("propagation distance must be non-negative")
    return math.hypot(params.beam_waist, params.divergence_half_angle * z)


def _collected_row(scale: float, l: float, params: OpticalLinkParams, jitters) -> list[float]:
    """scale times the collected fraction at range l (m), one value per jitter (rad).

    The beam radius is computed once; only the jitter term is per value.
    """
    if not (l > 0.0):
        raise ValueError("range must be positive")
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
