"""Free-space optical downlink efficiencies.

One downlink arm is the product of three statistically independent terms:
detector efficiency, atmospheric transmission (air-mass model) and
diffraction-plus-pointing loss. Pointing jitter is folded in as
long-exposure spot broadening: the far-field Gaussian intensity is
convolved with the Gaussian jitter kernel, which again yields a Gaussian
whose per-axis spread obeys sigma_eff^2 = w(z)^2/4 + (sigma_p z)^2.
All quantities are SI (metres, radians). The closed forms broadcast over
numpy arrays of elevations and ranges, so a whole map axis is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OpticalLinkParams",
    "atmospheric_transmission",
    "beam_radius",
    "effective_spot_sigma",
    "collected_fraction",
    "collected_fraction_quadrature",
    "single_link_efficiency",
]

_WAIST_TOL = 1e-12


@dataclass(frozen=True)
class OpticalLinkParams:
    """Downlink beam, receiver and detector parameters.

    beam_waist defaults to the diffraction-limited value
    wavelength / (pi * divergence_half_angle); an explicit value must match
    that relation to within 1e-12 relative.
    """

    wavelength: float = 795e-9            # m
    divergence_half_angle: float = 3e-6   # rad
    pointing_jitter_rms: float = 1e-6     # rad, may be zero
    receiver_radius: float = 0.5          # m
    zenith_transmission: float = 0.8      # dimensionless, in (0, 1]
    detector_efficiency: float = 0.70
    beam_waist: float | None = None       # m, derived unless given

    def __post_init__(self):
        if self.wavelength <= 0.0 or self.divergence_half_angle <= 0.0:
            raise ValueError("wavelength and divergence_half_angle must be positive")
        if self.pointing_jitter_rms < 0.0:
            raise ValueError("pointing_jitter_rms must be non-negative")
        if self.receiver_radius <= 0.0:
            raise ValueError("receiver_radius must be positive")
        if not 0.0 < self.zenith_transmission <= 1.0:
            raise ValueError("zenith_transmission must lie in (0, 1]")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in [0, 1]")
        derived = self.wavelength / (math.pi * self.divergence_half_angle)
        if self.beam_waist is None:
            object.__setattr__(self, "beam_waist", derived)
        elif abs(self.beam_waist - derived) > _WAIST_TOL * derived:
            raise ValueError(
                "beam_waist inconsistent with wavelength / (pi * divergence_half_angle)"
            )


def atmospheric_transmission(theta: float | np.ndarray, zenith_transmission: float):
    """Single-pass atmospheric transmission at elevation theta (rad).

    Air-mass scaling: zenith transmission raised to 1/sin(theta). Diverges
    toward the horizon, so theta must lie in (0, pi/2]. Broadcasts over theta.
    """
    if not np.all((theta > 0.0) & (theta <= math.pi / 2.0)):
        raise ValueError("elevation must lie in (0, pi/2]")
    if not 0.0 < zenith_transmission <= 1.0:
        raise ValueError("zenith_transmission must lie in (0, 1]")
    return zenith_transmission ** (1.0 / np.sin(theta))


def beam_radius(z: float | np.ndarray, params: OpticalLinkParams):
    """Gaussian beam radius w(z) (m) a distance z (m) from the waist."""
    if np.any(z < 0.0):
        raise ValueError("propagation distance must be non-negative")
    return np.hypot(params.beam_waist, params.divergence_half_angle * z)


def effective_spot_sigma(z: float | np.ndarray, params: OpticalLinkParams):
    """Per-axis spread (m) of the jitter-broadened spot at range z (m).

    The beam intensity has per-axis std w(z)/2; the jitter kernel adds a
    displacement std of pointing_jitter_rms * z in quadrature.
    """
    if np.any(z <= 0.0):
        raise ValueError("range must be positive")
    return np.hypot(beam_radius(z, params) / 2.0, params.pointing_jitter_rms * z)


def collected_fraction(l: float | np.ndarray, params: OpticalLinkParams):
    """Fraction of transmitted power collected by the receiver pupil at range l (m)."""
    sigma = effective_spot_sigma(l, params)
    r = params.receiver_radius
    return 1.0 - np.exp(-r * r / (2.0 * sigma * sigma))


def collected_fraction_quadrature(
    l: float,
    params: OpticalLinkParams,
    abs_tol: float = 1e-10,
) -> float:
    """Reference value of ``collected_fraction`` by adaptive polar quadrature.

    Numerically convolves the propagated beam intensity with the jitter
    kernel (angular part via the modified Bessel identity, radial parts via
    adaptive quadrature) and integrates over the pupil. Slow by design; it
    exists to cross-check the closed form and is exercised by the tests.
    Scalar range only. It is the one caller of scipy in the link budget, and
    imports it here so that the link-budget commands never load scipy.
    """
    from scipy.integrate import quad
    from scipy.special import i0e

    w = beam_radius(l, params)
    sigma_j = params.pointing_jitter_rms * l
    peak = 2.0 / (math.pi * w * w)  # unit total power

    def beam(r):
        return peak * math.exp(-2.0 * r * r / (w * w))

    if sigma_j == 0.0:
        def smeared(rho):
            return beam(rho)
    else:
        s2 = sigma_j * sigma_j
        r_max = 5.0 * w  # beam intensity is ~1e-21 of peak beyond this

        def smeared(rho):
            def kernel(rp):
                gauss = math.exp(-((rho - rp) ** 2) / (2.0 * s2))
                bessel = i0e(rho * rp / s2)
                return rp * beam(rp) * gauss * bessel / s2

            value, _ = quad(kernel, 0.0, r_max, epsabs=abs_tol * 1e-2, epsrel=1e-10, limit=200)
            return value

    power, _ = quad(
        lambda rho: 2.0 * math.pi * rho * smeared(rho),
        0.0,
        params.receiver_radius,
        epsabs=abs_tol,
        epsrel=1e-9,
        limit=200,
    )
    return power


def single_link_efficiency(
    theta: float | np.ndarray, l: float | np.ndarray, params: OpticalLinkParams
):
    """Efficiency of one space-to-ground arm: detector * atmosphere * diffraction.

    theta is the elevation (rad) for the air-mass factor, l the slant range
    (m) for the diffraction/pointing factor. Broadcasts over theta and l.
    """
    return (
        params.detector_efficiency
        * atmospheric_transmission(theta, params.zenith_transmission)
        * collected_fraction(l, params)
    )
