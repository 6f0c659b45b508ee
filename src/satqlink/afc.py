"""Analytic model of a cavity-coupled alkali / noble-gas comb memory.

Comb frequencies (bandwidth, tooth spacing, tooth width) are stored in
ordinary Hz.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .spindyn import EnsembleParams

__all__ = [
    "AFCParams",
    "ControlPulse",
    "finesse",
    "multimode_capacity",
    "comb_dephasing_factor",
    "total_memory_efficiency",
]


@dataclass(frozen=True)
class AFCParams:
    """Spectral comb parameters, all in Hz."""

    total_bandwidth: float = 27e9
    tooth_spacing: float = 96e6
    tooth_width: float = 12e6
    homogeneous_linewidth: float = 5.96e6

    def __post_init__(self):
        if not self.total_bandwidth >= self.tooth_spacing >= self.tooth_width > 0.0:
            raise ValueError("require total_bandwidth >= tooth_spacing >= tooth_width > 0")
        if not self.homogeneous_linewidth >= 0.0:
            raise ValueError("homogeneous_linewidth must be non-negative")
        if self.tooth_width < 2.0 * self.homogeneous_linewidth:
            warnings.warn(
                "tooth_width below twice the homogeneous linewidth; "
                "lifetime broadening will wash out the comb",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ControlPulse:
    """Optical control window T and Rabi frequency of the write and read."""

    duration: float = 0.0
    rabi_frequency: float = 0.0

    def __post_init__(self):
        if not all(x >= 0.0 for x in (self.duration, self.rabi_frequency)):
            raise ValueError("pulse parameters must be non-negative")


def finesse(afc: AFCParams) -> float:
    """Comb finesse: tooth spacing over tooth width."""
    if afc.tooth_width <= 0.0:
        raise ValueError("tooth_width must be positive")
    return afc.tooth_spacing / afc.tooth_width


def multimode_capacity(total_bandwidth: float, tooth_spacing: float) -> int:
    """Number of temporal modes storable per cycle: floor(2*bandwidth / (5*spacing))."""
    if tooth_spacing <= 0.0:
        raise ValueError("tooth_spacing must be positive")
    if total_bandwidth < 0.0:
        raise ValueError("total_bandwidth must be non-negative")
    return math.floor(2.0 * total_bandwidth / (5.0 * tooth_spacing))


def comb_dephasing_factor(finesse_value: float) -> float:
    """Comb dephasing loss sinc^2(pi / F); approaches 1 for a sharp comb."""
    if finesse_value <= 0.0:
        raise ValueError("finesse must be positive")
    x = math.pi / finesse_value
    return (math.sin(x) / x) ** 2


def total_memory_efficiency(pulse: ControlPulse, ens: EnsembleParams, afc: AFCParams) -> float:
    """End-to-end write/read efficiency of the comb memory.

    Product of the squared optical transfer, the spin-exchange survival and
    the comb dephasing factor:

        [1 - exp(-pi^2 T Omega^2 / Gamma)]^2 * exp(-pi gamma_s / J) * sinc^2(pi / F)

    The spin factor is the square of one transfer's exp(-pi gamma_s / (2 J)),
    for the write and the read. The optical exponent carries pi^2, where one
    chirped transfer 1 - exp(-pi T Omega^2 / Gamma) carries pi; the closed
    form is kept as the source states it.
    """
    if ens.exchange_coupling == 0.0:
        return 0.0
    optical_arg = math.pi ** 2 * pulse.duration * pulse.rabi_frequency ** 2 / afc.total_bandwidth
    optical = (1.0 - math.exp(-optical_arg)) ** 2
    spin = math.exp(-math.pi * ens.alkali_decay / ens.exchange_coupling)
    return optical * spin * comb_dephasing_factor(finesse(afc))
