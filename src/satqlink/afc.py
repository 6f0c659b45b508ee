"""Analytic model of a cavity-coupled alkali / noble-gas comb memory.

Comb frequencies (bandwidth, tooth spacing, tooth width) are stored in
ordinary Hz. The re-emission delay formula treats the tooth spacing as an
angular rate; that convention enters in exactly one place,
``comb_rephasing_time``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "AFCParams",
    "EnsembleParams",
    "CavityParams",
    "ControlPulse",
    "finesse",
    "multimode_capacity",
    "reflection_coefficient",
    "absorbed_fraction",
    "optical_to_spin_efficiency",
    "exchange_transfer_efficiency",
    "comb_dephasing_factor",
    "total_memory_efficiency",
    "comb_rephasing_time",
    "echo_time",
    "multimode_success",
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
        if self.homogeneous_linewidth < 0.0:
            raise ValueError("homogeneous_linewidth must be non-negative")
        if self.tooth_width < 2.0 * self.homogeneous_linewidth:
            warnings.warn(
                "tooth_width below twice the homogeneous linewidth; "
                "lifetime broadening will wash out the comb",
                stacklevel=2,
            )


@dataclass(frozen=True)
class EnsembleParams:
    """Hybrid-cell ensemble parameters for the spin dynamics.

    Rates are s^-1, diffusion constants m^2/s and the cell radius m.
    """

    exchange_coupling: float = 2.00e-5   # alkali/noble coherent coupling J
    alkali_decay: float = 3.1e-7
    noble_decay: float = 0.0
    alkali_detuning: float = 0.0
    noble_detuning: float = 1.11e-3
    alkali_diffusion: float = 1.02e-8
    noble_diffusion: float = 2.05e-8
    cell_radius: float = 0.01
    optical_decay: float = 2.0 * math.pi * 5.96e6

    def __post_init__(self):
        for name in (
            "exchange_coupling",
            "alkali_decay",
            "noble_decay",
            "alkali_diffusion",
            "noble_diffusion",
            "optical_decay",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.cell_radius <= 0.0:
            raise ValueError("cell_radius must be positive")


@dataclass(frozen=True)
class CavityParams:
    """Single-ended cavity: decay rate kappa and lumped ensemble coupling."""

    cavity_decay: float
    ensemble_coupling: float

    def __post_init__(self):
        if self.cavity_decay <= 0.0:
            raise ValueError("cavity_decay must be positive")
        if self.ensemble_coupling < 0.0:
            raise ValueError("ensemble_coupling must be non-negative")


@dataclass(frozen=True)
class ControlPulse:
    """Optical control window T, Rabi frequency and exchange window T'."""

    duration: float = 0.0
    rabi_frequency: float = 0.0
    exchange_duration: float = 0.0

    def __post_init__(self):
        if self.duration < 0.0 or self.rabi_frequency < 0.0 or self.exchange_duration < 0.0:
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


def reflection_coefficient(cavity: CavityParams) -> float:
    """Field reflection (kappa - Z) / (kappa + Z); zero at impedance matching."""
    kappa = cavity.cavity_decay
    z = cavity.ensemble_coupling
    return (kappa - z) / (kappa + z)


def absorbed_fraction(cavity: CavityParams) -> float:
    """Input power fraction absorbed by the impedance-matched cavity: 1 - r^2."""
    r = reflection_coefficient(cavity)
    return 1.0 - r * r


def optical_to_spin_efficiency(pulse: ControlPulse, total_bandwidth: float) -> float:
    """Optical-to-alkali transfer 1 - exp(-pi T Omega^2 / Gamma) for one chirped pulse."""
    if total_bandwidth <= 0.0:
        raise ValueError("total_bandwidth must be positive")
    arg = math.pi * pulse.duration * pulse.rabi_frequency ** 2 / total_bandwidth
    return 1.0 - math.exp(-arg)


def exchange_transfer_efficiency(alkali_decay: float, exchange_coupling: float) -> float:
    """Alkali-to-noble transfer exp(-pi gamma_s / (2 J)).

    A vanishing coupling means there is no transfer channel, so J = 0
    returns 0 rather than dividing.
    """
    if alkali_decay < 0.0:
        raise ValueError("alkali_decay must be non-negative")
    if exchange_coupling < 0.0:
        raise ValueError("exchange_coupling must be non-negative")
    if exchange_coupling == 0.0:
        return 0.0
    return math.exp(-math.pi * alkali_decay / (2.0 * exchange_coupling))


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

    The optical exponent here carries pi^2 and the spin exponent pi/J,
    whereas the per-step helpers use pi and pi/(2J); both conventions are
    kept deliberately rather than unified.
    """
    if ens.exchange_coupling == 0.0:
        return 0.0
    optical_arg = math.pi ** 2 * pulse.duration * pulse.rabi_frequency ** 2 / afc.total_bandwidth
    optical = (1.0 - math.exp(-optical_arg)) ** 2
    spin = math.exp(-math.pi * ens.alkali_decay / ens.exchange_coupling)
    return optical * spin * comb_dephasing_factor(finesse(afc))


def comb_rephasing_time(tooth_spacing: float) -> float:
    """Fixed comb re-emission delay 2*pi / tooth_spacing.

    The stored tooth spacing (Hz) is used directly under the 2*pi, i.e. it
    is read as an angular rate here. This is the one site where that
    convention applies; every other formula consumes ordinary Hz.
    """
    if tooth_spacing <= 0.0:
        raise ValueError("tooth_spacing must be positive")
    return 2.0 * math.pi / tooth_spacing


def echo_time(pulse: ControlPulse, tooth_spacing: float) -> float:
    """Total input-to-echo delay 2*T' + 2*T + comb rephasing time."""
    return 2.0 * pulse.exchange_duration + 2.0 * pulse.duration + comb_rephasing_time(tooth_spacing)


def multimode_success(per_mode_probability: float, mode_count: int) -> float:
    """Probability of at least one success among mode_count parallel modes.

    Exact expression 1 - (1 - P)^N, not the small-P linearisation.
    """
    if not 0.0 <= per_mode_probability <= 1.0:
        raise ValueError("per_mode_probability must lie in [0, 1]")
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    return 1.0 - (1.0 - per_mode_probability) ** mode_count
