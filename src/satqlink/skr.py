"""Asymptotic BB84 secret-key rates with one-way post-processing.

The extractable fraction per channel use is (Y/2) * [1 - h(e_X) - f h(e_Z)],
clamped at zero, where Y is the heralded success probability per use and h
the binary entropy. The instantaneous rate multiplies by the channel-use
rate and by the number of parallel temporal modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CALIBRATED_QBER",
    "QKDParams",
    "binary_entropy",
    "key_bracket",
    "key_fraction",
    "instantaneous_skr",
    "yield_dual",
    "yield_buffered",
    "feasibility",
]

# Chosen so that 1 - h(e) - 1.10 * h(e) = 0.03812, the key-fraction bracket
# the default rates are calibrated against.
CALIBRATED_QBER = 0.09657329074620885


@dataclass(frozen=True)
class QKDParams:
    """Channel-use rate, error rates and memory bookkeeping for one link."""

    channel_use_rate: float = 90e6    # Hz
    qber_x: float = CALIBRATED_QBER
    qber_z: float = CALIBRATED_QBER
    ec_inefficiency: float = 1.10     # >= 1
    herald_probability: float = 1.0
    mode_count: int = 112
    memory_lifetime: float = 463.0    # s

    def __post_init__(self):
        if not self.channel_use_rate > 0.0:
            raise ValueError("channel_use_rate must be positive")
        for name in ("qber_x", "qber_z"):
            if not 0.0 <= getattr(self, name) <= 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5]")
        if not self.ec_inefficiency >= 1.0:
            raise ValueError("ec_inefficiency must be at least 1")
        if not 0.0 <= self.herald_probability <= 1.0:
            raise ValueError("herald_probability must lie in [0, 1]")
        if self.mode_count < 1:
            raise ValueError("mode_count must be at least 1")
        if not self.memory_lifetime >= 0.0:
            raise ValueError("memory_lifetime must be non-negative")


def binary_entropy(e: float) -> float:
    """Binary entropy h(e) in bits, continuously extended to h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def key_bracket(q: QKDParams) -> float:
    """Post-processing bracket 1 - h(e_X) - f h(e_Z); may be negative."""
    return 1.0 - binary_entropy(q.qber_x) - q.ec_inefficiency * binary_entropy(q.qber_z)


def key_fraction(yield_probability: float, q: QKDParams) -> float:
    """Secret bits per channel use, clamped at zero above the error threshold."""
    if not 0.0 <= yield_probability <= 1.0:
        raise ValueError("yield must lie in [0, 1]")
    return max(0.0, 0.5 * yield_probability * key_bracket(q))


def instantaneous_skr(q: QKDParams, yield_probability: float) -> float:
    """Secret bits per second: channel-use rate times mode count times key fraction."""
    return q.channel_use_rate * q.mode_count * key_fraction(yield_probability, q)


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def yield_dual(eta_a: float, eta_b: float, herald_probability: float = 1.0) -> float:
    """Per-use yield of simultaneous downlinks to two stations."""
    _check_probability("eta_a", eta_a)
    _check_probability("eta_b", eta_b)
    _check_probability("herald_probability", herald_probability)
    return herald_probability * eta_a * eta_b


def yield_buffered(
    eta_first: float,
    eta_second: float,
    memory_efficiency: float,
    herald_probability: float = 1.0,
) -> float:
    """Per-use yield of sequential overhead downlinks bridged by storage."""
    _check_probability("eta_first", eta_first)
    _check_probability("eta_second", eta_second)
    _check_probability("memory_efficiency", memory_efficiency)
    _check_probability("herald_probability", herald_probability)
    return herald_probability * memory_efficiency * eta_first * eta_second


def feasibility(memory_lifetime: float, buffer_interval: float) -> bool:
    """Whether the memory lives long enough to bridge the buffer interval."""
    if not (memory_lifetime >= 0.0 and buffer_interval >= 0.0):
        raise ValueError("times must be non-negative")
    if math.inf in (memory_lifetime, buffer_interval):
        raise ValueError("times must be finite")
    return memory_lifetime >= buffer_interval
