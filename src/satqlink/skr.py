"""Asymptotic BB84 secret-key rates with one-way post-processing.

The extractable fraction per channel use is (Y/2) * [1 - h(e_X) - f h(e_Z)],
clamped at zero, where Y is the heralded success probability per use and h
the binary entropy. The instantaneous rate multiplies by the channel-use
rate and by the number of parallel temporal modes.
"""

import math
from typing import Annotated

from .domain import AT_LEAST_ONE, COUNT, NON_NEGATIVE, POSITIVE, PROBABILITY, QBER, Record, require

__all__ = [
    "QKDParams",
    "binary_entropy",
    "key_bracket",
    "key_fraction",
    "instantaneous_skr",
    "yield_dual",
    "yield_buffered",
    "feasibility",
]


class QKDParams(Record):
    """Channel-use rate, error rates and memory bookkeeping for one link."""

    channel_use_rate: Annotated[float, POSITIVE]     # Hz
    qber_x: Annotated[float, QBER]
    qber_z: Annotated[float, QBER]
    ec_inefficiency: Annotated[float, AT_LEAST_ONE]
    herald_probability: Annotated[float, PROBABILITY]
    mode_count: Annotated[int, COUNT]
    memory_lifetime: Annotated[float, NON_NEGATIVE]  # s


def binary_entropy(e: float) -> float:
    """Binary entropy h(e) in bits, continuously extended to h(0) = h(1) = 0."""
    require(PROBABILITY, probability=e)
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def key_bracket(q: QKDParams) -> float:
    """Post-processing bracket 1 - h(e_X) - f h(e_Z); may be negative."""
    return 1.0 - binary_entropy(q.qber_x) - q.ec_inefficiency * binary_entropy(q.qber_z)


def key_fraction(yield_probability: float, q: QKDParams) -> float:
    """Secret bits per channel use, clamped at zero above the error threshold."""
    require(PROBABILITY, yield_probability=yield_probability)
    return max(0.0, 0.5 * yield_probability * key_bracket(q))


def instantaneous_skr(q: QKDParams, yield_probability: float) -> float:
    """Secret bits per second: channel-use rate times mode count times key
    fraction; a rate beyond the float range is a ConfigError."""
    rate = q.channel_use_rate * q.mode_count * key_fraction(yield_probability, q)
    require(NON_NEGATIVE, instantaneous_skr=rate)
    return rate


def yield_dual(eta_a: float, eta_b: float, herald_probability: float = 1.0) -> float:
    """Per-use yield of simultaneous downlinks to two stations."""
    require(PROBABILITY, eta_a=eta_a, eta_b=eta_b, herald_probability=herald_probability)
    return herald_probability * eta_a * eta_b


def yield_buffered(
    eta_first: float,
    eta_second: float,
    memory_efficiency: float,
    herald_probability: float = 1.0,
) -> float:
    """Per-use yield of sequential overhead downlinks bridged by storage."""
    require(PROBABILITY, eta_first=eta_first, eta_second=eta_second,
            memory_efficiency=memory_efficiency, herald_probability=herald_probability)
    return herald_probability * memory_efficiency * eta_first * eta_second


def feasibility(memory_lifetime: float, buffer_interval: float) -> bool:
    """Whether the memory lives long enough to bridge the buffer interval."""
    require(NON_NEGATIVE, memory_lifetime=memory_lifetime, buffer_interval=buffer_interval)
    return memory_lifetime >= buffer_interval
