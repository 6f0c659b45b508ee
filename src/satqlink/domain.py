"""One domain rule for every numeric parameter: a value passes only if it is a
finite number inside its domain; anything else, NaN and +-inf included, raises
``ValueError("<name> must be <domain>, got <value>")``. Imports only ``math``.
"""

import math

_LEAST = math.nextafter(0.0, 1.0)  # the least positive float: (0, x] is [_LEAST, x]


class Domain:
    """The finite x with low <= x <= high, named ``text`` in a rejection."""

    def __init__(self, text: str, low: float = -math.inf, high: float = math.inf):
        self.text, self.low, self.high = text, low, high


POSITIVE = Domain("positive and finite", _LEAST)
NON_NEGATIVE = Domain("non-negative and finite", 0.0)
FINITE = Domain("finite")
PROBABILITY = Domain("in [0, 1]", 0.0, 1.0)
TRANSMISSION = Domain("in (0, 1]", _LEAST, 1.0)
ELEVATION = Domain("in (0, pi/2]", _LEAST, math.pi / 2.0)


def require(domain: Domain, **values) -> None:
    """Raise ValueError naming the first of ``values`` outside ``domain``."""
    for name, value in values.items():
        if not (math.isfinite(value) and domain.low <= value <= domain.high):
            raise ValueError(f"{name} must be {domain.text}, got {value}")


def require_fields(obj, domain: Domain, *names: str) -> None:
    """:func:`require` on the attributes ``names`` of ``obj``."""
    require(domain, **{name: getattr(obj, name) for name in names})
