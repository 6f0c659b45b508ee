"""Centralised numeric formatting for every emitted artifact.

Tables use 6 significant digits; CSV and key-value records use full
precision so values round-trip through text exactly. Every long-format CSV
(link and gain maps, kymographs) builds its lines with ``csv_block``.
"""

from __future__ import annotations

__all__ = ["csv_float", "csv_floats", "csv_block", "table_float", "config_value"]

_CSV_SPEC = ".17g"
_CSV_TEMPLATE = "%" + _CSV_SPEC


def csv_float(x: float) -> str:
    """Full-precision float for machine-readable output."""
    return format(x, _CSV_SPEC)


def csv_floats(values) -> list[str]:
    """``csv_float`` of every value; pass ``ndarray.tolist()`` for speed.

    ``"%.17g" % x`` and ``format(x, ".17g")`` both end in CPython's
    ``PyOS_double_to_string(x, 'g', 17)``, so they give the same text; the
    bound ``%`` method mapped in C skips a Python frame per value.
    """
    return list(map(_CSV_TEMPLATE.__mod__, values))


def csv_block(lead: str, tails) -> str:
    """The lines ``lead,tail`` for each of the non-empty ``tails``, each
    ending in a newline, built by one C-level join."""
    return lead + "," + ("\n" + lead + ",").join(tails) + "\n"


def table_float(x: float) -> str:
    """Six significant digits for human-facing tables."""
    return f"{x:.6g}"


def config_value(value) -> str:
    """Render a config field value; floats keep full precision."""
    if isinstance(value, float):
        return csv_float(value)
    return str(value)
