"""Centralised numeric formatting for every emitted artifact.

Tables use 6 significant digits; CSV and key-value records use full
precision so values round-trip through text exactly.
"""

from __future__ import annotations

__all__ = ["csv_float", "csv_floats", "table_float", "config_value"]

_CSV_SPEC = ".17g"


def csv_float(x: float) -> str:
    """Full-precision float for machine-readable output."""
    return format(x, _CSV_SPEC)


def csv_floats(values) -> list[str]:
    """``csv_float`` of every value; pass ``ndarray.tolist()`` for speed."""
    return [format(x, _CSV_SPEC) for x in values]


def table_float(x: float) -> str:
    """Six significant digits for human-facing tables."""
    return f"{x:.6g}"


def config_value(value) -> str:
    """Render a config field value; floats keep full precision."""
    if isinstance(value, float):
        return csv_float(value)
    return str(value)
