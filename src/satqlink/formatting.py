"""Centralised numeric formatting for every emitted artifact.

Tables use 6 significant digits; CSV and key-value records use full
precision so values round-trip through text exactly. ``write_long_csv``
writes every long-format CSV (link and gain maps, kymographs), row by row.
"""

from __future__ import annotations

from contextlib import ExitStack

__all__ = ["csv_float", "csv_floats", "csv_block", "write_long_csv", "table_float", "config_value"]

_CSV_TEMPLATE = "%.17g"


def csv_float(x: float) -> str:
    """Full-precision float for machine-readable output."""
    return _CSV_TEMPLATE % x


def csv_floats(values) -> list[str]:
    """``csv_float`` of every value; pass ``ndarray.tolist()`` for speed.

    The template's bound ``%`` method, mapped in C, skips a Python frame per
    value.
    """
    return list(map(_CSV_TEMPLATE.__mod__, values))


def csv_block(lead: str, tails) -> str:
    """The lines ``lead,tail`` for each of the non-empty ``tails``, each
    ending in a newline, built by one C-level join."""
    return lead + "," + ("\n" + lead + ",").join(tails) + "\n"


def write_long_csv(outputs, row_labels, column_labels, rows) -> None:
    """Write long-format CSV files of ``(path, header, picks)`` in one pass.

    Each file gets its header, then per row one ``row,column,...`` line per
    column holding the row's series at ``picks``. A row (a tuple of
    ``array("d")`` or float64 ndarray series) is formatted once for every
    file, and reuses the previous row's lines if its series match them bit
    for bit; bits, not ``==``: -0.0 prints unlike 0.0, and NaN != NaN.
    """
    columns = csv_floats(column_labels)
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                 for path, _, _ in outputs]
        for file, (_, header, _) in zip(files, outputs):
            file.write(header + "\n")
        last_key = None
        for label, series in zip(csv_floats(row_labels), rows):
            key = b"".join(s.tobytes() for s in series)
            if key != last_key:
                last_key = key
                cells = [csv_floats(s.tolist()) for s in series]
                tails = [list(map(",".join, zip(columns, *[cells[i] for i in picks])))
                         for _, _, picks in outputs]
            for file, file_tails in zip(files, tails):
                file.write(csv_block(label, file_tails))


def table_float(x: float) -> str:
    """Six significant digits for human-facing tables."""
    return f"{x:.6g}"


def config_value(value) -> str:
    """Render a config field value; floats keep full precision."""
    if isinstance(value, float):
        return csv_float(value)
    return str(value)
