"""The one CSV writer behind every artifact table: 17 significant digits.

A table is given column by column, all of one length, and each column
holds values of one type, formatted by one formatter: floats with `.17g`,
so a table round-trips every double exactly; complex values as `re+imi`;
booleans as `1`/`0`; anything else with `str()`.  A numpy column is turned
into Python scalars by `.tolist()` first, which format faster than numpy
scalars.
"""

from __future__ import annotations

import csv

import numpy as np


def write_csv(path, header: list[str], columns):
    cells = [_format_column(column) for column in columns]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def _format_column(column) -> list[str]:
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    first = values[0] if values else None
    if isinstance(first, bool):
        return ["1" if value else "0" for value in values]
    if isinstance(first, float):
        return [f"{value:.17g}" for value in values]
    if isinstance(first, complex):
        values = np.asarray(values, dtype=complex)
        signs = np.where(values.imag >= 0, "+", "-").tolist()
        return [
            f"{re:.17g}{sign}{im:.17g}i"
            for re, sign, im in zip(values.real.tolist(), signs, np.abs(values.imag).tolist())
        ]
    return [str(value) for value in values]
