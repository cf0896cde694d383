"""The one CSV writer behind every artifact table: 17 significant digits.

Floats are written with `.17g`, so a table round-trips every double exactly;
complex cells read `re+imi`, booleans `1`/`0`, anything else `str()`.
"""

from __future__ import annotations

import csv


def write_csv(path, header: list[str], rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


def format_cell(cell) -> str:
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return f"{cell:.17g}"
    if isinstance(cell, complex):
        return f"{cell.real:.17g}{'+' if cell.imag >= 0 else '-'}{abs(cell.imag):.17g}i"
    return str(cell)
