import numpy as np

from helpers import write_csv_by_cell
from semiq._csv import write_csv
from semiq.quantize import OperatorMatrix, export_operator_csv

FLOATS = [0.1, -0.0, 1e-300, 1e17, float("nan"), float("inf"), -2.5, 1.0 / 3.0]
COMPLEX = [1 - 2j, complex(0.5, -0.0), complex(-0.0, 0.0), complex(1e17, -1e-300), complex(0.1, float("nan")),
           complex(float("nan"), 1.0), -3j, 2 + 0j]


def test_column_writer_matches_cell_oracle(tmp_path):
    n = len(FLOATS)
    columns = [
        list(range(-3, n - 3)),
        np.arange(n) * 10**15,
        [k % 3 == 0 for k in range(n)],
        np.arange(n) % 2 == 0,
        [f"name,{k}" if k % 2 else f"q\"{k}" for k in range(n)],
        FLOATS,
        np.array(FLOATS)[::-1],
        [np.float64(value) for value in FLOATS],
        COMPLEX,
        np.array(COMPLEX)[::-1],
        [[1.0, -0.0]] * n,
    ]
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "columns.csv", header, columns)
    # the writer reads a numpy column as the Python scalars of .tolist()
    as_python = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    write_csv_by_cell(tmp_path / "cells.csv", header, zip(*as_python))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_operator_csv_matches_cell_oracle(tmp_path):
    rng = np.random.default_rng(36)
    op = OperatorMatrix(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    export_operator_csv(op, tmp_path / "op.csv")
    rows = ((i, j, value.real, value.imag) for (i, j), value in np.ndenumerate(op.mat))
    write_csv_by_cell(tmp_path / "oracle.csv", ["row", "col", "re", "im"], rows)
    assert (tmp_path / "op.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
