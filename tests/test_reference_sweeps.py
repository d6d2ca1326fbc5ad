"""Small sweeps of every model reproduce their pinned archives.

Every other contract test compares a run with itself, so a changed random
stream or formula would pass them.  Numbers are compared at rtol 1e-9, not
byte for byte, because BLAS and libm builds can differ in the last bits and
flip a printed digit; a change of stream moves them by far more.
"""

import os

import numpy.testing as npt
import pytest
from _reference_sweeps import CASES, SEEDS, case_dir, run_case


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return header, [row.split(",") for row in rows]


def assert_cells_close(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        try:
            reference = float(e)
        except ValueError:
            assert g == e
        else:
            npt.assert_allclose(float(g), reference, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CASES)
def test_sweep_reproduces_its_reference(tmp_path, name, seed):
    for filename in run_case(name, seed, str(tmp_path)):
        header, rows = read_rows(os.path.join(tmp_path, filename))
        ref_header, ref_rows = read_rows(os.path.join(case_dir(name, seed), filename))
        assert header == ref_header, filename
        assert len(rows) == len(ref_rows), filename
        for row, ref_row in zip(rows, ref_rows):
            assert_cells_close(row, ref_row)
