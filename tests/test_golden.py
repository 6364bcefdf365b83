"""`qfridge reproduce all` against the CSVs committed under tests/golden/.

The goldens were written by the 64x64 solver, before the sector solve became
the production path. Status and sentinel cells must match exactly. Numbers
must match within TOL.golden_relative, except in the columns that are
differences or near zero by nature (t1_minus_tc is ~0 where T1 ~ T_c, the
residual and the coherence), which must match within TOL.golden_absolute.
"""

import csv
from pathlib import Path

import pytest

from qfridge.cli import main
from qfridge.linalg import TOL

GOLDEN = Path(__file__).parent / "golden"
ABSOLUTE_COLUMNS = ("t1_minus_tc", "residual", "coherence")


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def test_reproduce_all_matches_golden(tmp_path, capsys):
    assert main(["reproduce", "all", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in GOLDEN.glob("*.csv"))
    assert names == sorted(path.name for path in tmp_path.glob("*.csv"))
    for name in names:
        golden, fresh = _rows(GOLDEN / name), _rows(tmp_path / name)
        assert fresh[0] == golden[0] and len(fresh) == len(golden), name
        for line, (golden_row, fresh_row) in enumerate(zip(golden[1:], fresh[1:]), start=2):
            for column, expected, actual in zip(golden[0], golden_row, fresh_row):
                where = f"{name} line {line} column {column}: {actual} vs {expected}"
                value = _number(expected)
                if value is None:
                    assert actual == expected, where
                elif column in ABSOLUTE_COLUMNS:
                    assert abs(float(actual) - value) <= TOL.golden_absolute, where
                else:
                    assert float(actual) == pytest.approx(
                        value, rel=TOL.golden_relative, abs=0.0), where
