"""Command outputs against the files committed under tests/golden/.

The `reproduce all` CSVs were written by the 64x64 solver, before the sector
solve became the production path. The `calibrate` and `plateau` outputs under
golden/commands/ (CSV and sidecar) were written on the reference config
before the single solve became the one-row stacked solve and the
calibration's golden-section search became _polish_minimum; the `threshold`
outputs, in each direction and mode, and the `insulation` output once the
positive plateau let its saturated row win and insulation read the virtual
temperature of the machine's own baths.

Status and sentinel cells must match exactly. Numbers must match within
TOL.golden_relative, except in the columns that are differences or near zero
by nature, which must match within TOL.golden_absolute: t1_minus_tc is ~0
where T1 ~ T_c, the residual and the coherence are ~0, and a calibration's
relative errors |plateau - target| / target (the CSV's relative_error, the
sidecar's landscape errors and max_relative_error) are differences of
plateaus within 1e-4 of their targets, so one ulp of a plateau moves them
by up to ~3e-12 relative. Each CSV relative_error must also equal the value
recomputed from its own row's plateau_t1 and target_t1 exactly. The
couplings of a calibration's landscape must match exactly: they are the
points its search chose to evaluate.
"""

import csv
import json
from pathlib import Path

import pytest

from qfridge.cli import main
from qfridge.linalg import TOL
from qfridge.liouvillian import default_config

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = GOLDEN / "commands"
ABSOLUTE_COLUMNS = ("t1_minus_tc", "residual", "coherence", "relative_error")
# Sidecar results that are differences by nature, as ABSOLUTE_COLUMNS.
ABSOLUTE_RESULTS = ("landscape", "max_relative_error")


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _assert_csv_matches(golden_path, fresh_path):
    name = golden_path.name
    golden, fresh = _rows(golden_path), _rows(fresh_path)
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


def _assert_result_matches(expected, actual, where, absolute=False):
    """A sidecar's result: numbers within TOL.golden_relative (within
    TOL.golden_absolute under ABSOLUTE_RESULTS), the rest exact."""
    if isinstance(expected, float) and absolute:
        assert abs(actual - expected) <= TOL.golden_absolute, where
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=TOL.golden_relative, abs=0.0), where
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for k, (e, a) in enumerate(zip(expected, actual)):
            _assert_result_matches(e, a, f"{where}[{k}]", absolute)
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_result_matches(expected[key], actual[key], f"{where}.{key}",
                                   absolute or key in ABSOLUTE_RESULTS)
    else:
        assert actual == expected, where


def _run_and_compare(tmp_path, name, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(default_config().to_dict()))
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
    _assert_csv_matches(COMMANDS / f"{name}.csv", out)
    golden = json.loads((COMMANDS / f"{name}.json").read_text())
    fresh = json.loads(out.with_suffix(".json").read_text())
    for key in ("command", "config", "options", "output_path"):
        assert fresh[key] == golden[key], key
    _assert_result_matches(golden["result"], fresh["result"], "result")
    return golden["result"], fresh["result"]


def test_reproduce_all_matches_golden(tmp_path, capsys):
    assert main(["reproduce", "all", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in GOLDEN.glob("*.csv"))
    assert names == sorted(path.name for path in tmp_path.glob("*.csv"))
    for name in names:
        _assert_csv_matches(GOLDEN / name, tmp_path / name)


def test_calibrate_matches_golden(tmp_path, capsys):
    golden, fresh = _run_and_compare(tmp_path, "calibrate", ["calibrate"])
    capsys.readouterr()
    header, *rows = _rows(tmp_path / "calibrate.csv")
    for row in rows:
        cells = dict(zip(header, row))
        plateau, target = float(cells["plateau_t1"]), float(cells["target_t1"])
        assert float(cells["relative_error"]) == abs(plateau - target) / abs(target), row
    assert [g for g, _ in fresh["landscape"]] == [g for g, _ in golden["landscape"]]
    assert fresh["coupling"] == golden["coupling"]


@pytest.mark.parametrize("direction", ["positive", "negative"])
def test_plateau_matches_golden(tmp_path, direction):
    _run_and_compare(tmp_path, f"plateau_{direction}",
                     ["plateau", "--direction", direction])


@pytest.mark.parametrize("mode", ["plateau", "grid-edge"])
@pytest.mark.parametrize("direction", ["positive", "negative"])
def test_threshold_matches_golden(tmp_path, direction, mode):
    _run_and_compare(tmp_path, f"threshold_{direction}_{mode}",
                     ["threshold", "--direction", direction, "--threshold-mode", mode])


def test_insulation_matches_golden(tmp_path):
    _run_and_compare(tmp_path, "insulation",
                     ["insulation", "--gamma1", "1e-1,1e-2,1e-3,1e-4"])
