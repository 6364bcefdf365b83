import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge import steady_state
from qfridge.analysis import Direction, SweepRecord, ThresholdMode, best_case_t1, find_plateau
from qfridge.cli import RunManifest, _load_config, _write_sidecar, build_parser, main
from qfridge.linalg import TOL, LinalgError
from qfridge.liouvillian import DensityMatrixError, FridgeConfig, default_config
from tests.oracles import solve_sectors


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config().to_dict()))
    return str(path)


def read_rows(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_solve_single_row_cools_below_tc(config_path, tmp_path):
    out = str(tmp_path / "solve.csv")
    assert main(["solve", "--config", config_path, "--out", out]) == 0
    rows = read_rows(out)
    assert rows[0] == list(SweepRecord._fields)
    assert len(rows) == 2
    t1 = float(rows[1][1])
    assert t1 < 1.0                      # refrigeration at the reference point
    assert float(rows[1][2]) == pytest.approx(t1 - 1.0)
    sidecar = json.loads((tmp_path / "solve.json").read_text())
    assert sidecar["command"] == "solve"
    assert sidecar["config"]["coupling"] == 1.0
    assert "tolerances" in sidecar and "tool_version" in sidecar


def test_solve_writes_the_row_of_a_one_point_sweep(config_path, tmp_path):
    # One row builder serves both commands: at the config's own T_h = 10 they
    # write the same data row, byte for byte.
    assert main(["solve", "--config", config_path, "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["sweep-th", "--config", config_path, "--out", str(tmp_path / "b.csv"),
                 "--th-values", "10"]) == 0
    solved, swept = ((tmp_path / name).read_bytes().splitlines() for name in ("a.csv", "b.csv"))
    assert len(solved) == len(swept) == 2
    assert solved[1] == swept[1]


def test_an_impossible_hot_temperature_is_a_config_error(config_path, tmp_path, capsys):
    # Checked before any solve, like an empty list: no CSV is written.
    for values in ("2,0", "2,inf", "2,nan", "2,-1"):
        out = tmp_path / "x.csv"
        assert main(["sweep-th", "--config", config_path, "--out", str(out),
                     "--th-values", values]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ReservoirError"
        assert not out.exists()


def test_sweep_deterministic_and_closed_under_sidecar(config_path, tmp_path):
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    args = ["sweep-th", "--config", config_path, "--out", out1,
            "--th-start", "1", "--th-stop", "10", "--th-points", "7"]
    assert main(args) == 0
    assert main(args[:4] + [out2] + args[5:]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    # rerun purely from the sidecar: byte-identical output
    out3 = str(tmp_path / "s3.csv")
    assert main(["sweep-th", "--config", str(tmp_path / "s1.json"),
                 "--out", out3]) == 0
    assert (tmp_path / "s3.csv").read_bytes() == (tmp_path / "s1.csv").read_bytes()


def test_sidecars_do_not_depend_on_the_output_directory(config_path, tmp_path):
    args = ["sweep-th", "--config", config_path, "--th-values", "2,6"]
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert main(args + ["--out", str(tmp_path / name / "sweep.csv")]) == 0
    sidecar = (tmp_path / "a" / "sweep.json").read_bytes()
    assert sidecar == (tmp_path / "b" / "sweep.json").read_bytes()
    manifest = json.loads(sidecar)
    assert manifest["output_path"] == "sweep.csv"
    for name in ("population_sum", "direct_asymmetry", "calibration_relative",
                 "sweep_failed_fraction"):
        assert name in manifest["tolerances"]


def test_one_parser_serves_every_command_of_a_process(config_path, tmp_path):
    # main parses with one cached parser: no command's options reach the
    # sidecar of the next command run in the same process.
    runs = {"first": ["plateau", "--direction", "negative"],
            "sweep": ["sweep-th", "--th-values", "2,6"],
            "again": ["plateau"]}
    for name, argv in runs.items():
        assert main(argv + ["--config", config_path, "--out", str(tmp_path / f"{name}.csv")]) == 0
    options = {name: json.loads((tmp_path / f"{name}.json").read_text())["options"]
               for name in runs}
    assert options == {"first": {"direction": "negative"},
                       "sweep": {"th_values": "2,6", "th_spacing": "linear"},
                       "again": {"direction": "positive"}}
    assert build_parser() is build_parser()


def test_sidecar_recording_parallel_still_reproduces(config_path, tmp_path):
    # Sidecars written while --parallel selected a thread count carry it in
    # their options; they still run, and the rewritten sidecar drops it. The
    # flag itself is gone: like any unknown flag it is a usage error.
    out1 = str(tmp_path / "a.csv")
    assert main(["sweep-th", "--config", config_path, "--out", out1,
                 "--th-values", "2,6"]) == 0
    sidecar = json.loads((tmp_path / "a.json").read_text())
    sidecar["options"]["parallel"] = 4
    (tmp_path / "old.json").write_text(json.dumps(sidecar))
    out2 = str(tmp_path / "b.csv")
    assert main(["sweep-th", "--config", str(tmp_path / "old.json"), "--out", out2]) == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert "parallel" not in json.loads((tmp_path / "b.json").read_text())["options"]
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep-th", "--config", config_path, "--out", out2, "--parallel", "2"])
    assert excinfo.value.code == 2


def test_config_error_exit_code_and_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gaps": [1.0], "gammas": [1.0],
                               "coupling": 1.0, "reservoirs": []}))
    code = main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError"
    assert error["exit_code"] == 2


def test_solve_with_an_underflowing_hot_ratio_is_a_config_error(tmp_path, capsys):
    config = default_config(gaps=(1.0, 1.0 + 1e-20, 1e-20), th=1e308)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ReservoirError"


def test_empty_sweep_list_is_a_config_error(config_path, tmp_path, capsys):
    code = main(["sweep-th", "--config", config_path,
                 "--out", str(tmp_path / "x.csv"), "--th-values", ","])
    assert code == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def _edited_config(edit):
    document = default_config().to_dict()
    edit(document)
    return document


def _reservoir_edit(index, **fields):
    return lambda document: document["reservoirs"][index].update(fields)


MALFORMED_INPUTS = [
    pytest.param(_edited_config(lambda d: d.update(coupling="1")), "ConfigError",
                 id="coupling-string"),
    pytest.param(_edited_config(lambda d: d.update(coupling=None)), "ConfigError",
                 id="coupling-null"),
    pytest.param(_edited_config(_reservoir_edit(2, temperature="hot")), "ReservoirError",
                 id="temperature-string"),
    pytest.param(_edited_config(lambda d: d.update(gaps=[1.0, "five", 4.0])), "ConfigError",
                 id="gap-string"),
    pytest.param(_edited_config(_reservoir_edit(0, statistics="quantum")), "ReservoirError",
                 id="statistics-unknown"),
    pytest.param(_edited_config(lambda d: d.update(gaps=5)), "ConfigError",
                 id="gaps-number"),
    pytest.param(_edited_config(lambda d: d.update(gaps=[1e308, 1.0, 1e308])), "ConfigError",
                 id="detuning-overflows"),
    pytest.param(RunManifest(command="sweep-th", config=default_config(),
                             options={"th_start": 1.0, "th_stop": 10.0, "th_points": "abc"},
                             output_path="x.csv").to_dict(),
                 "ConfigError", id="sidecar-th-points-string"),
    pytest.param(RunManifest(command="sweep-th", config=default_config(),
                             options={"th_start": 1.0, "th_stop": 10.0, "th_points": 4,
                                      "th_spacing": "bogus"},
                             output_path="x.csv").to_dict(),
                 "ConfigError", id="sidecar-th-spacing-unknown"),
    pytest.param(RunManifest(command="sweep-th", config=default_config(),
                             options={"th_start": 1.0, "th_stop": 10.0, "th_points": 0},
                             output_path="x.csv").to_dict(),
                 "ConfigError", id="sidecar-th-points-0"),
    pytest.param(RunManifest(command="sweep-th", config=default_config(),
                             options={"th_start": -1.0, "th_stop": 10.0, "th_points": 4,
                                      "th_spacing": "log"},
                             output_path="x.csv").to_dict(),
                 "ConfigError", id="sidecar-log-spacing-across-0"),
    pytest.param(RunManifest(command="sweep-th", config=default_config(),
                             options={"th_values": "1,x"}, output_path="x.csv").to_dict(),
                 "ConfigError", id="sidecar-th-values-string"),
    pytest.param(dict(RunManifest(command="sweep-th", config=default_config(), options={},
                                  output_path="x.csv").to_dict(), options=[1]),
                 "ConfigError", id="sidecar-options-list"),
    pytest.param(None, "IsADirectoryError", id="config-is-a-directory"),
]


@pytest.mark.parametrize("document, error", MALFORMED_INPUTS)
def test_malformed_input_exits_2_with_an_error_line(document, error, tmp_path, capsys):
    # Each input once escaped main as a raw TypeError, ValueError or
    # IsADirectoryError traceback.
    path = tmp_path
    if document is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
    command = "sweep-th" if document and "command" in document else "solve"
    code = main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    line = json.loads(capsys.readouterr().err)
    assert line["error"] == error
    assert line["exit_code"] == 2


ROUND_TRIPS = [
    pytest.param(["sweep-th", "--th-start", "1", "--th-stop", "100", "--th-points", "4",
                  "--th-spacing", "log"], [], None, id="sweep-log"),
    pytest.param(["plateau", "--direction", "negative"], [], None, id="plateau-negative"),
    pytest.param(["threshold", "--direction", "positive", "--threshold-mode", "grid-edge"],
                 [], None, id="threshold-grid-edge"),
    pytest.param(["insulation", "--gamma1", "1e-2,1e-3"], [], None, id="insulation"),
    pytest.param(["calibrate", "--g-grid", "0.5,1.0"], [], None, id="calibrate"),
    # An explicit flag overrides the sidecar's value; the sidecar's other
    # options still hold.
    pytest.param(["sweep-th", "--th-start", "1", "--th-stop", "100", "--th-points", "4",
                  "--th-spacing", "log"], ["--th-points", "3"],
                 ["sweep-th", "--th-start", "1", "--th-stop", "100", "--th-points", "3",
                  "--th-spacing", "log"], id="flag-overrides-sidecar"),
]


@pytest.mark.parametrize("first, flags, expected", ROUND_TRIPS)
def test_a_sidecar_reruns_its_own_run(first, flags, expected, config_path, tmp_path):
    # Rerun a run from its sidecar, plus any flags, and compare with a fresh
    # run of the expected command line (the first run itself when none).
    assert main(first + ["--config", config_path, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([first[0], "--config", str(tmp_path / "a.json"),
                 "--out", str(tmp_path / "b.csv")] + flags) == 0
    reference = "a"
    if expected is not None:
        reference = "e"
        assert main(expected + ["--config", config_path,
                                "--out", str(tmp_path / "e.csv")]) == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / f"{reference}.csv").read_bytes()
    fresh, rerun = (json.loads((tmp_path / name).read_text())
                    for name in (f"{reference}.json", "b.json"))
    assert rerun["options"] == fresh["options"]
    assert rerun.get("result") == fresh.get("result")


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("command", [
    pytest.param(["plateau"], id="plateau-positive"),
    pytest.param(["plateau", "--direction", "negative"], id="plateau-negative"),
    pytest.param(["insulation"], id="insulation"),
    pytest.param(["solve"], id="solve"),
])
def test_no_non_finite_number_reaches_a_file(command, tmp_path):
    # A decoupled qubit next to a hot fermionic cold bath reads T1 as an
    # infinite temperature, which the searches collapse onto +inf.
    document = default_config(coupling=0.0).to_dict()
    document["reservoirs"][0].update(statistics="fermionic", temperature=1e14)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "x.csv"
    assert main(command + ["--config", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [cell for row in rows for cell in row
            if cell.lower() in ("inf", "-inf", "nan")] == []
    for row in rows[1:]:
        if row[1] == "":
            assert row[5] != "ok"
    json.loads(out.with_suffix(".json").read_text(), parse_constant=_reject_constant)


_LOG_UNIFORM = st.floats(-8.0, 8.0).map(lambda exponent: 10.0 ** exponent)
_SIGNED = st.tuples(st.sampled_from((1.0, -1.0)), _LOG_UNIFORM).map(lambda p: p[0] * p[1])


@st.composite
def boundary_documents(draw):
    """Config documents as a user could write them: gaps, gammas, g and
    |temperatures| log-uniform over 1e-8..1e8, each bath bosonic or
    fermionic at either sign, about one in five pinned at an occupation."""
    reservoirs = []
    for role in ("cold", "room", "hot"):
        statistics = draw(st.sampled_from(("bosonic", "fermionic")))
        reservoir = {"statistics": statistics, "temperature": draw(_SIGNED), "role": role}
        if draw(st.integers(0, 4)) == 0:
            reservoir["occupation_override"] = draw(
                st.floats(0.0, 1.0) if statistics == "fermionic" else _LOG_UNIFORM)
        reservoirs.append(reservoir)
    return {"gaps": [draw(_LOG_UNIFORM) for _ in range(3)],
            "gammas": [draw(_LOG_UNIFORM) for _ in range(3)],
            "coupling": draw(_LOG_UNIFORM), "reservoirs": reservoirs}


def _number_list(values):
    return ",".join(repr(value) for value in values)


# Each command's flags; a list value is given as --flag=value, since argparse
# would read a leading minus sign as a flag.
BOUNDARY_COMMANDS = {
    "solve": st.just(["solve"]),
    "sweep-th": st.lists(_SIGNED, min_size=1, max_size=4).map(
        lambda values: ["sweep-th", "--th-values=" + _number_list(values)]),
    "plateau-positive": st.just(["plateau", "--direction", "positive"]),
    "plateau-negative": st.just(["plateau", "--direction", "negative"]),
    "threshold": st.tuples(st.sampled_from(("positive", "negative")),
                           st.sampled_from(("plateau", "grid-edge"))).map(
        lambda pair: ["threshold", "--direction", pair[0], "--threshold-mode", pair[1]]),
    "insulation": st.lists(_LOG_UNIFORM, min_size=1, max_size=4).map(
        lambda values: ["insulation", "--gamma1=" + _number_list(values)]),
}


def _main_with_stderr(argv):
    """main(argv)'s exit code and what it wrote to stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("command", sorted(BOUNDARY_COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_documents_keep_the_cli_contract(command, data):
    # A guard, not a fix: whatever a document holds, main exits 0, 2, 3 or
    # 4 and raises nothing (a RuntimeWarning fails the suite). A run that
    # writes no files writes one JSON error line; a run that does writes no
    # nan or inf, and its sidecar reruns its CSV byte for byte.
    document = data.draw(boundary_documents())
    argv = data.draw(BOUNDARY_COMMANDS[command])
    with tempfile.TemporaryDirectory() as directory:
        config, first, second = (os.path.join(directory, name)
                                 for name in ("config.json", "a.csv", "b.csv"))
        with open(config, "w") as handle:
            json.dump(document, handle)
        code, stderr = _main_with_stderr(argv + ["--config", config, "--out", first])
        assert code in (0, 2, 3, 4)
        if not os.path.exists(first):
            assert code != 0
            [line] = stderr.splitlines()
            assert json.loads(line)["exit_code"] == code
            return
        assert stderr == ""
        assert [cell for row in read_rows(first) for cell in row
                if cell.lower() in ("inf", "-inf", "nan")] == []
        sidecar = os.path.splitext(first)[0] + ".json"
        with open(sidecar) as handle:
            json.load(handle, parse_constant=_reject_constant)
        assert _main_with_stderr([argv[0], "--config", sidecar, "--out", second]) == (code, "")
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def test_failed_points_keep_csv_clean(tmp_path):
    # Disconnected qubit 1: every point fails; numeric cells must be empty,
    # never NaN, and the exit code flags the solver failure.
    config = default_config(coupling=0.0, gammas=(0.0, 1.0, 1.0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    out = str(tmp_path / "fail.csv")
    code = main(["sweep-th", "--config", str(path), "--out", out,
                 "--th-values", "2,5"])
    assert code == 3
    rows = read_rows(out)
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[1] == "" and row[3] == ""       # no NaN leaks
        assert "MultiplicityError" in row[5]
    text = open(out).read()
    assert "nan" not in text and "inf" not in text


def test_an_overflowing_exchange_rate_writes_its_residual(tmp_path):
    # g = 1e160 overflows kappa in the float chain; the residual cell holds
    # the wide chain's defect, not an empty cell next to status ok.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config(coupling=1e160).to_dict()))
    out = str(tmp_path / "solve.csv")
    assert main(["solve", "--config", str(path), "--out", out]) == 0
    row = read_rows(out)[1]
    assert row[5] == "ok"
    assert 0.0 <= float(row[3]) <= TOL.steady_residual_direct


def test_a_residual_that_is_not_finite_fails_its_row(config_path, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(steady_state, "_residuals",
                        lambda law, generators, unit: np.full(len(law), np.nan))
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-th", "--config", config_path, "--out", out,
                 "--th-values", "2,5"]) == 3
    for row in read_rows(out)[1:]:
        assert row[3] == ""
        assert row[5].startswith("SteadyStateError: steady-state residual nan exceeds")
    assert main(["solve", "--config", config_path, "--out", str(tmp_path / "x.csv")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "SteadyStateError"


def test_a_solved_state_that_fails_its_check_fails_its_row(config_path, tmp_path, monkeypatch,
                                                           capsys):
    # A DensityMatrixError of a solved state is the solve's failure, a
    # SteadyStateError caused by it; a LinalgError (a state that is not
    # finite) is the row's error as it is.
    invalid = DensityMatrixError("state is not positive semidefinite")
    not_finite = LinalgError("matrix has non-finite entries")
    monkeypatch.setattr(steady_state, "_sector_state_errors",
                        lambda x: dict(enumerate([invalid, not_finite][:len(x)])))
    errors = solve_sectors(default_config(), [2.0, 5.0]).errors
    assert type(errors[0]) is steady_state.SteadyStateError and errors[0].__cause__ is invalid
    assert str(errors[0]) == ("direct solve produced an invalid state: "
                              "state is not positive semidefinite")
    assert errors[1] is not_finite
    assert main(["solve", "--config", config_path, "--out", str(tmp_path / "x.csv")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "SteadyStateError"


def test_the_benchmark_commands_solve_no_row_wide(config_path, tmp_path, monkeypatch, capsys):
    # reproduce all and README's grid-edge threshold and insulation
    # commands, which the benchmark's reproduce workload runs, solve every
    # stack on the main path: _wide_law, which re-solves a whole stack when
    # any of its rows under- or overflows, is never called.
    calls = []
    wide_law = steady_state._wide_law

    def counted(mantissas, exponents, root=0):
        calls.append(len(mantissas))
        return wide_law(mantissas, exponents, root)

    monkeypatch.setattr(steady_state, "_wide_law", counted)
    assert main(["reproduce", "all", "--out", str(tmp_path)]) == 0
    assert main(["threshold", "--config", config_path, "--out", str(tmp_path / "t.csv"),
                 "--direction", "positive", "--threshold-mode", "grid-edge"]) == 0
    assert main(["insulation", "--config", config_path, "--out", str(tmp_path / "i.csv"),
                 "--gamma1", "1e-1,1e-2,1e-3,1e-4"]) == 0
    assert calls == []
    # the hook counts: a row whose kappa overflows is solved wide
    solve_sectors(default_config(coupling=1e160))
    assert calls == [1]


def test_sentinel_emission_for_frozen_qubit(tmp_path):
    # Decoupled machine with an ultracold bath: p_excited underflows and the
    # temperature column must carry the sentinel string.
    config = default_config(tc=1e-3, coupling=0.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    out = str(tmp_path / "cold.csv")
    assert main(["solve", "--config", str(path), "--out", out]) == 0
    rows = read_rows(out)
    assert rows[1][1] == "zero_temp+"
    assert rows[1][2] == "zero_temp+"


def test_threshold_command_grid_edge(config_path, tmp_path):
    out = str(tmp_path / "thr.csv")
    assert main(["threshold", "--config", config_path, "--out", out,
                 "--direction", "positive", "--threshold-mode", "grid-edge"]) == 0
    rows = read_rows(out)
    threshold, t1, t1_minus_tc = (float(v) for v in rows[1][:3])
    assert threshold == pytest.approx(0.476, abs=5e-3)
    # the row carries the window-edge T1 at the threshold, not the plateau;
    # at T_c* = 1/2.1 the exchange carries no flux (p2 = p5), so T1 = T_c
    at_threshold = default_config().with_cold_temperature(threshold)
    assert t1 == best_case_t1(at_threshold, Direction.POSITIVE, ThresholdMode.GRID_EDGE)
    assert t1 == pytest.approx(1.0 / 2.1, rel=1e-12, abs=0.0)
    assert t1_minus_tc == t1 - threshold
    sidecar = json.loads((tmp_path / "thr.json").read_text())
    assert sidecar["result"]["mode"] == "grid-edge"


def test_threshold_command_plateau_mode_row_carries_the_plateau(config_path, tmp_path):
    out = str(tmp_path / "thr.csv")
    assert main(["threshold", "--config", config_path, "--out", out,
                 "--direction", "negative", "--threshold-mode", "plateau"]) == 0
    rows = read_rows(out)
    threshold, t1 = float(rows[1][0]), float(rows[1][1])
    assert threshold == pytest.approx(0.0270, abs=5e-4)
    at_threshold = default_config().with_cold_temperature(threshold)
    assert t1 == find_plateau(at_threshold, Direction.NEGATIVE).plateau_t1


def test_threshold_exits_nonconvergent_without_bracket(tmp_path, capsys):
    # Room bath hotter than the hot bath: no cooling at any T_c, exit 4.
    config = default_config(tc=1.0, tr=20.0, th=10.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    code = main(["threshold", "--config", str(path),
                 "--out", str(tmp_path / "t.csv"),
                 "--direction", "positive", "--threshold-mode", "grid-edge"])
    assert code == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "BracketError"


def test_insulation_command(config_path, tmp_path):
    out = str(tmp_path / "ins.csv")
    assert main(["insulation", "--config", config_path, "--out", out,
                 "--gamma1", "1e-1,1e-2,1e-3"]) == 0
    rows = read_rows(out)
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == [1e-1, 1e-2, 1e-3]
    sidecar = json.loads((tmp_path / "ins.json").read_text())
    assert sidecar["result"]["analytic_t1"] == pytest.approx(0.47619, abs=1e-4)


def test_insulation_exits_nonconvergent_when_the_machine_never_cools(tmp_path, capsys):
    # Hot bath at 1, room at 2: the machine has no virtual temperature for
    # T1 to approach, the same BracketError as a missing threshold, exit 4.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config(th=1.0).to_dict()))
    assert main(["insulation", "--config", str(path), "--out", str(tmp_path / "i.csv")]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "BracketError"
    assert not (tmp_path / "i.csv").exists()


def test_a_pinned_cold_bath_is_compared_at_the_temperature_its_rates_hold(tmp_path):
    # A cold bath pinned at n1 = 0.2 holds T_c = 1/ln 6 = 0.558 whatever its
    # nominal temperature (1 here), so T1 = 0.549 is 0.009 below it.
    document = default_config().to_dict()
    document["reservoirs"][0]["occupation_override"] = 0.2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    out = str(tmp_path / "solve.csv")
    assert main(["solve", "--config", str(path), "--out", out]) == 0
    t1, t1_minus_tc = (float(v) for v in read_rows(out)[1][1:3])
    tc = 1.0 / math.log(6.0)
    assert FridgeConfig.from_dict(document).cold_temperature == pytest.approx(tc, rel=1e-15)
    assert t1 == pytest.approx(0.5492, abs=1e-4)
    assert t1_minus_tc == pytest.approx(t1 - tc, rel=1e-12)
    # at n = 1/2 the bath is infinitely hot: the cell is written empty, and
    # the status says why
    document["reservoirs"][0].update(statistics="fermionic", occupation_override=0.5)
    assert FridgeConfig.from_dict(document).cold_temperature == math.inf
    path.write_text(json.dumps(document))
    assert main(["solve", "--config", str(path), "--out", out]) == 0
    row = read_rows(out)[1]
    assert row[2] == "" and row[5] == "non-finite t1_minus_tc"


def test_plateau_command_negative(config_path, tmp_path):
    out = str(tmp_path / "plat.csv")
    assert main(["plateau", "--config", config_path, "--out", out,
                 "--direction", "negative"]) == 0
    sidecar = json.loads((tmp_path / "plat.json").read_text())
    assert sidecar["result"]["plateau_t1"] == pytest.approx(0.78047, abs=1e-4)


def test_reproduce_fig2_files(tmp_path):
    out_dir = str(tmp_path / "repro")
    assert main(["reproduce", "fig2", "--out", out_dir]) == 0
    for tc in ("1", "1.5", "2"):
        rows = read_rows(f"{out_dir}/fig2_tc{tc}.csv")
        assert rows[0] == list(SweepRecord._fields)
        assert len(rows) == 47
        t1 = [float(r[1]) for r in rows[1:]]
        assert t1[-1] < t1[0]            # cooling improves across the window


def test_reproduce_fig4_tables(tmp_path):
    out_dir = str(tmp_path / "repro4")
    assert main(["reproduce", "fig4", "--out", out_dir]) == 0
    rows_a = read_rows(f"{out_dir}/fig4a.csv")
    assert rows_a[0] == ["tc", "lowest_t1_positive", "lowest_t1_negative"]
    lows = {float(r[0]): (float(r[1]), float(r[2])) for r in rows_a[1:]}
    assert set(lows) == {1.0, 1.5, 2.0}
    for tc, (pos, neg) in lows.items():
        assert neg < pos < tc            # negative side always cools deeper
    rows_b = read_rows(f"{out_dir}/fig4b.csv")
    assert rows_b[0] == ["tc", "cooling_percent_positive", "cooling_percent_negative"]
    rows_t = read_rows(f"{out_dir}/fig4_thresholds.csv")
    modes = {(r[0], r[1]): float(r[2]) for r in rows_t[1:]}
    assert modes[("positive", "grid-edge")] == pytest.approx(0.476, abs=5e-3)
    assert modes[("negative", "plateau")] == pytest.approx(0.027, abs=1e-3)


def test_reproduce_all_writes_a_sidecar_per_csv(tmp_path, capsys):
    assert main(["reproduce", "all", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 9
    for path in csvs:
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["output_path"] == path.name


def test_manifest_round_trip(tmp_path):
    # A written sidecar read back by --config gives the run's config and
    # options.
    manifest = RunManifest(command="sweep-th", config=default_config(),
                           options={"th_values": "1,2,3", "parallel": 2},
                           output_path=str(tmp_path / "out.csv"))
    sidecar = _write_sidecar(manifest.output_path, manifest)
    assert _load_config(sidecar) == (manifest.config, manifest.options)
