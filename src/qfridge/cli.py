"""Command-line interface: batch runs, CSV emission, JSON sidecars.

Every run writes two files: a CSV of results and a JSON sidecar holding the
fully resolved manifest (command, config, options, tool version, tolerances).
The sidecar closes the loop: passing it back through --config reproduces the
CSV byte for byte.

Sweep-like commands (solve, sweep-th, plateau, threshold, insulation) share
the column set

    swept_value, t1, t1_minus_tc, residual, coherence, status

with sentinel strings for the singular temperature cases. calibrate and
reproduce-fig4 emit their natural tables instead. No NaN or infinity reaches a
file: a number that is not finite is written as an empty cell and as null in
the sidecar, and a sweep-like row whose t1 is not finite says so in its status.

Each command's options resolve in one place, main: the defaults of the OPTIONS
table, then the options a sidecar passed as --config recorded, then explicit
flags. A run records exactly its command's options.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 non-convergence.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass

from . import __version__
from .analysis import (
    AnalysisError,
    BracketError,
    CALIBRATED_COUPLING,
    Direction,
    REFERENCE_THRESHOLDS,
    ThresholdMode,
    _record,
    best_case_t1,
    calibrate_coupling,
    cooling_threshold,
    find_plateau,
    insulation_limit,
    solve_for_readout,
    sweep_hot_temperature,
)
from .linalg import TOL, LinalgError
from .liouvillian import ConfigError, FridgeConfig, default_config
from .reservoirs import ReservoirError
from .steady_state import SteadyStateError
from .thermometry import TemperatureSentinel, ThermometryError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NONCONVERGENCE = 4

CSV_COLUMNS = ("swept_value", "t1", "t1_minus_tc", "residual", "coherence", "status")

REPRODUCE_TCS = (1.0, 1.5, 2.0)
FIG2_TH_GRID = [1.0 + 0.2 * k for k in range(46)]              # 1 .. 10
FIG3_TH_GRID = [-10.0 * (0.12 / 10.0) ** (k / 45) for k in range(46)]  # -10 .. -0.12


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one run."""

    command: str
    config: FridgeConfig
    options: dict
    output_path: str

    def to_dict(self):
        return {
            "command": self.command,
            "config": self.config.to_dict(),
            "options": dict(self.options),
            "output_path": self.output_path,
            "tool_version": __version__,
            "tolerances": dataclasses.asdict(TOL),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            command=d["command"],
            config=FridgeConfig.from_dict(d["config"]),
            options=dict(d.get("options", {})),
            output_path=d.get("output_path", ""),
        )


def _format_value(value):
    """Shortest round-trip decimal; sentinels by name; missing or non-finite
    as empty."""
    if isinstance(value, TemperatureSentinel):
        return value.value
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    value = float(value)
    return repr(value) if math.isfinite(value) else ""


def _json_safe(value):
    """value with every non-finite number replaced by None, JSON's null."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])


def _write_sidecar(path, manifest, result_summary=None):
    sidecar = os.path.splitext(path)[0] + ".json"
    payload = manifest.to_dict()
    # Relative to the sidecar, so identical runs into different directories
    # write identical sidecars.
    payload["output_path"] = os.path.relpath(
        manifest.output_path, os.path.dirname(os.path.abspath(sidecar)))
    if result_summary is not None:
        payload["result"] = result_summary
    with open(sidecar, "w") as handle:
        json.dump(_json_safe(payload), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return sidecar


def _load_config(path):
    """Accept either a bare config document or a previously written sidecar."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ConfigError(f"{path} holds no JSON object")
    if "config" in document and "command" in document:
        if not isinstance(document.get("options", {}), dict):
            raise ConfigError(f"{path} holds sidecar options that are no JSON object")
        manifest = RunManifest.from_dict(document)
        return manifest.config, manifest.options
    return FridgeConfig.from_dict(document), {}


def _row(swept_value, t1, t1_minus_tc, residual=None, coherence=None, status="ok"):
    """One row of CSV_COLUMNS. A T1 that is a number but not a finite one
    (an infinite or inverted temperature collapsed onto +inf) is written
    empty, and its status says why."""
    if status == "ok" and isinstance(t1, float) and not math.isfinite(t1):
        status = "non-finite t1"
    return (swept_value, t1, t1_minus_tc, residual, coherence, status)


def _record_to_row(record):
    return _row(record.swept_value, record.t1, record.t1_minus_tc,
                record.residual, record.coherence_magnitude, record.status)


def _parse_float_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"empty number list {text!r}")
    return values


def _sweep_values(options):
    if options.get("th_values"):
        return _parse_float_list(options["th_values"])
    start, stop, points = (options.get(key) for key in ("th_start", "th_stop", "th_points"))
    if start is None or stop is None or points is None:
        raise ConfigError(
            "sweep needs either --th-values or all of --th-start/--th-stop/--th-points"
        )
    if points < 1:
        raise ConfigError("--th-points must be >= 1")
    if points == 1:
        return [start]
    if options["th_spacing"] == "log":
        if start * stop <= 0.0:
            raise ConfigError("log spacing needs endpoints of one sign")
        sign = 1.0 if start > 0 else -1.0
        ratio = (stop / start) ** (1.0 / (points - 1))
        return [sign * abs(start) * ratio ** k for k in range(points)]
    step = (stop - start) / (points - 1)
    return [start + step * k for k in range(points)]


# Each command returns (columns, rows, sidecar result or None, exit code);
# main writes the files.

def _cmd_solve(config, options):
    residual, readout = solve_for_readout(config)
    record = _record(config.reservoirs[2].temperature, config.cold_temperature,
                     (residual, readout.p_ground, readout.p_excited,
                      readout.effective_temperature))
    return CSV_COLUMNS, [_record_to_row(record)], None, EXIT_OK


def _cmd_sweep(config, options):
    rows = [_record_to_row(r)
            for r in sweep_hot_temperature(config, _sweep_values(options))]
    failed = sum(1 for row in rows if row[-1] != "ok")
    code = EXIT_SOLVER if failed > TOL.sweep_failed_fraction * len(rows) else EXIT_OK
    return CSV_COLUMNS, rows, None, code


def _cmd_plateau(config, options):
    plateau = find_plateau(config, Direction(options["direction"]))
    row = _row(plateau.plateau_detected_at, plateau.plateau_t1,
               plateau.plateau_t1 - config.cold_temperature)
    return CSV_COLUMNS, [row], {
        "plateau_t1": plateau.plateau_t1,
        "plateau_detected_at": plateau.plateau_detected_at,
        "tolerance_used": plateau.tolerance_used,
        "saturation_t1": plateau.saturation_t1,
        "walk_flattened": plateau.walk_flattened,
    }, EXIT_OK


def _cmd_threshold(config, options):
    direction = Direction(options["direction"])
    mode = ThresholdMode(options["threshold_mode"])
    threshold = cooling_threshold(config, direction, mode)
    t1 = best_case_t1(config.with_cold_temperature(threshold), direction, mode)
    return CSV_COLUMNS, [_row(threshold, t1, t1 - threshold)], {
        "threshold": threshold,
        "direction": direction.value,
        "mode": mode.value,
    }, EXIT_OK


def _cmd_insulation(config, options):
    result = insulation_limit(config, _parse_float_list(options["gamma1"]))
    tc = config.cold_temperature
    rows = [_row(g, t1, t1 - tc) for g, t1 in zip(result.gamma1_values, result.t1_values)]
    return CSV_COLUMNS, rows, {
        "analytic_t1": result.analytic_t1,
        "final_relative_gap": result.final_relative_gap,
        "smallest_usable_gamma1": result.smallest_usable_gamma1,
    }, EXIT_OK


def _cmd_calibrate(config, options):
    result = calibrate_coupling(config, search_grid=_parse_float_list(options["g_grid"]))
    rows = [(direction.value, tc, value, target, err)
            for (tc, direction), (value, target, err) in sorted(
                result.achieved.items(), key=lambda kv: (kv[0][1].value, kv[0][0]))]
    for line in result.report_lines():
        print(line)
    return ("direction", "tc", "plateau_t1", "target_t1", "relative_error"), rows, {
        "coupling": result.coupling,
        "max_relative_error": result.max_relative_error,
        "within_tolerance": result.within_tolerance,
        "landscape": [[g, err] for g, err in result.landscape],
    }, EXIT_OK if result.within_tolerance else EXIT_NONCONVERGENCE


def _reproduce_sweep_figure(name, th_grid, hot_statistics, out_dir):
    runs = []
    for tc in REPRODUCE_TCS:
        config = default_config(tc=tc, coupling=CALIBRATED_COUPLING,
                                hot_statistics=hot_statistics)
        rows = [_record_to_row(r) for r in sweep_hot_temperature(config, th_grid)]
        manifest = RunManifest(
            command="sweep-th", config=config,
            options={"th_values": ",".join(repr(v) for v in th_grid)},
            output_path=os.path.join(out_dir, f"{name}_tc{tc:g}.csv"),
        )
        runs.append((manifest, CSV_COLUMNS, rows, None))
    return runs


def _cmd_reproduce(scenario, out_dir):
    """The scenario's runs, each (manifest, columns, rows, sidecar result)."""
    runs = []
    if scenario in ("fig2", "all"):
        runs += _reproduce_sweep_figure("fig2", FIG2_TH_GRID, "bosonic", out_dir)
    if scenario in ("fig3", "all"):
        runs += _reproduce_sweep_figure("fig3", FIG3_TH_GRID, "fermionic", out_dir)
    if scenario in ("fig4", "all"):
        table_a, table_b = [], []
        for tc in REPRODUCE_TCS:
            config = default_config(tc=tc, coupling=CALIBRATED_COUPLING)
            low_pos = best_case_t1(config, Direction.POSITIVE)
            low_neg = best_case_t1(config, Direction.NEGATIVE)
            table_a.append((tc, low_pos, low_neg))
            table_b.append((tc,
                            100.0 * (tc - low_pos) / tc,
                            100.0 * (tc - low_neg) / tc))
        config = default_config(coupling=CALIBRATED_COUPLING)
        thresholds = [(direction.value, mode.value,
                       cooling_threshold(config, direction, mode),
                       REFERENCE_THRESHOLDS[direction])
                      for direction, mode in ((Direction.POSITIVE, ThresholdMode.GRID_EDGE),
                                              (Direction.POSITIVE, ThresholdMode.PLATEAU),
                                              (Direction.NEGATIVE, ThresholdMode.PLATEAU))]
        for name, columns, rows in (
                ("fig4a", ("tc", "lowest_t1_positive", "lowest_t1_negative"), table_a),
                ("fig4b", ("tc", "cooling_percent_positive", "cooling_percent_negative"),
                 table_b),
                ("fig4_thresholds", ("direction", "mode", "threshold", "reference"),
                 thresholds)):
            manifest = RunManifest(command="reproduce", config=config,
                                   options={"scenario": "fig4"},
                                   output_path=os.path.join(out_dir, f"{name}.csv"))
            runs.append((manifest, columns, rows, None))
    return runs


# Command -> (function, help).
_COMMANDS = {
    "solve": (_cmd_solve, "single steady state at the configured point"),
    "sweep-th": (_cmd_sweep, "sweep the hot-bath temperature"),
    "plateau": (_cmd_plateau, "lowest T1 as the hot bath saturates"),
    "threshold": (_cmd_threshold, "smallest cold temperature that still cools"),
    "insulation": (_cmd_insulation, "decouple the cooled qubit, gamma1 -> 0"),
    "calibrate": (_cmd_calibrate, "fit the coupling to the bundled targets"),
}


Option = namedtuple("Option", "commands type choices default help",
                    defaults=(str, None, None, None))

# Every option of every command, each stated once: the commands that take it,
# the type that reads a flag's text or a sidecar's value, and its choices
# (the first is the default) or its default. The flags carry no argparse
# default, so that main can tell a flag given from one left out.
OPTIONS = {
    "th_values": Option(("sweep-th",), help="comma-separated explicit grid"),
    "th_start": Option(("sweep-th",), float),
    "th_stop": Option(("sweep-th",), float),
    "th_points": Option(("sweep-th",), int),
    "th_spacing": Option(("sweep-th",), choices=("linear", "log")),
    "direction": Option(("plateau", "threshold"), choices=("positive", "negative")),
    "threshold_mode": Option(("threshold",), choices=("plateau", "grid-edge")),
    "gamma1": Option(("insulation",), default="1e-1,1e-2,1e-3,1e-4",
                     help="comma-separated decreasing gamma1 sequence"),
    "g_grid": Option(("calibrate",), default="0.05,0.1,0.2,0.5,1.0"),
}


def _checked(name, value):
    """A sidecar's value for option name, read as the text of its flag."""
    option = OPTIONS[name]
    try:
        checked = option.type(str(value))
        if option.choices and checked not in option.choices:
            raise ValueError(f"not one of {', '.join(option.choices)}")
    except ValueError as exc:
        raise ConfigError(f"invalid option {name}={value!r}: {exc}") from exc
    return checked


def _resolve(args, recorded):
    """The options of args.command, and only those: table defaults, then the
    sidecar's recorded values, then explicit flags, each overriding the last."""
    taken = {name: option for name, option in OPTIONS.items() if args.command in option.commands}
    options = {name: (option.choices or [option.default])[0] for name, option in taken.items()}
    options.update((name, _checked(name, recorded[name]))
                   for name in taken if recorded.get(name) is not None)
    options.update((name, getattr(args, name))
                   for name in taken if getattr(args, name) is not None)
    return {name: value for name, value in options.items() if value is not None}


@functools.cache
def build_parser():
    """The command-line parser, built once per process: argparse parses
    each call into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qfridge",
        description="Steady states and cooling curves of the three-qubit "
                    "autonomous refrigerator.",
    )
    parser.add_argument("--version", action="version", version=f"qfridge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True,
                       help="JSON config (or a sidecar from a previous run)")
        p.add_argument("--out", required=True, help="output CSV path")
        for name, option in OPTIONS.items():
            if command in option.commands:
                p.add_argument("--" + name.replace("_", "-"), type=option.type,
                               choices=option.choices, help=option.help)

    p = sub.add_parser("reproduce", help="run the bundled scenarios")
    p.add_argument("scenario", choices=("fig2", "fig3", "fig4", "all"))
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _fail(exc, exit_code):
    json.dump({"error": type(exc).__name__, "message": str(exc),
               "exit_code": exit_code}, sys.stderr)
    sys.stderr.write("\n")
    return exit_code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            os.makedirs(args.out, exist_ok=True)
            runs, code = _cmd_reproduce(args.scenario, args.out), EXIT_OK
        else:
            config, recorded = _load_config(args.config)
            options = _resolve(args, recorded)
            columns, rows, result, code = _COMMANDS[args.command][0](config, options)
            manifest = RunManifest(command=args.command, config=config,
                                   options=options, output_path=args.out)
            runs = [(manifest, columns, rows, result)]
        # Every CSV and sidecar is written here.
        for manifest, columns, rows, result in runs:
            _write_csv(manifest.output_path, columns, rows)
            _write_sidecar(manifest.output_path, manifest, result)
        if args.command == "reproduce":
            print(*(manifest.output_path for manifest, *_ in runs), sep="\n")
        return code
    except (ConfigError, ReservoirError, ThermometryError, AnalysisError,
            OSError, json.JSONDecodeError, KeyError) as exc:
        if isinstance(exc, BracketError):
            return _fail(exc, EXIT_NONCONVERGENCE)
        return _fail(exc, EXIT_CONFIG)
    except (SteadyStateError, LinalgError) as exc:
        return _fail(exc, EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
