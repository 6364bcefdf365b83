"""Command-line interface: batch runs, CSV emission, JSON sidecars.

Every run writes two files: a CSV of results and a JSON sidecar holding the
fully resolved manifest (command, config, options, tool version, tolerances).
The sidecar closes the loop: passing it back through --config reproduces the
CSV byte for byte.

Sweep-like commands (solve, sweep-th, plateau, threshold, insulation) share
the column set

    swept_value, t1, t1_minus_tc, residual, coherence, status

with sentinel strings (never NaN or inf) for the singular temperature cases.
calibrate and reproduce-fig4 emit their natural tables instead.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 non-convergence.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
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
    """Shortest round-trip decimal; sentinels by name; missing as empty."""
    if isinstance(value, TemperatureSentinel):
        return value.value
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


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
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return sidecar


def _load_config(path):
    """Accept either a bare config document or a previously written sidecar."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ConfigError(f"{path} holds no JSON object")
    if "config" in document and "command" in document:
        manifest = RunManifest.from_dict(document)
        manifest.options.pop("parallel", None)    # older sidecars record the ignored flag
        return manifest.config, manifest.options
    return FridgeConfig.from_dict(document), {}


def _record_to_row(record):
    return (record.swept_value, record.t1, record.t1_minus_tc,
            record.residual, record.coherence_magnitude, record.status)


def _parse_float_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except (AttributeError, ValueError) as exc:    # a sidecar value that is no string
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"empty number list {text!r}")
    return values


def _option(options, key, convert, default=None):
    """options[key] (default when absent) passed through convert, as its
    command-line flag would be: a sidecar can hold any JSON value there."""
    value = options.get(key, default)
    if value is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid option {key}={value!r}: {exc}") from exc


def _sweep_values(options):
    if options.get("th_values"):
        return _parse_float_list(options["th_values"])
    start = _option(options, "th_start", float)
    stop = _option(options, "th_stop", float)
    points = _option(options, "th_points", int)
    if start is None or stop is None or points is None:
        raise ConfigError(
            "sweep needs either --th-values or all of --th-start/--th-stop/--th-points"
        )
    if points < 1:
        raise ConfigError("--th-points must be >= 1")
    if points == 1:
        return [start]
    if options.get("th_spacing", "linear") == "log":
        if start * stop <= 0.0:
            raise ConfigError("log spacing needs endpoints of one sign")
        sign = 1.0 if start > 0 else -1.0
        ratio = (stop / start) ** (1.0 / (points - 1))
        return [sign * abs(start) * ratio ** k for k in range(points)]
    step = (stop - start) / (points - 1)
    return [start + step * k for k in range(points)]


def _cmd_solve(config, options, out_path, manifest):
    record = _record(config.reservoirs[2].temperature, config.cold_temperature,
                     solve_for_readout(config))
    _write_csv(out_path, CSV_COLUMNS, [_record_to_row(record)])
    _write_sidecar(out_path, manifest)
    return EXIT_OK


def _cmd_sweep(config, options, out_path, manifest):
    values = _sweep_values(options)
    records = sweep_hot_temperature(config, values)
    _write_csv(out_path, CSV_COLUMNS, [_record_to_row(r) for r in records])
    _write_sidecar(out_path, manifest)
    failed = sum(1 for r in records if r.status != "ok")
    if failed > TOL.sweep_failed_fraction * len(records):
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_plateau(config, options, out_path, manifest):
    direction = _option(options, "direction", Direction, "positive")
    plateau = find_plateau(config, direction)
    row = (plateau.plateau_detected_at, plateau.plateau_t1,
           plateau.plateau_t1 - config.cold_temperature, None, None, "ok")
    _write_csv(out_path, CSV_COLUMNS, [row])
    _write_sidecar(out_path, manifest, result_summary={
        "plateau_t1": plateau.plateau_t1,
        "plateau_detected_at": plateau.plateau_detected_at,
        "tolerance_used": plateau.tolerance_used,
        "saturation_t1": plateau.saturation_t1,
        "walk_flattened": plateau.walk_flattened,
    })
    return EXIT_OK


def _cmd_threshold(config, options, out_path, manifest):
    direction = _option(options, "direction", Direction, "positive")
    mode = _option(options, "threshold_mode", ThresholdMode, "plateau")
    threshold = cooling_threshold(config, direction, mode)
    t1 = best_case_t1(config.with_cold_temperature(threshold), direction, mode)
    row = (threshold, t1, t1 - threshold, None, None, "ok")
    _write_csv(out_path, CSV_COLUMNS, [row])
    _write_sidecar(out_path, manifest, result_summary={
        "threshold": threshold,
        "direction": direction.value,
        "mode": mode.value,
    })
    return EXIT_OK


def _cmd_insulation(config, options, out_path, manifest):
    sequence = _parse_float_list(options.get("gamma1", "1e-1,1e-2,1e-3,1e-4"))
    result = insulation_limit(config, sequence)
    tc = config.cold_temperature
    rows = [(g, t1, t1 - tc, None, None, "ok")
            for g, t1 in zip(result.gamma1_values, result.t1_values)]
    _write_csv(out_path, CSV_COLUMNS, rows)
    _write_sidecar(out_path, manifest, result_summary={
        "analytic_t1": result.analytic_t1,
        "final_relative_gap": result.final_relative_gap,
        "smallest_usable_gamma1": result.smallest_usable_gamma1,
    })
    return EXIT_OK


def _cmd_calibrate(config, options, out_path, manifest):
    grid = _parse_float_list(options.get("g_grid", "0.05,0.1,0.2,0.5,1.0"))
    result = calibrate_coupling(config, search_grid=grid)
    rows = [(direction.value, tc, value, target, err)
            for (tc, direction), (value, target, err) in sorted(
                result.achieved.items(), key=lambda kv: (kv[0][1].value, kv[0][0]))]
    _write_csv(out_path,
               ("direction", "tc", "plateau_t1", "target_t1", "relative_error"),
               rows)
    _write_sidecar(out_path, manifest, result_summary={
        "coupling": result.coupling,
        "max_relative_error": result.max_relative_error,
        "within_tolerance": result.within_tolerance,
        "landscape": [[g, err] for g, err in result.landscape],
    })
    for line in result.report_lines():
        print(line)
    return EXIT_OK if result.within_tolerance else EXIT_NONCONVERGENCE


def _reproduce_sweep_figure(name, th_grid, hot_statistics, out_dir):
    paths = []
    for tc in REPRODUCE_TCS:
        config = default_config(tc=tc, coupling=CALIBRATED_COUPLING,
                                hot_statistics=hot_statistics)
        records = sweep_hot_temperature(config, th_grid)
        out_path = os.path.join(out_dir, f"{name}_tc{tc:g}.csv")
        _write_csv(out_path, CSV_COLUMNS, [_record_to_row(r) for r in records])
        manifest = RunManifest(
            command="sweep-th", config=config,
            options={"th_values": ",".join(repr(v) for v in th_grid)},
            output_path=out_path,
        )
        _write_sidecar(out_path, manifest)
        paths.append(out_path)
    return paths


def _cmd_reproduce(scenario, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    produced = []
    if scenario in ("fig2", "all"):
        produced += _reproduce_sweep_figure("fig2", FIG2_TH_GRID, "bosonic", out_dir)
    if scenario in ("fig3", "all"):
        produced += _reproduce_sweep_figure("fig3", FIG3_TH_GRID, "fermionic", out_dir)
    if scenario in ("fig4", "all"):
        table_a, table_b = [], []
        for tc in REPRODUCE_TCS:
            config = default_config(tc=tc, coupling=CALIBRATED_COUPLING)
            low_pos = find_plateau(config, Direction.POSITIVE).plateau_t1
            low_neg = find_plateau(config, Direction.NEGATIVE).plateau_t1
            table_a.append((tc, low_pos, low_neg))
            table_b.append((tc,
                            100.0 * (tc - low_pos) / tc,
                            100.0 * (tc - low_neg) / tc))
        path_a = os.path.join(out_dir, "fig4a.csv")
        path_b = os.path.join(out_dir, "fig4b.csv")
        _write_csv(path_a, ("tc", "lowest_t1_positive", "lowest_t1_negative"), table_a)
        _write_csv(path_b, ("tc", "cooling_percent_positive", "cooling_percent_negative"),
                   table_b)
        config = default_config(coupling=CALIBRATED_COUPLING)
        thresholds = [
            ("positive", "grid-edge",
             cooling_threshold(config, Direction.POSITIVE, ThresholdMode.GRID_EDGE),
             REFERENCE_THRESHOLDS[Direction.POSITIVE]),
            ("positive", "plateau",
             cooling_threshold(config, Direction.POSITIVE, ThresholdMode.PLATEAU),
             REFERENCE_THRESHOLDS[Direction.POSITIVE]),
            ("negative", "plateau",
             cooling_threshold(config, Direction.NEGATIVE, ThresholdMode.PLATEAU),
             REFERENCE_THRESHOLDS[Direction.NEGATIVE]),
        ]
        path_t = os.path.join(out_dir, "fig4_thresholds.csv")
        _write_csv(path_t, ("direction", "mode", "threshold", "reference"), thresholds)
        for path in (path_a, path_b, path_t):
            _write_sidecar(path, RunManifest(command="reproduce", config=config,
                                             options={"scenario": "fig4"},
                                             output_path=path))
        produced += [path_a, path_b, path_t]
    for path in produced:
        print(path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfridge",
        description="Steady states and cooling curves of the three-qubit "
                    "autonomous refrigerator.",
    )
    parser.add_argument("--version", action="version", version=f"qfridge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def parallel_option(p):
        # Sweeps run serially; the flag stays so old command lines still parse.
        p.add_argument("--parallel", type=int,
                       help="accepted and ignored, kept for compatibility")

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="JSON config (or a sidecar from a previous run)")
        p.add_argument("--out", required=True, help="output CSV path")
        parallel_option(p)

    common(sub.add_parser("solve", help="single steady state at the configured point"))

    p = sub.add_parser("sweep-th", help="sweep the hot-bath temperature")
    common(p)
    p.add_argument("--th-values", help="comma-separated explicit grid")
    p.add_argument("--th-start", type=float)
    p.add_argument("--th-stop", type=float)
    p.add_argument("--th-points", type=int)
    p.add_argument("--th-spacing", choices=("linear", "log"), default="linear")

    p = sub.add_parser("plateau", help="lowest T1 as the hot bath saturates")
    common(p)
    p.add_argument("--direction", choices=("positive", "negative"), default="positive")

    p = sub.add_parser("threshold", help="smallest cold temperature that still cools")
    common(p)
    p.add_argument("--direction", choices=("positive", "negative"), default="positive")
    p.add_argument("--threshold-mode", choices=("plateau", "grid-edge"),
                   default="plateau")

    p = sub.add_parser("insulation", help="decouple the cooled qubit, gamma1 -> 0")
    common(p)
    p.add_argument("--gamma1", default="1e-1,1e-2,1e-3,1e-4",
                   help="comma-separated decreasing gamma1 sequence")

    p = sub.add_parser("calibrate", help="fit the coupling to the bundled targets")
    common(p)
    p.add_argument("--g-grid", default="0.05,0.1,0.2,0.5,1.0")

    p = sub.add_parser("reproduce", help="run the bundled scenarios")
    p.add_argument("scenario", choices=("fig2", "fig3", "fig4", "all"))
    p.add_argument("--out", required=True, help="output directory")
    parallel_option(p)

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep-th": _cmd_sweep,
    "plateau": _cmd_plateau,
    "threshold": _cmd_threshold,
    "insulation": _cmd_insulation,
    "calibrate": _cmd_calibrate,
}

_OPTION_KEYS = ("th_values", "th_start", "th_stop", "th_points",
                "th_spacing", "direction", "threshold_mode", "gamma1", "g_grid")


def _fail(exc, exit_code):
    json.dump({"error": type(exc).__name__, "message": str(exc),
               "exit_code": exit_code}, sys.stderr)
    sys.stderr.write("\n")
    return exit_code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "reproduce":
            return _cmd_reproduce(args.scenario, args.out)

        config, sidecar_options = _load_config(args.config)
        options = dict(sidecar_options)
        for key in _OPTION_KEYS:
            value = getattr(args, key, None)
            if value is not None:
                options[key] = value
        manifest = RunManifest(command=args.command, config=config,
                               options=options, output_path=args.out)
        return _COMMANDS[args.command](config, options, args.out, manifest)
    except (ConfigError, ReservoirError, ThermometryError, AnalysisError,
            OSError, json.JSONDecodeError, KeyError) as exc:
        if isinstance(exc, BracketError):
            return _fail(exc, EXIT_NONCONVERGENCE)
        return _fail(exc, EXIT_CONFIG)
    except (SteadyStateError, LinalgError) as exc:
        return _fail(exc, EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
