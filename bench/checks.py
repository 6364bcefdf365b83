"""Output checks: qfridge's results against the oracle, closed forms and the
paper's numbers. The paper's numbers live here, not in qfridge.analysis, so a
change to the program cannot move the reference it is checked against.

Every check belongs to one operation (a CSV row, a CLI exit code, a single
solve or a sweep). `Tally.op` counts the operation as attempted. A failed
check makes the run incorrect, except the one named fault below: it, and a
solve or sweep that raises, count the operation as failed instead.
"""

import csv
import math
import os
import sys

import oracle
from qfridge import FridgeConfig

# Reference machine of the paper: resonant gaps, unit rates, room bath at 2.
GAPS = (1.0, 5.0, 4.0)
T_ROOM = 2.0
T_HOT = 10.0
REFERENCE_CONFIG = {
    "gaps": list(GAPS),
    "gammas": [1.0, 1.0, 1.0],
    "coupling": 1.0,
    "reservoirs": [
        {"statistics": "bosonic", "temperature": 1.0, "role": "cold"},
        {"statistics": "bosonic", "temperature": T_ROOM, "role": "room"},
        {"statistics": "bosonic", "temperature": T_HOT, "role": "hot"},
    ],
}
REPRODUCE_TCS = (1.0, 1.5, 2.0)
FIG_SWEEP_POINTS = 46
# Lowest T1 per (T_c, hot-bath side) and the cooling thresholds.
PAPER_PLATEAUS = {
    (1.0, "positive"): 0.9486, (1.5, "positive"): 1.4054, (2.0, "positive"): 1.867,
    (1.0, "negative"): 0.7805, (1.5, "negative"): 1.1615, (2.0, "negative"): 1.5568,
}
PAPER_THRESHOLD_POSITIVE = 0.48
PAPER_THRESHOLD_NEGATIVE = 0.0275
# Virtual-temperature floor E1 T_r / E2 (Brunner et al., PRE 85, 051117):
# the plateau-mode positive threshold can go no lower.
VIRTUAL_FLOOR = GAPS[0] * T_ROOM / GAPS[1]

# Named fault: `threshold --threshold-mode grid-edge` writes the plateau T1 in
# its t1 column instead of the window-edge T1 the bisection used.
GRID_EDGE_ROW_FAULT = "threshold grid-edge row t1 is not the window-edge T1"

REL_ORACLE = 1e-9


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems, failure=None):
        """Count one operation. `problems` make the run incorrect; a
        `failure` message marks the operation as failed instead."""
        self.attempted += 1
        if failure:
            self.failed += 1
            print(f"failed: {failure}", file=sys.stderr)
        for p in problems:
            if len(self.problems) < 20:
                print(f"check failed: {p}", file=sys.stderr)
            self.problems.append(p)

    @property
    def correct(self):
        return not self.problems


def rel(a, b):
    return abs(a - b) / abs(b)


def _read(path):
    """CSV rows; a missing file reads as no rows, which the row counts catch."""
    try:
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))
    except FileNotFoundError:
        return []


def _float(cell):
    """CSV cell as float; sentinels and blanks give None."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def reference(tc=1.0, th=T_HOT, hot="bosonic", gamma1=1.0):
    d = dict(REFERENCE_CONFIG, gammas=[gamma1, 1.0, 1.0])
    d["reservoirs"] = [dict(r) for r in d["reservoirs"]]
    d["reservoirs"][0]["temperature"] = tc
    d["reservoirs"][2].update(statistics=hot, temperature=th)
    return FridgeConfig.from_dict(d)


def _oracle_problem(what, t1, config, tol=REL_ORACLE):
    if t1 is None:
        return [f"{what}: t1 is not a number"]
    expected = oracle.t1(config)
    if rel(t1, expected) > tol:
        return [f"{what}: t1 {t1!r} vs oracle {expected!r}"]
    return []


def command_exits(tally, names, codes):
    for name, code in zip(names, codes):
        tally.op([] if code == 0 else [f"{name}: exit code {code}"])


def fig_sweeps(tally, out_dir):
    """The fig2 and fig3 tables of `reproduce`: every row `ok` and equal to
    the oracle; every fig3 row cools."""
    for fig, hot in (("fig2", "bosonic"), ("fig3", "fermionic")):
        for tc in REPRODUCE_TCS:
            rows = _read(os.path.join(out_dir, f"{fig}_tc{tc:g}.csv"))
            if len(rows) != FIG_SWEEP_POINTS:
                tally.op([f"{fig} tc={tc}: {len(rows)} rows"])
            for row in rows:
                what = f"{fig} tc={tc} th={row['swept_value']}"
                t1 = _float(row["t1"])
                problems = [] if row["status"] == "ok" else [f"{what}: status {row['status']}"]
                th = float(row["swept_value"])
                problems += _oracle_problem(what, t1, reference(tc, th, hot))
                if fig == "fig3" and t1 is not None and not t1 < tc:
                    problems.append(f"{what}: no cooling, t1 {t1}")
                tally.op(problems)


def reproduce(tally, out_dir):
    """`reproduce all` tables, then the threshold and insulation commands."""
    fig_sweeps(tally, out_dir)

    fig4a = _read(os.path.join(out_dir, "fig4a.csv"))
    lowest = {}
    for row in fig4a:
        tc = float(row["tc"])
        problems = []
        for side in ("positive", "negative"):
            value = float(row[f"lowest_t1_{side}"])
            lowest[tc, side] = value
            if rel(value, PAPER_PLATEAUS[tc, side]) > 1e-3:
                problems.append(f"fig4a tc={tc} {side}: {value} vs paper "
                                f"{PAPER_PLATEAUS[tc, side]}")
        tally.op(problems)
    fig4b = _read(os.path.join(out_dir, "fig4b.csv"))
    for row in fig4b:
        tc = float(row["tc"])
        problems = []
        cooling = {}
        for side in ("positive", "negative"):
            cooling[side] = float(row[f"cooling_percent_{side}"])
            expected = 100.0 * (tc - lowest.get((tc, side), math.nan)) / tc
            if not rel(cooling[side], expected) <= 1e-12:
                problems.append(f"fig4b tc={tc} {side}: {cooling[side]} vs {expected}")
        if not cooling["negative"] > cooling["positive"]:
            problems.append(f"fig4b tc={tc}: negative bath does not cool more")
        tally.op(problems)
    if len(fig4a) != len(REPRODUCE_TCS) or len(fig4b) != len(REPRODUCE_TCS):
        tally.op([f"fig4: {len(fig4a)} and {len(fig4b)} rows"])

    expected_thresholds = {
        ("positive", "grid-edge"): lambda v: rel(v, PAPER_THRESHOLD_POSITIVE) <= 0.01,
        ("positive", "plateau"): lambda v: abs(v - VIRTUAL_FLOOR) <= 2e-4,
        ("negative", "plateau"): lambda v: rel(v, PAPER_THRESHOLD_NEGATIVE) <= 0.10,
    }
    seen = set()
    for row in _read(os.path.join(out_dir, "fig4_thresholds.csv")):
        key = (row["direction"], row["mode"])
        seen.add(key)
        ok = key in expected_thresholds and expected_thresholds[key](float(row["threshold"]))
        tally.op([] if ok else [f"fig4 threshold {key}: {row['threshold']}"])
    if seen != set(expected_thresholds):
        tally.op([f"fig4 thresholds: rows {sorted(seen)}"])

    rows = _read(os.path.join(out_dir, "threshold.csv"))
    if len(rows) != 1:
        tally.op([f"threshold: {len(rows)} rows"])
    for row in rows:
        threshold = float(row["swept_value"])
        problems = []
        if rel(threshold, PAPER_THRESHOLD_POSITIVE) > 0.01:
            problems.append(f"threshold grid-edge: {threshold} vs paper 0.48")
        edge = _oracle_problem("threshold grid-edge", _float(row["t1"]),
                               reference(threshold, T_HOT), tol=1e-6)
        tally.op(problems, failure=f"{GRID_EDGE_ROW_FAULT}: {edge[0]}" if edge else None)

    rows = _read(os.path.join(out_dir, "insulation.csv"))
    if len(rows) != 4:
        tally.op([f"insulation: {len(rows)} rows"])
    # Once gamma1 -> 0, qubit 1 equilibrates against the room and hot baths.
    closed_form = T_ROOM / (1.0 + GAPS[2] / GAPS[0] * (1.0 - T_ROOM / T_HOT))
    previous_gap = math.inf
    for row in rows:
        gamma1 = float(row["swept_value"])
        t1 = _float(row["t1"])
        what = f"insulation gamma1={gamma1:g}"
        problems = _oracle_problem(what, t1, reference(gamma1=gamma1))
        if t1 is not None:
            gap = abs(t1 - closed_form)
            if not gap < previous_gap:
                problems.append(f"{what}: gap to closed form {gap} does not shrink")
            previous_gap = gap
        tally.op(problems)


def _point_problems(what, config, t1):
    """Closed-form properties of one T1: the g = 0 fixed point and, at
    resonance, qubit 1's Boltzmann exponent -E1/T1 between its bath's and the
    virtual qubit's, -E2/T_r + E3/T_h."""
    if t1 is None:
        return [f"{what}: t1 is not a number"]
    tc = config.reservoirs[0].temperature
    if config.coupling == 0.0:
        return [] if rel(t1, tc) <= REL_ORACLE else [f"{what}: g=0 t1 {t1} vs T_c {tc}"]
    if not config.resonant:
        return []
    (e1, e2, e3), temps = config.gaps, [r.temperature for r in config.reservoirs]
    lo, hi = sorted((-e1 / temps[0], -e2 / temps[1] + e3 / temps[2]))
    x = -e1 / t1
    if not lo - REL_ORACLE * (1 + abs(lo)) <= x <= hi + REL_ORACLE * (1 + abs(hi)):
        return [f"{what}: Boltzmann exponent {x} outside [{lo}, {hi}]"]
    return []


def single_solve(tally, config, outcome):
    """outcome is a readout, or the exception the solve raised."""
    if isinstance(outcome, Exception):
        tally.op([], failure=f"solve {config.to_dict()}: {outcome!r}")
        return
    t1 = outcome.effective_temperature
    t1 = t1 if isinstance(t1, float) else None
    what = f"solve {config.to_dict()}"
    tally.op(_oracle_problem(what, t1, config) + _point_problems(what, config, t1))


def sweep(tally, config, grid, outcome):
    """outcome is the list of sweep records, or the exception raised."""
    if isinstance(outcome, Exception):
        tally.op([], failure=f"sweep {config.to_dict()}: {outcome!r}")
        return
    problems = [] if len(outcome) == len(grid) else [f"sweep: {len(outcome)} records"]
    for th, record in zip(grid, outcome):
        what = f"sweep {config.to_dict()} th={th}"
        if record.status != "ok" or record.swept_value != th:
            problems.append(f"{what}: status {record.status}")
            continue
        t1 = record.t1 if isinstance(record.t1, float) else None
        problems += _point_problems(what, config.with_hot_temperature(th), t1)
    tally.op(problems)
