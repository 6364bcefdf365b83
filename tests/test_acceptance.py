"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criterion 10 is expected to fail on its positive half and is left failing on
purpose: the best-case (plateau-mode) positive threshold is pinned by the
model at the virtual-temperature floor ~0.400, while the reference
number 0.48 corresponds to the sweep-window edge T_h = 10 (the grid-edge
mode, which this suite prints alongside and which lands within 1%). See
README and the threshold tests for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from qfridge import (
    Direction,
    ReservoirSpec,
    ThresholdMode,
    calibrate_coupling,
    cooling_threshold,
    default_config,
    find_plateau,
    insulation_limit,
    occupation,
)
from qfridge.analysis import REFERENCE_THRESHOLDS
from qfridge.reservoirs import Statistics
from tests.conftest import random_valid_config, sector_solution
from tests.oracles import (
    _trace_row,
    build_liouvillian,
    read_qubit,
    solve_direct,
    steady_state_by_propagation,
    trace_distance,
)

TC_SET = (1.0, 1.5, 2.0)


def _verdict(number, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    return passed


def _configs(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_valid_config(rng, **kwargs) for _ in range(count)]


def test_criterion_01_trace_preservation():
    start = time.time()
    worst = 0.0
    for config in _configs(101, 100):
        generator = build_liouvillian(config).matrix
        worst = max(worst, float(np.max(np.abs(_trace_row(8) @ generator))))
    ok = worst <= 1e-12
    assert _verdict(1, ok,
                    f"trace preservation over 100 random configs, worst defect "
                    f"{worst:.2e} <= 1e-12 ({time.time() - start:.1f} s)")


def test_criterion_02_steady_state_validity():
    start = time.time()
    worst_res, worst_herm, worst_eig = 0.0, 0.0, 0.0
    for config in _configs(101, 100):
        direct = solve_direct(build_liouvillian(config))
        for state, residual in ((direct.state, direct.residual), sector_solution(config)):
            rho = state.matrix
            worst_res = max(worst_res, residual)
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
            worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(rho))))
    ok = worst_res <= 1e-10 and worst_herm <= 1e-10 and worst_eig >= -1e-9
    assert _verdict(2, ok,
                    f"steady-state validity on the same 100 configs, 64x64 and "
                    f"sector solves: residual "
                    f"{worst_res:.2e}, hermiticity {worst_herm:.2e}, min eig "
                    f"{worst_eig:.2e} ({time.time() - start:.1f} s)")


def test_criterion_03_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for config in _configs(303, 20):
        liouvillian = build_liouvillian(config)
        oracle = steady_state_by_propagation(liouvillian)
        for state in (solve_direct(liouvillian).state, sector_solution(config)[0]):
            worst = max(worst, trace_distance(state, oracle.state))
    ok = worst <= 1e-6
    assert _verdict(3, ok,
                    f"64x64 and sector solves vs propagation on 20 random configs, worst "
                    f"trace distance {worst:.2e} <= 1e-6 ({time.time() - start:.1f} s)")


def test_criterion_04_thermal_fixed_point():
    start = time.time()
    worst = 0.0
    # decoupled route: each qubit thermalizes to its own bath
    config = default_config(tc=0.8, tr=2.0, th=6.0, coupling=0.0)
    state = solve_direct(build_liouvillian(config)).state
    for k, (gap, spec) in enumerate(zip(config.gaps, config.reservoirs), start=1):
        t = read_qubit(state, k, gap).effective_temperature
        worst = max(worst, abs(t - spec.temperature) / spec.temperature)
    # interacting route: resonant gaps, all baths at one temperature
    config = default_config(tc=1.3, tr=1.3, th=1.3, coupling=1.0)
    state = solve_direct(build_liouvillian(config)).state
    for k, gap in enumerate(config.gaps, start=1):
        t = read_qubit(state, k, gap).effective_temperature
        worst = max(worst, abs(t - 1.3) / 1.3)
    ok = worst <= 1e-8
    assert _verdict(4, ok,
                    f"thermal fixed points (decoupled and equal-temperature "
                    f"routes), worst relative error {worst:.2e} <= 1e-8 "
                    f"({time.time() - start:.1f} s)")


def test_criterion_05_fermionic_symmetry():
    start = time.time()
    worst = 0.0
    for t in np.geomspace(0.01, 100.0, 1000):
        total = (occupation(ReservoirSpec(Statistics.FERMIONIC, t), 1.0)
                 + occupation(ReservoirSpec(Statistics.FERMIONIC, -t), 1.0))
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-12
    assert _verdict(5, ok,
                    f"fermionic n(T) + n(-T) = 1 on 1000 points, worst defect "
                    f"{worst:.2e} <= 1e-12 ({time.time() - start:.1f} s)")


def test_criterion_06_insulation_convergence():
    start = time.time()
    # Once qubit 1 is insulated it approaches the virtual temperature of the
    # room and hot baths, E1 / (E2/T_r - E3/T_h) for these resonant thermal
    # sets; the couplings keep the residual bath leak at gamma1 = 1e-4
    # below the 1e-3 band. Sets D and E drive the hot bath at negative
    # temperature, where -E3/T_h > 0 strengthens the cooling.
    parameter_sets = [
        ("A", default_config(tc=1.0, tr=2.0, th=10.0, coupling=2.0)),
        ("C", default_config(tc=1.5, tr=1.5, th=8.0, coupling=2.0,
                             gaps=(2.0, 5.0, 3.0))),
        ("G", default_config(tc=1.0, tr=1.5, th=12.0, coupling=2.0,
                             gaps=(1.0, 4.0, 3.0))),
        ("D", default_config(tc=1.0, tr=1.0, th=-1.0, coupling=2.0,
                             gaps=(1.0, 2.0, 1.0), hot_statistics="fermionic")),
        ("E", default_config(tc=1.0, tr=1.0, th=-0.5, coupling=3.0,
                             gaps=(1.0, 2.0, 1.0), hot_statistics="fermionic")),
    ]
    gaps = {}
    for name, config in parameter_sets:
        result = insulation_limit(config)
        gaps[name] = result.final_relative_gap
    ok = all(g <= 1e-3 for g in gaps.values())
    detail = ", ".join(f"{k}:{v:.1e}" for k, v in gaps.items())
    assert _verdict(6, ok,
                    f"insulated limit at gamma1 = 1e-4 within 1e-3 of the closed "
                    f"form on 5 sets (2 with negative hot bath): {detail} "
                    f"({time.time() - start:.1f} s)")


def test_criterion_07_negative_universality():
    start = time.time()
    grid = [-v for v in np.geomspace(10.0, 0.12, 50)]
    worst = -math.inf
    for tc in TC_SET:
        config = default_config(tc=tc, hot_statistics="fermionic", th=-1.0)
        for th in grid:
            state = solve_direct(build_liouvillian(config.with_hot_temperature(th))).state
            t1 = read_qubit(state, 1, 1.0).effective_temperature
            worst = max(worst, t1 - tc)
    ok = worst < 0.0
    assert _verdict(7, ok,
                    f"negative hot bath cools at every one of 50 grid points for "
                    f"tc in {TC_SET}, max(T1 - Tc) = {worst:.3e} < 0 "
                    f"({time.time() - start:.1f} s)")


def test_criterion_08_monotonicity():
    start = time.time()
    worst = -math.inf
    for tc in TC_SET:
        values = []
        for th in np.linspace(1.0, 10.0, 19):
            config = default_config(tc=tc, th=th)
            state = solve_direct(build_liouvillian(config)).state
            values.append(read_qubit(state, 1, 1.0).effective_temperature)
        worst = max(worst, float(np.max(np.diff(values))))
    ok = worst <= 1e-9
    assert _verdict(8, ok,
                    f"T1 non-increasing on T_h in [1, 10] at the calibrated "
                    f"coupling, max uptick {worst:.2e} <= 1e-9 "
                    f"({time.time() - start:.1f} s)")


def test_criterion_09_plateau_calibration():
    start = time.time()
    result = calibrate_coupling(default_config())
    ok = result.max_relative_error <= 0.01
    single_g = "a single coupling fits all six targets" if ok else \
        "no single coupling reaches all six targets"
    for line in result.report_lines():
        print("    " + line)
    assert _verdict(9, ok,
                    f"calibrated g = {result.coupling:.4g} reproduces all six "
                    f"plateau targets within 1% (max err "
                    f"{result.max_relative_error:.2e}); {single_g} "
                    f"({time.time() - start:.0f} s)")


def test_criterion_10_cooling_thresholds():
    start = time.time()
    config = default_config()
    measured = {
        Direction.POSITIVE: cooling_threshold(config, Direction.POSITIVE,
                                              ThresholdMode.PLATEAU),
        Direction.NEGATIVE: cooling_threshold(config, Direction.NEGATIVE,
                                              ThresholdMode.PLATEAU),
    }
    grid_edge_positive = cooling_threshold(config, Direction.POSITIVE,
                                           ThresholdMode.GRID_EDGE)
    errors = {d: abs(measured[d] - REFERENCE_THRESHOLDS[d]) / REFERENCE_THRESHOLDS[d]
              for d in measured}
    ok = all(err <= 0.10 for err in errors.values())
    print(f"    plateau-mode thresholds: positive {measured[Direction.POSITIVE]:.4f} "
          f"(reference 0.48, off by {errors[Direction.POSITIVE]:.1%}), "
          f"negative {measured[Direction.NEGATIVE]:.4f} "
          f"(reference 0.0275, off by {errors[Direction.NEGATIVE]:.1%})")
    print(f"    grid-edge positive threshold: {grid_edge_positive:.4f} "
          f"(within {abs(grid_edge_positive - 0.48) / 0.48:.1%} of 0.48)")
    print("    analysis: the plateau-mode positive threshold is pinned at the")
    print("    virtual-temperature floor E1*Tr/E2 = 0.400 because the best case")
    print("    over an unbounded hot axis always reaches it; the reference 0.48")
    print("    is reproduced by the window-edge reading (grid-edge mode).")
    _verdict(10, ok,
             f"plateau-mode thresholds within 10% of (0.48, 0.0275) "
             f"({time.time() - start:.0f} s)")
    assert ok, (
        "criterion 10 fails on its positive half by construction of the "
        f"plateau mode: measured {measured[Direction.POSITIVE]:.4f} vs 0.48 "
        f"({errors[Direction.POSITIVE]:.1%} off, band 10%); the negative half "
        f"passes ({measured[Direction.NEGATIVE]:.4f} vs 0.0275, "
        f"{errors[Direction.NEGATIVE]:.1%} off). Grid-edge mode reproduces the "
        f"positive reference ({grid_edge_positive:.4f}). See README and the "
        "decisions ledger."
    )


def test_criterion_11_percentage_cooling_ordering():
    start = time.time()
    advantage = {}
    for tc in TC_SET:
        config = default_config(tc=tc)
        low_pos = find_plateau(config, Direction.POSITIVE).plateau_t1
        low_neg = find_plateau(config, Direction.NEGATIVE).plateau_t1
        pct_pos = (tc - low_pos) / tc
        pct_neg = (tc - low_neg) / tc
        advantage[tc] = (pct_pos, pct_neg, low_pos, low_neg)
    ordering_ok = all(pct_neg > pct_pos for pct_pos, pct_neg, _, _ in advantage.values())
    pos1, neg1 = advantage[1.0][2], advantage[1.0][3]
    margin = (pos1 - neg1) / 1.0
    margin_ok = margin >= 0.15
    detail = ", ".join(
        f"tc={tc}: {pct_pos:.1%} vs {pct_neg:.1%}"
        for tc, (pct_pos, pct_neg, _, _) in advantage.items())
    ok = ordering_ok and margin_ok
    assert _verdict(11, ok,
                    f"negative-side percentage cooling beats positive at every tc "
                    f"({detail}); plateau separation at tc=1 is {margin:.1%} of "
                    f"tc >= 15% ({time.time() - start:.0f} s)")
