"""Sweeps, plateau detection, cooling thresholds, insulation limits, calibration.

The hot-bath temperature axis behaves differently on the two sides:

  * negative side (fermionic bath): as T_h -> 0- the occupation saturates at
    n3 -> 1, the induced rates stay bounded, and the cooled-qubit temperature
    converges to a true asymptote. "Infinitely hot" is represented exactly by
    pinning n3 = 1 - FERMIONIC_SATURATION_DEFICIT.

  * positive side (bosonic bath): the occupation, and with it both induced
    rates, grow without bound as T_h increases. The diverging rates quench the
    cooling channel, so the curve T1(T_h) reaches a minimum and then creeps
    back up to T_c. The "plateau" is therefore the lowest value reached, found
    by scanning a geometric grid and polishing the minimum, not by waiting for
    successive samples to stop moving (they never do on this side).

Thresholds come in two modes because the bundled reference numbers mix two
readings: the best case over the whole axis (plateau) and the sweep-window
edge. Both read one closed form, the virtual temperature E1 / (L3 - L2), at
the mode's hot bath; at the machine's own hot bath it is the insulated limit.

Every solve goes through _solve_stack, which solves the coefficient rows of
any machines and baths, pinned ones included, as one stack and reads qubit
1's T1 from each row; only solve_for_readout, the one-row case and the unit
of every single solve, builds a QubitReadout. best_case_t1 gives a search
the value it compares. The negative plateau is T1 at the saturated hot bath:
Fig. 4a and calibration solve that row alone, and find_plateau as the last
row of its walk's first stack.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import TOL
from .liouvillian import DIM, FridgeConfig, sector_coefficients
from .reservoirs import (ReservoirSpec, Role, Statistics, check_temperature,
                         log_rate_ratio, temperature_from_occupation)
from .steady_state import SteadyStateError, solve_coefficients
from .thermometry import (
    QubitReadout,
    TemperatureSentinel,
    temperature_as_float,
    temperature_from_population_ratio,
)


class Direction(str, Enum):
    POSITIVE = "positive"    # bosonic hot bath, T_h > 0
    NEGATIVE = "negative"    # fermionic hot bath, T_h < 0


class ThresholdMode(str, Enum):
    PLATEAU = "plateau"      # best case over the whole hot-temperature axis
    GRID_EDGE = "grid-edge"  # value at the reference sweep-window edge


class AnalysisError(RuntimeError):
    pass


class BracketError(AnalysisError):
    """The machine has no virtual temperature (no cooling threshold or
    insulated limit): it never cools, or it cools at every T_c."""


# The saturated negative bath pins n3 = 1 - FERMIONIC_SATURATION_DEFICIT, a
# deep inversion float64 still tells from n = 1 (it is ~4.5 ulp away), and
# the negative walk stops at the |T_h| of that occupation. No rate rounds
# to 0 on the way: the down-rate gamma e/(1 + e), e = exp(-|L3|), of a
# thermal bath stays positive until |L3| = E3/|T_h| passes about 745.
FERMIONIC_SATURATION_DEFICIT = 1e-15
# Bosonic stand-in for "infinitely hot", the positive plateau grid's hot end.
# The limit mostly re-thermalizes the target qubit (see module docstring), so
# it is the plateau only where T1 still falls there, as at the plateau-mode
# threshold.
BOSONIC_SATURATION_TEMPERATURE = 1e6

POSITIVE_WINDOW_EDGE = 10.0     # reference sweep window is T_h in [1, 10]
NEGATIVE_WINDOW_EDGE = -0.1
PLATEAU_GRID_START = 1.0
PLATEAU_GRID_CAP = 1e4
PLATEAU_GRID_RATIO = 1.12
NEGATIVE_WALK_START = -5.0
NEGATIVE_WALK_SHRINK = 0.75
# Walk points solved per stack. The reference machine's walk (E3 = 4) has 14
# points to its floor, so it stays one stack with its saturation point; a
# machine with a tiny E3 walks thousands of points but stops after a few.
NEGATIVE_WALK_CHUNK = 16


class HotBaths(NamedTuple):
    window_edge: ReservoirSpec    # T_h at the edge of the reference sweep window
    saturated: ReservoirSpec      # the representable "infinitely hot" limit


# The negative saturated bath pins n3; its nominal T_h, the window edge's,
# is read by no rate.
HOT_BATHS = {
    Direction.POSITIVE: HotBaths(
        window_edge=ReservoirSpec(Statistics.BOSONIC, POSITIVE_WINDOW_EDGE, Role.HOT),
        saturated=ReservoirSpec(Statistics.BOSONIC, BOSONIC_SATURATION_TEMPERATURE,
                                Role.HOT)),
    Direction.NEGATIVE: HotBaths(
        window_edge=ReservoirSpec(Statistics.FERMIONIC, NEGATIVE_WINDOW_EDGE, Role.HOT),
        saturated=ReservoirSpec(Statistics.FERMIONIC, NEGATIVE_WINDOW_EDGE, Role.HOT,
                                occupation_override=1.0 - FERMIONIC_SATURATION_DEFICIT)),
}

# Targets for the bundled reproduction scenarios: lowest cooled-qubit
# temperatures at the reference operating point (gaps (1, 5, 4), unit rates,
# room bath at 2), in the order calibrate reports them: direction, then T_c.
REFERENCE_PLATEAUS = {
    (1.0, Direction.NEGATIVE): 0.7805,
    (1.5, Direction.NEGATIVE): 1.1615,
    (2.0, Direction.NEGATIVE): 1.5568,
    (1.0, Direction.POSITIVE): 0.9486,
    (1.5, Direction.POSITIVE): 1.4054,
    (2.0, Direction.POSITIVE): 1.867,
}
REFERENCE_THRESHOLDS = {Direction.POSITIVE: 0.48, Direction.NEGATIVE: 0.0275}
# Coupling recovered by calibrate_coupling against REFERENCE_PLATEAUS
# (a single value fits all six targets to ~1e-4 relative).
CALIBRATED_COUPLING = 1.0

DEFAULT_COUPLING_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
DEFAULT_GAMMA1_SEQUENCE = (1e-1, 1e-2, 1e-3, 1e-4)


class SweepRecord(NamedTuple):
    """One row of a sweep-like command's CSV, its fields the columns; t1
    fields may hold a TemperatureSentinel. coherence is qubit 1's reduced
    coherence, which sums rho[j, 4 + j]: the sector holds those at exactly 0,
    so a solved row carries 0.0."""

    swept_value: float
    t1: object
    t1_minus_tc: object
    residual: object = None
    coherence: object = None
    status: str = "ok"


def sweep_record(swept_value, t1, tc, residual=None, coherence=None) -> SweepRecord:
    """The row of T1 at swept_value against the cold temperature tc. A t1 or
    t1 - tc that is a number but not a finite one (an infinite or inverted
    temperature collapsed onto +inf, or an infinitely hot cold bath) is
    written empty, and the status names the first such column."""
    difference = t1 if isinstance(t1, TemperatureSentinel) else t1 - tc
    status = "ok"
    if isinstance(t1, float) and not math.isfinite(difference):
        status = "non-finite " + ("t1_minus_tc" if math.isfinite(t1) else "t1")
    return SweepRecord(swept_value, t1, difference, residual, coherence, status)


@dataclass(frozen=True)
class PlateauResult:
    plateau_t1: float
    plateau_detected_at: float
    tolerance_used: float
    saturation_t1: float      # diagnostic: T1 at the saturated hot bath
    walk_flattened: bool = True   # False where the saturated row is all the
    # search found: a negative walk that never flattened (deep cooling, T1
    # tracks n3 to the floor), or a positive best point at the saturated row


@dataclass(frozen=True)
class InsulationResult:
    gamma1_values: tuple
    t1_values: tuple
    analytic_t1: float
    final_relative_gap: float
    smallest_usable_gamma1: float


@dataclass(frozen=True)
class CalibrationResult:
    coupling: float
    max_relative_error: float
    achieved: dict
    landscape: tuple          # ((g, max relative error), ...) over the search
    within_tolerance: bool    # best error <= TOL.calibration_relative

    def report_lines(self):
        lines = [
            f"calibrated coupling g = {self.coupling:.6g} "
            f"(max relative error {self.max_relative_error:.3e}, "
            f"{'within' if self.within_tolerance else 'EXCEEDS'} "
            f"{TOL.calibration_relative:.0%} tolerance)"
        ]
        for (tc, direction), (value, target, err) in self.achieved.items():
            lines.append(
                f"  tc={tc:<4} {direction.value:<8} plateau={value:.6f} "
                f"target={target:.4f} rel.err={err:.2e}"
            )
        lines.append("  landscape: " + ", ".join(
            f"g={g:.4g}:{err:.2e}" for g, err in self.landscape))
        return lines


def _solve_stack(parts, e1: float):
    """Per row of parts, a list of sector_coefficients results (coefficients,
    errors) of machines whose qubit 1 has the gap e1, its error or qubit 1's
    (residual, p_ground, p_excited, T1). The rows, whatever machine or bath
    they come from, are solved in one solve_coefficients call and checked
    each on its own. The populations are summed as the partial trace over
    qubits 3 and then 2 sums them, so a row reads the same as the partial
    trace of its 8x8 state (whose rho[j, 4 + j] the sector holds at 0).
    """
    coefficients, errors = zip(*parts)
    solved = solve_coefficients(np.concatenate(coefficients),
                                [error for part in errors for error in part])
    halves = np.add.reduce(np.add.reduce(solved.coordinates[:, :DIM].reshape(-1, 2, 2, 2),
                                         axis=3), axis=2)
    return [error or (residual, p_ground, p_excited,
                      temperature_from_population_ratio(p_ground, p_excited, e1))
            for error, residual, (p_ground, p_excited)
            in zip(solved.errors, solved.residuals.tolist(), halves.tolist())]


def _t1_of(outcome) -> float:
    """Cooled-qubit temperature of a grid outcome as a float (sentinels
    collapsed to limits); a failed outcome is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return temperature_as_float(outcome[-1])


def solve_for_readout(config: FridgeConfig):
    """(residual, cooled-qubit readout) of config's steady state, the unit of
    every single solve: the one-row case of _solve_stack. Raises the
    failure."""
    outcome, = _solve_stack([sector_coefficients(config)], config.gaps[0])
    if isinstance(outcome, Exception):
        raise outcome
    residual, p_ground, p_excited, t1 = outcome
    return residual, QubitReadout(p_ground, p_excited, t1)


def _coldness(t1: float) -> float:
    """t1 as the positive plateau ranks it: an inverted qubit (T1 < 0) is
    hotter than any positive temperature, so it ranks +inf, as
    temperature_as_float ranks zero_temp-."""
    return math.inf if t1 < 0.0 else t1


def _t1_value(config: FridgeConfig) -> float:
    return temperature_as_float(solve_for_readout(config)[1].effective_temperature)


def sweep_hot_temperature(config: FridgeConfig, th_values):
    """One steady state per hot-bath temperature, ordered as given, all solved
    as one stack. A temperature no hot bath of config's statistics can have
    raises ReservoirError before any solve.

    Per-point failures are recorded in the row status, not raised.
    """
    th_values = [float(v) for v in th_values]
    if not th_values:
        raise AnalysisError("empty sweep list")
    for v in th_values:
        check_temperature(config.reservoirs[2].statistics, v)
    tc = config.cold_temperature
    return [sweep_record(th, outcome[-1], tc, outcome[0], coherence=0.0)
            if not isinstance(outcome, Exception)
            else SweepRecord(th, math.nan, math.nan, math.nan, math.nan,
                             f"{type(outcome).__name__}: {outcome}")
            for th, outcome in zip(th_values, _solve_stack(
                [sector_coefficients(config, th_values)], config.gaps[0]))]


def _negative_walk_floor(config: FridgeConfig) -> float:
    """|T_h| of the saturated negative bath's occupation,
    1 - FERMIONIC_SATURATION_DEFICIT."""
    return temperature_from_occupation(Statistics.FERMIONIC, config.gaps[2],
                                       FERMIONIC_SATURATION_DEFICIT)


def _polish_minimum(f, bracket_lo, bracket_hi, tolerance, budget=40):
    """Golden-section minimization of f over a log-spaced bracket, until two
    samples differ by less than tolerance or budget steps are spent; returns
    the better of the last two samples as (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(bracket_lo), math.log(bracket_hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(budget):
        if abs(fc - fd) < tolerance or fc == fd == math.inf:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(math.exp(d))
    if fc <= fd:
        return math.exp(c), fc
    return math.exp(d), fd


def find_plateau(config: FridgeConfig, direction: Direction) -> PlateauResult:
    """Lowest cooled-qubit temperature as the hot bath saturates its limit.

    Negative side: geometric walk of T_h toward 0- until successive samples
    differ by less than TOL.plateau_step, cross-checked against the exactly
    saturated occupation (which is returned as the plateau, being the limit).

    Positive side: scan of a geometric T_h grid ending at the saturated bath,
    then a golden-section polish between the coldest point's neighbours; the
    point is kept where it is at least as cold. Either way plateau_t1 is the
    T1 the machine reaches at plateau_detected_at.

    Each side solves its saturated row as the last row of its first stack:
    the positive side its grid, the negative side its walk in stacks of
    NEGATIVE_WALK_CHUNK points, up to the stack where a point-by-point
    search would stop. The polish solves one point at a time.
    """
    if Direction(direction) is Direction.POSITIVE:
        return _find_plateau_positive(config)
    return _find_plateau_negative(config)


def _find_plateau_positive(config):
    config = config.with_hot_reservoir(HOT_BATHS[Direction.POSITIVE].window_edge)

    def t1_at(th):
        return _coldness(_t1_value(config.with_hot_temperature(th)))

    grid = np.geomspace(PLATEAU_GRID_START, PLATEAU_GRID_CAP,
                        int(math.log(PLATEAU_GRID_CAP / PLATEAU_GRID_START)
                            / math.log(PLATEAU_GRID_RATIO)) + 1).tolist()
    grid.append(BOSONIC_SATURATION_TEMPERATURE)
    t1s = [_t1_of(outcome) for outcome in _solve_stack([sector_coefficients(config, grid)],
                                                        config.gaps[0])]
    values = [_coldness(t1) for t1 in t1s]
    k = int(np.argmin(values))
    th_best, t1_best = _polish_minimum(t1_at, grid[max(k - 1, 0)],
                                       grid[min(k + 1, len(grid) - 1)], TOL.plateau_step)
    if values[k] <= t1_best:
        th_best, t1_best = grid[k], values[k]
    return PlateauResult(
        plateau_t1=t1_best,
        plateau_detected_at=th_best,
        tolerance_used=TOL.plateau_step,
        saturation_t1=t1s[-1],
        walk_flattened=th_best != BOSONIC_SATURATION_TEMPERATURE,
    )


def _negative_walk(config: FridgeConfig):
    """The T_h the negative plateau search walks: from NEGATIVE_WALK_START
    toward 0-, shrinking by NEGATIVE_WALK_SHRINK while |T_h| stays at or
    above _negative_walk_floor."""
    floor = _negative_walk_floor(config)
    walk = [NEGATIVE_WALK_START]
    while abs(walk[-1]) * NEGATIVE_WALK_SHRINK >= floor:
        walk.append(-abs(walk[-1]) * NEGATIVE_WALK_SHRINK)
        if walk[-1] == walk[-2]:
            # A floor below the smallest subnormal: shrinking stalls there,
            # and a step-by-step walk would read that point twice and stop.
            break
    return walk


def _find_plateau_negative(config):
    # The walk is solved in stacks of NEGATIVE_WALK_CHUNK points until a
    # stack's rows meet the stop rule, the saturated row riding as the last
    # row of the first. The rule reads the outcomes in walk order, so a
    # failed row is raised only if the walk reaches it, and the saturated
    # row's failure only once the walk has stopped.
    walk, (window_edge, saturated) = _negative_walk(config), HOT_BATHS[Direction.NEGATIVE]
    config, e1 = config.with_hot_reservoir(window_edge), config.gaps[0]
    *first, saturation = _solve_stack(
        [sector_coefficients(config, walk[:NEGATIVE_WALK_CHUNK]),
         sector_coefficients(config.with_hot_reservoir(saturated))], e1)

    def walked():
        yield from zip(walk, first)
        for start in range(NEGATIVE_WALK_CHUNK, len(walk), NEGATIVE_WALK_CHUNK):
            chunk = walk[start:start + NEGATIVE_WALK_CHUNK]
            yield from zip(chunk, _solve_stack([sector_coefficients(config, chunk)], e1))

    previous, flattened = None, False
    for detected_at, outcome in walked():
        current = _t1_of(outcome)
        if previous is not None and abs(current - previous) < TOL.plateau_step:
            flattened = True
            break
        previous = current
    # The saturated occupation is the representable limit of T_h -> 0-, so it
    # is the plateau value whether or not the walk flattened before the floor
    # (in the deep-cooling regime T1 keeps tracking n3 all the way down).
    saturation = _t1_of(saturation)
    return PlateauResult(
        plateau_t1=saturation,
        plateau_detected_at=float(detected_at),
        tolerance_used=TOL.plateau_step,
        saturation_t1=saturation,
        walk_flattened=flattened,
    )


def best_case_t1(config: FridgeConfig, direction: Direction,
                 mode: ThresholdMode = ThresholdMode.PLATEAU) -> float:
    """The lowest T1 a search compares: in PLATEAU mode the plateau value,
    in GRID_EDGE mode T1 at the reference window edge. The negative plateau
    is T1 at the saturated hot bath, which find_plateau returns whatever its
    walk does, so that one row is all this solves."""
    direction = Direction(direction)
    if ThresholdMode(mode) is ThresholdMode.GRID_EDGE:
        return _t1_value(config.with_hot_reservoir(HOT_BATHS[direction].window_edge))
    if direction is Direction.NEGATIVE:
        return _t1_value(config.with_hot_reservoir(HOT_BATHS[direction].saturated))
    return find_plateau(config, direction).plateau_t1


def _virtual_temperature(config: FridgeConfig, hot: ReservoirSpec) -> float:
    """E1 / (L3 - L2), L_k = ln(up_k/down_k) with config's room bath and the
    hot bath hot: the temperature of the virtual qubit |g e g>, |e g e> that
    the exchange ties qubit 1 to. Raises BracketError unless
    0 < L3 - L2 < inf."""
    e1, e2, e3 = config.gaps
    denominator = log_rate_ratio(hot, e3) - log_rate_ratio(config.reservoirs[1], e2)
    if not 0.0 < denominator < math.inf:
        raise BracketError(
            f"no virtual temperature: ln(up3/down3) - ln(up2/down2) = {denominator:.6e}, "
            f"so the machine {'cools at every T_c' if denominator > 0.0 else 'never cools'}")
    return e1 / denominator


def cooling_threshold(config_template: FridgeConfig, direction: Direction,
                      mode: ThresholdMode = ThresholdMode.PLATEAU) -> float:
    """Smallest cold-bath temperature at which the machine still cools: the
    virtual temperature T_c* = E1 / (L3 - L2) at the mode's best-case hot
    bath (saturated, or at the window edge T_h = 10 or -0.1).

    Qubit 1 is colder than T_c exactly when the bath-thermal product weighs
    |e g e> above |g e g>, i.e. when E1/T_c < L3 - L2, at every g > 0, set
    of gammas and detuning: the virtual-qubit condition of Brunner et al.,
    PRE 85, 051117 (2012). No steady state is solved. Raises BracketError
    when L3 - L2 <= 0, or g, gamma_2 or gamma_3 is 0 (T1 = T_c): the machine
    never cools; and when L3 - L2 = inf (a rate pinned at 0): it cools at
    every T_c.
    """
    window_edge, saturated = HOT_BATHS[Direction(direction)]
    _, gamma2, gamma3 = config_template.gammas
    if 0.0 in (config_template.coupling, gamma2, gamma3):
        raise BracketError(
            f"the machine never cools: g = {config_template.coupling}, gamma_2 = "
            f"{gamma2} and gamma_3 = {gamma3} leave T1 = T_c")
    grid_edge = ThresholdMode(mode) is ThresholdMode.GRID_EDGE
    return _virtual_temperature(config_template, window_edge if grid_edge else saturated)


def insulation_limit(config: FridgeConfig,
                     gamma1_sequence=DEFAULT_GAMMA1_SEQUENCE) -> InsulationResult:
    """Decouple the cooled qubit from its own bath and watch T1 approach the
    closed-form insulated limit.

    Once gamma_1 -> 0 the cold bath drops out and qubit 1 equilibrates with
    the virtual qubit: the limit is E1 / (L3 - L2) at config's own hot bath,
    E1 / (E2/T_r - E3/T_h) for thermal baths. Raises BracketError where the
    machine has none (see _virtual_temperature).

    All gamma_1 rows are one stack; the first row that fails with
    SteadyStateError ends the sequence, and any other failure is raised.
    """
    sequence = tuple(float(g) for g in gamma1_sequence)
    if not sequence or not all(g > 0.0 for g in sequence):
        raise AnalysisError("gamma1 sequence must be positive")
    if any(b >= a for a, b in zip(sequence, sequence[1:])):
        raise AnalysisError("gamma1 sequence must be strictly decreasing")
    analytic = _virtual_temperature(config, config.reservoirs[2])
    used, values = [], []
    for gamma1, outcome in zip(sequence, _solve_stack(
            [sector_coefficients(config.with_gamma1(g)) for g in sequence], config.gaps[0])):
        if isinstance(outcome, SteadyStateError):
            break
        values.append(_t1_of(outcome))
        used.append(gamma1)
    if not used:
        raise AnalysisError("no usable gamma1 in the sequence")
    gap = abs(values[-1] - analytic) / abs(analytic)
    return InsulationResult(
        gamma1_values=tuple(used),
        t1_values=tuple(values),
        analytic_t1=analytic,
        final_relative_gap=gap,
        smallest_usable_gamma1=used[-1],
    )


def _plateau_errors(base_config, coupling):
    achieved = {}
    worst = 0.0
    for (tc, direction), target in REFERENCE_PLATEAUS.items():
        config = replace(base_config.with_cold_temperature(tc), coupling=coupling)
        value = best_case_t1(config, direction)
        err = abs(value - target) / abs(target)
        achieved[(tc, direction)] = (value, target, err)
        worst = max(worst, err)
    return worst, achieved


def calibrate_coupling(base_config: FridgeConfig,
                       search_grid=DEFAULT_COUPLING_GRID) -> CalibrationResult:
    """Search the coupling that best reproduces REFERENCE_PLATEAUS.

    Grid search minimizing the maximum relative error over all targets,
    followed, when the grid has more than one point, by a golden-section
    refinement between the best grid point's neighbours (13 evaluations).
    The best coupling and the landscape are read from the evaluations made.
    Always returns a result; within_tolerance reports whether the best
    error clears TOL.calibration_relative, so a failed calibration still
    carries its error landscape. Each coupling's plateaus are read once.
    """
    grid = sorted(float(g) for g in search_grid)
    if not grid or any(g <= 0.0 for g in grid):
        raise AnalysisError("search grid must be positive")
    evaluated = {}     # coupling -> (max relative error, achieved)

    def err_at(g):
        if g not in evaluated:
            evaluated[g] = _plateau_errors(base_config, g)
        return evaluated[g][0]

    for g in grid:
        err_at(g)
    if len(grid) > 1:
        k = min(range(len(grid)), key=lambda i: evaluated[grid[i]][0])
        lo = grid[k - 1] if k > 0 else grid[k] / 2.0
        hi = grid[k + 1] if k < len(grid) - 1 else grid[k] * 2.0
        _polish_minimum(err_at, lo, hi, tolerance=0.0, budget=11)
    # the first minimum in evaluation order: grid points win ties
    best_g = min(evaluated, key=lambda g: evaluated[g][0])
    final_err, achieved = evaluated[best_g]
    return CalibrationResult(
        coupling=best_g,
        max_relative_error=final_err,
        achieved=achieved,
        landscape=tuple(sorted((g, err) for g, (err, _) in evaluated.items())),
        within_tolerance=final_err <= TOL.calibration_relative,
    )
