import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfridge import (
    Direction,
    ThresholdMode,
    calibrate_coupling,
    cooling_threshold,
    default_config,
    find_plateau,
    insulation_limit,
    sweep_hot_temperature,
)
from qfridge import analysis, liouvillian, reservoirs
from qfridge.analysis import (
    AnalysisError,
    BracketError,
    FERMIONIC_SATURATION_DEFICIT,
    HOT_BATHS,
    NEGATIVE_WINDOW_EDGE,
    PlateauResult,
    _negative_walk,
    _negative_walk_floor,
    best_case_t1,
    solve_for_readout,
)
from qfridge.liouvillian import FridgeConfig
from qfridge.linalg import TOL
from qfridge.reservoirs import ReservoirError, ReservoirSpec, Role, Statistics
from qfridge.steady_state import SteadyStateError
from qfridge.thermometry import temperature_as_float
from tests.conftest import exact_qubit1_populations
from tests.oracles import (
    THRESHOLD_BRACKET,
    build_liouvillian,
    read_qubit,
    solve_direct,
    threshold_bracket,
)


def test_single_point_sweep_equals_direct_solve(reference_config):
    records = sweep_hot_temperature(reference_config, [10.0])
    assert len(records) == 1
    record = records[0]
    result = solve_direct(build_liouvillian(reference_config))
    readout = read_qubit(result.state, 1, 1.0)
    assert record.t1 == pytest.approx(readout.effective_temperature, rel=1e-12)
    assert record.t1_minus_tc == pytest.approx(record.t1 - 1.0, abs=1e-12)
    assert record.status == "ok"


def test_sweep_is_ordered_and_deterministic(reference_config):
    values = [3.0, 1.0, 7.0]   # deliberately unsorted: order must be preserved
    a = sweep_hot_temperature(reference_config, values)
    b = sweep_hot_temperature(reference_config, values)
    assert [r.swept_value for r in a] == values
    assert a == b


def test_sweep_rejects_empty_and_invalid(reference_config):
    with pytest.raises(AnalysisError):
        sweep_hot_temperature(reference_config, [])
    # each value is checked as the hot bath checks its temperature, before
    # any solve: -1 is invalid for the bosonic hot bath
    for th in (-1.0, 0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ReservoirError):
            sweep_hot_temperature(reference_config, [5.0, th])


def test_sweep_records_per_point_failures():
    # Qubit 1 fully disconnected: every point has a degenerate stationary
    # manifold, which must land in the row status, not abort the sweep.
    config = default_config(coupling=0.0, gammas=(0.0, 1.0, 1.0))
    records = sweep_hot_temperature(config, [2.0, 5.0])
    assert all(r.status != "ok" for r in records)
    assert all(math.isnan(r.residual) for r in records)


def test_sweep_records_an_underflowing_hot_ratio():
    # E3 / T_h = 1e-20 / 1e308 underflows to 0: the bosonic occupation is
    # unbounded, and that point's status says so instead of aborting the sweep.
    config = default_config(gaps=(1.0, 1.0 + 1e-20, 1e-20))
    records = sweep_hot_temperature(config, [2.0, 1e308])
    assert records[1].status.startswith("ReservoirError: ")
    assert "underflows" in records[1].status
    assert math.isnan(records[1].t1)
    assert records[0].status != records[1].status


def test_positive_plateau_reference_values(reference_config):
    plateau = find_plateau(reference_config, Direction.POSITIVE)
    assert plateau.plateau_t1 == pytest.approx(0.9485, abs=2e-4)
    assert 8.0 <= plateau.plateau_detected_at <= 15.0
    # the bosonic hot limit re-thermalizes the target toward t_c, so the
    # saturation diagnostic must sit well above the plateau
    assert plateau.saturation_t1 > 0.99
    assert plateau.walk_flattened


def test_negative_plateau_reference_values(reference_config):
    plateau = find_plateau(reference_config, Direction.NEGATIVE)
    assert plateau.plateau_t1 == pytest.approx(0.78047, abs=1e-4)
    assert plateau.saturation_t1 == pytest.approx(plateau.plateau_t1, abs=1e-12)
    assert plateau.walk_flattened


def test_negative_plateau_deep_cooling_tracks_the_floor():
    config = default_config(tc=0.005)
    plateau = find_plateau(config, Direction.NEGATIVE)
    assert not plateau.walk_flattened
    assert plateau.plateau_t1 < 0.05


def test_negative_side_monotone_toward_zero_minus():
    # On the hotness ordering T_h -> 0- is hotter, and the cooled qubit's
    # temperature must not increase along the walk.
    config = default_config(tc=1.0, hot_statistics="fermionic", th=-1.0)
    grid = [-v for v in np.geomspace(10.0, 0.15, 25)]
    records = sweep_hot_temperature(config, grid)
    values = [r.t1 for r in records]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def _serial_t1(config, hot):
    _, readout = solve_for_readout(config.with_hot_reservoir(hot))
    return temperature_as_float(readout.effective_temperature)


def _serial_plateau(config, direction):
    """find_plateau one solve per point: the negative walk stepped one T_h
    at a time until it flattens, the positive grid point by point, and the
    saturation point solved on its own after them. On the positive side the
    saturation point is the plateau wherever it is colder than the grid's
    best."""
    if direction is Direction.NEGATIVE:
        floor = _negative_walk_floor(config)
        th = analysis.NEGATIVE_WALK_START
        previous = _serial_t1(config, ReservoirSpec(Statistics.FERMIONIC, th, Role.HOT))
        detected_at, flattened = th, False
        while abs(th) * analysis.NEGATIVE_WALK_SHRINK >= floor:
            th = -abs(th) * analysis.NEGATIVE_WALK_SHRINK
            current = _serial_t1(config, ReservoirSpec(Statistics.FERMIONIC, th, Role.HOT))
            detected_at = th
            if abs(current - previous) < TOL.plateau_step:
                flattened = True
                break
            previous = current
        saturation = _serial_t1(config, HOT_BATHS[direction].saturated)
        return PlateauResult(saturation, detected_at, TOL.plateau_step, saturation,
                             flattened)
    config = config.with_hot_reservoir(HOT_BATHS[direction].window_edge)
    grid = np.geomspace(analysis.PLATEAU_GRID_START, analysis.PLATEAU_GRID_CAP,
                        int(math.log(analysis.PLATEAU_GRID_CAP / analysis.PLATEAU_GRID_START)
                            / math.log(analysis.PLATEAU_GRID_RATIO)) + 1).tolist()
    def ranked(t1):   # an inverted qubit is hotter than any positive T1
        return math.inf if t1 < 0.0 else t1

    values = [ranked(_serial_t1(config, ReservoirSpec(Statistics.BOSONIC, th, Role.HOT)))
              for th in grid]
    saturation = _serial_t1(config, HOT_BATHS[direction].saturated)
    k = int(np.argmin(values))
    if k == len(grid) - 1 and values[-2] - values[-1] >= TOL.plateau_step:
        return PlateauResult(min(values[-1], ranked(saturation)),
                             analysis.BOSONIC_SATURATION_TEMPERATURE, TOL.plateau_step,
                             saturation, False)
    th_best, t1_best = analysis._polish_minimum(
        lambda th: ranked(_serial_t1(config, ReservoirSpec(Statistics.BOSONIC, th, Role.HOT))),
        grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], TOL.plateau_step)
    if values[k] < t1_best:
        th_best, t1_best = grid[k], values[k]
    if ranked(saturation) < t1_best:
        th_best, t1_best = analysis.BOSONIC_SATURATION_TEMPERATURE, saturation
    return PlateauResult(t1_best, th_best, TOL.plateau_step, saturation)


def _outcome(search, *args):
    """search(*args), or the type and message of what it raised."""
    try:
        return search(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def plateau_machines(draw):
    """Resonant or detuned machines with T_c from about 0.004 (deep cooling:
    the negative walk reaches its floor without flattening) to about 2 (it
    flattens before the floor), sometimes with a free qubit 1 (every search
    fails)."""
    e1 = draw(st.floats(0.5, 2.0))
    e3 = draw(st.floats(0.5, 4.0))
    e2 = e1 + e3 + draw(st.sampled_from((0.0, 0.0, -0.4, 0.4)))
    coupling = draw(st.floats(0.2, 2.0))
    gammas = [draw(st.floats(0.3, 2.0)) for _ in range(3)]
    if draw(st.integers(0, 9)) == 0:
        coupling, gammas[0] = 0.0, 0.0
    tc = draw(st.sampled_from((0.004, 0.01, 0.03, 0.1, 0.5, 1.0, 2.0))) * draw(
        st.floats(0.8, 1.25))
    room = ReservoirSpec(draw(st.sampled_from(list(Statistics))),
                         draw(st.floats(1.0, 3.0)), Role.ROOM)
    hot = ReservoirSpec(Statistics.BOSONIC, 10.0, Role.HOT)
    return FridgeConfig(gaps=(e1, e2, e3), gammas=tuple(gammas),
                        reservoirs=(ReservoirSpec(Statistics.BOSONIC, tc, Role.COLD),
                                    room, hot),
                        coupling=coupling)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(plateau_machines(), st.sampled_from(list(Direction)))
@example(default_config(), Direction.NEGATIVE)
@example(default_config(tc=0.005), Direction.NEGATIVE)
@example(default_config(tc=0.005), Direction.POSITIVE)
@example(default_config(gaps=(1.0, 1.0 + 1e-323, 1e-323)), Direction.NEGATIVE)
@example(default_config(th=-0.1, hot_statistics="fermionic"), Direction.POSITIVE)
def test_stacked_plateau_search_is_the_serial_search(config, direction):
    # Each search is one stacked solve; field by field, bit for bit, it
    # finds what the serial search finds, or fails as it does. A fermionic
    # hot bath is swapped for the bosonic window-edge bath on the positive
    # side.
    assert _outcome(find_plateau, config, direction) == _outcome(
        _serial_plateau, config, direction)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(plateau_machines())
@example(default_config())
@example(default_config(tc=0.005))
@example(default_config(gaps=(1.0, 1.0 + 1e-300, 1e-300)))
def test_negative_best_case_is_the_plateau_bit_for_bit(config):
    # best_case_t1 solves only the saturated row, which is the plateau
    # find_plateau returns after its walk: the same float, bit for bit, or
    # a failure where the search fails.
    plateau = _outcome(find_plateau, config, Direction.NEGATIVE)
    best = _outcome(best_case_t1, config, Direction.NEGATIVE)
    if isinstance(plateau, PlateauResult):
        assert best.hex() == plateau.plateau_t1.hex()
    else:
        assert isinstance(best, tuple) and issubclass(best[0], RuntimeError)


@pytest.mark.parametrize("gamma1, inverted_at", [(0.01, 1.4), (0.0, 1.5)])
def test_an_inverted_t1_does_not_win_the_positive_plateau(gamma1, inverted_at):
    # With qubit 1 weakly tied to its bath (or not at all), the exchange
    # heats it past infinite temperature at the low end of the grid: T1 < 0
    # there, which is hotter than any positive T1, not colder. Ranked raw,
    # the search returned -2.07e9 at T_h = 1.40 for gamma_1 = 0.01 and
    # -1.2e9 at T_h = 1.6 for gamma_1 = 0, and a threshold bisection over it
    # found no sign change. An insulated qubit 1 sits at the virtual
    # temperature, so its plateau is the closed-form threshold.
    config = default_config(gammas=(gamma1, 1.0, 1.0))
    assert sweep_hot_temperature(config, [inverted_at])[0].t1 < 0.0
    plateau = find_plateau(config, Direction.POSITIVE)
    assert 0.0 < plateau.plateau_t1 < config.cold_temperature
    assert plateau == _serial_plateau(config, Direction.POSITIVE)
    threshold = cooling_threshold(config, Direction.POSITIVE)
    assert threshold == pytest.approx(0.4000006, abs=1e-7)
    if gamma1 == 0.0:
        assert plateau.plateau_t1 == pytest.approx(threshold, rel=1e-12, abs=0.0)
    else:
        assert plateau.plateau_t1 == pytest.approx(0.49118, abs=1e-5)
        lo, hi = threshold_bracket(config, Direction.POSITIVE)
        assert threshold <= hi <= lo + TOL.threshold_resolution


@pytest.mark.parametrize("offset", [-2, 0, 1, 2])
def test_a_failing_walk_row_counts_only_if_the_walk_reaches_it(
        reference_config, monkeypatch, offset):
    # The reference walk flattens well before its floor. A row the serial
    # walk reaches raises that walk's exception; a row after the stop is
    # never read.
    walk = _negative_walk(reference_config)
    plateau = find_plateau(reference_config, Direction.NEGATIVE)
    stop = walk.index(plateau.plateau_detected_at)
    assert plateau.walk_flattened and stop + 2 < len(walk)
    failing = walk[stop + offset]
    # the hot rates fail at that walk point only: its L3 = -E3/T_h is
    # neither the saturated bath's nor the cold or room bath's
    rates, failing_ratio = reservoirs.bath_rates, -reference_config.gaps[2] / failing

    def rates_failing_at(statistics, gamma, log_ratio):
        if log_ratio == failing_ratio:
            raise ReservoirError(f"no rates at T_h = {failing}")
        return rates(statistics, gamma, log_ratio)

    monkeypatch.setattr(reservoirs, "bath_rates", rates_failing_at)
    outcome = _outcome(find_plateau, reference_config, Direction.NEGATIVE)
    assert outcome == _outcome(_serial_plateau, reference_config, Direction.NEGATIVE)
    if offset <= 0:
        assert outcome == (ReservoirError, f"no rates at T_h = {failing}")
    else:
        assert outcome == plateau
    # the value a threshold or calibration compares reads only the
    # saturated row, so no walk row can fail it
    assert best_case_t1(reference_config, Direction.NEGATIVE) == plateau.plateau_t1


def test_the_negative_walk_is_solved_only_up_to_the_stack_where_it_stops(monkeypatch):
    # With E3 = 1e-300 the walk has 2,420 points to its floor, and it
    # flattens at its second: one stack of NEGATIVE_WALK_CHUNK points and
    # the saturation point, its last row, is solved, not the whole walk. The
    # reference machine's 14 points and its saturation point are one stack,
    # whose last row is the plateau best_case_t1 solves alone, and a
    # deep-cooling walk of 21 points (E3 = 0.5) that never flattens takes
    # two stacks and finds what the serial search finds.
    stacks = []
    solve = analysis.solve_coefficients

    def counted(coefficients, errors=None):
        stacks.append(len(coefficients))
        return solve(coefficients, errors)

    monkeypatch.setattr(analysis, "solve_coefficients", counted)
    tiny = default_config(gaps=(1.0, 1.0 + 1e-300, 1e-300))
    assert len(_negative_walk(tiny)) == 2420
    assert find_plateau(tiny, Direction.NEGATIVE).walk_flattened
    assert stacks == [analysis.NEGATIVE_WALK_CHUNK + 1]
    stacks.clear()
    reference = find_plateau(default_config(), Direction.NEGATIVE)
    assert stacks == [15]
    assert best_case_t1(default_config(), Direction.NEGATIVE) == reference.plateau_t1
    deep = default_config(tc=0.005, gaps=(1.0, 1.5, 0.5))
    stacks.clear()
    plateau = find_plateau(deep, Direction.NEGATIVE)
    assert stacks == [analysis.NEGATIVE_WALK_CHUNK + 1, 21 - analysis.NEGATIVE_WALK_CHUNK]
    assert not plateau.walk_flattened
    assert plateau == _serial_plateau(deep, Direction.NEGATIVE)


def test_positive_threshold_grid_edge(reference_config):
    threshold = cooling_threshold(reference_config, Direction.POSITIVE,
                                  ThresholdMode.GRID_EDGE)
    assert threshold == pytest.approx(0.476, abs=5e-3)


def test_positive_threshold_plateau_mode_hits_virtual_floor(reference_config):
    # Best case over the unbounded hot axis: the threshold is pinned at the
    # virtual temperature E1 T_r / E2 = 0.4, not at the window-edge value.
    threshold = cooling_threshold(reference_config, Direction.POSITIVE,
                                  ThresholdMode.PLATEAU)
    assert threshold == pytest.approx(0.400, abs=2e-3)


def test_the_positive_plateau_reaches_its_threshold(reference_config):
    # At T_c* the machine cools only in the hot limit, above the grid's cap,
    # so the saturated row must win over the grid's interior minimum: the
    # best case there is T_c* itself, not 2e-8 above it.
    threshold = cooling_threshold(reference_config, Direction.POSITIVE,
                                  ThresholdMode.PLATEAU)
    at_threshold = reference_config.with_cold_temperature(threshold)
    assert best_case_t1(at_threshold, Direction.POSITIVE) <= threshold
    plateau = find_plateau(at_threshold, Direction.POSITIVE)
    assert plateau.plateau_detected_at == analysis.BOSONIC_SATURATION_TEMPERATURE
    assert plateau.plateau_t1 == plateau.saturation_t1


def test_negative_threshold_plateau_mode(reference_config):
    threshold = cooling_threshold(reference_config, Direction.NEGATIVE,
                                  ThresholdMode.PLATEAU)
    assert threshold == pytest.approx(0.0270, abs=5e-4)


def test_negative_threshold_below_positive(reference_config):
    neg = cooling_threshold(reference_config, Direction.NEGATIVE, ThresholdMode.PLATEAU)
    pos = cooling_threshold(reference_config, Direction.POSITIVE, ThresholdMode.PLATEAU)
    assert neg < pos / 10.0   # an order of magnitude apart


def test_threshold_sign_consistency(reference_config):
    threshold = cooling_threshold(reference_config, Direction.POSITIVE,
                                  ThresholdMode.GRID_EDGE)
    above = reference_config.with_cold_temperature(threshold + 0.01)
    below = reference_config.with_cold_temperature(threshold - 0.01)
    assert best_case_t1(above, Direction.POSITIVE, ThresholdMode.GRID_EDGE) - (threshold + 0.01) < 0.0
    assert best_case_t1(below, Direction.POSITIVE, ThresholdMode.GRID_EDGE) - (threshold - 0.01) >= 0.0


def test_negative_grid_edge_threshold_is_tiny(reference_config):
    # At T_h = -0.1 the closed form reads E1 / (E3/0.1 + E2/T_r) = 1/42.5
    # from the temperatures. T1 is checked against the 60-digit solve whose
    # rates come from the temperatures: below T_c* the machine heats qubit 1
    # toward about 0.02305 (p_e1 ~ 1.43e-19 at T_c = 0.01 and 0.02), at T_c*
    # T1 = T_c*, and above it qubit 1 is cooled.
    threshold = cooling_threshold(reference_config, Direction.NEGATIVE,
                                  ThresholdMode.GRID_EDGE)
    assert threshold == 1.0 / 42.5
    for tc in (0.01, 0.02, threshold, 0.05, 0.1):
        config = reference_config.with_cold_temperature(tc)
        t1 = best_case_t1(config, Direction.NEGATIVE, ThresholdMode.GRID_EDGE)
        edge = config.with_hot_reservoir(
            ReservoirSpec(Statistics.FERMIONIC, NEGATIVE_WINDOW_EDGE, Role.HOT))
        p_ground, p_excited = exact_qubit1_populations(edge)
        exact = config.gaps[0] / math.log(float(p_ground / p_excited))
        assert t1 == pytest.approx(exact, rel=1e-9, abs=0.0)
        if tc < threshold:
            assert t1 > tc
        elif tc > threshold:
            assert t1 < tc
    assert t1 == pytest.approx(0.0949875, rel=1e-6)


def test_threshold_bracket_error_when_machine_never_cools(reference_config):
    # Room bath hotter than the hot bath: the virtual pair is inverted and
    # qubit 1 is heated at every cold temperature, so no sign change exists.
    config = default_config(tc=1.0, tr=20.0, th=10.0)
    with pytest.raises(BracketError):
        cooling_threshold(config, Direction.POSITIVE, ThresholdMode.GRID_EDGE)


@st.composite
def threshold_machines(draw):
    """Resonant or detuned machines with g > 0 and positive gammas whose
    cold and room baths are bosonic, fermionic or inverted (the room)."""
    e1 = draw(st.floats(0.5, 2.0))
    e3 = draw(st.floats(0.5, 4.0))
    e2 = e1 + e3 + draw(st.sampled_from((0.0, 0.0, -0.4, 0.4)))
    room = draw(st.sampled_from(("bosonic", "fermionic", "inverted")))
    tr = draw(st.floats(0.5, 10.0))
    room = (ReservoirSpec(Statistics.BOSONIC, tr, Role.ROOM) if room == "bosonic" else
            ReservoirSpec(Statistics.FERMIONIC, tr if room == "fermionic" else -tr, Role.ROOM))
    cold = ReservoirSpec(draw(st.sampled_from(list(Statistics))), 1.0, Role.COLD)
    return FridgeConfig(gaps=(e1, e2, e3),
                        gammas=tuple(draw(st.floats(0.05, 2.0)) for _ in range(3)),
                        reservoirs=(cold, room, HOT_BATHS[Direction.POSITIVE].window_edge),
                        coupling=draw(st.floats(0.05, 2.0)))


def _closed_form_at(config, hot):
    """E1 / (L3 - L2) with the hot bath hot, or None where it is not positive."""
    e1, e2, e3 = config.gaps
    denominator = (reservoirs.log_rate_ratio(hot, e3)
                   - reservoirs.log_rate_ratio(config.reservoirs[1], e2))
    return e1 / denominator if denominator > 0.0 else None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(threshold_machines(), st.sampled_from(list(Direction)),
       st.sampled_from(list(ThresholdMode)))
@example(default_config(gammas=(0.01, 1.0, 1.0)), Direction.POSITIVE, ThresholdMode.PLATEAU)
@example(default_config(coupling=0.0), Direction.POSITIVE, ThresholdMode.GRID_EDGE)
@example(default_config(gammas=(1.0, 0.0, 1.0)), Direction.NEGATIVE, ThresholdMode.PLATEAU)
@example(default_config(gammas=(1.0, 1.0, 0.0)), Direction.POSITIVE, ThresholdMode.PLATEAU)
@example(default_config(tr=20.0), Direction.POSITIVE, ThresholdMode.GRID_EDGE)
def test_closed_form_threshold_agrees_with_the_bisection(config, direction, mode):
    # The bisection over the production solves (tests/oracles.py) is the
    # oracle. Where it brackets a sign change, the closed form lies in its
    # final bracket; where the closed form says the machine never cools, or
    # lies outside THRESHOLD_BRACKET, the bisection finds no sign change. The
    # positive plateau search reads T_h on its grid up to PLATEAU_GRID_CAP
    # and at the saturated point, so its threshold lies between the closed
    # forms at the saturated bath and at the grid cap.
    # With g, gamma_2 or gamma_3 at 0, T1 = T_c at every T_c, and the
    # bisection would read the sign of rounding.
    hot = HOT_BATHS[direction]
    hot = hot.window_edge if mode is ThresholdMode.GRID_EDGE else hot.saturated
    closed = _outcome(cooling_threshold, config, direction, mode)
    if 0.0 in (config.coupling, config.gammas[1], config.gammas[2]):
        assert closed[0] is BracketError
        return
    # The oracle solves the float rates, with the cold bath at 1 and the
    # mode's hot bath; each rate pair holds the L the closed form reads.
    # Skipped: a rate that rounds to 0.
    rates = liouvillian.sector_coefficients(config.with_hot_reservoir(hot))[0][0, :6]
    assume(np.all(rates > 0.0))
    oracle = _outcome(threshold_bracket, config, direction, mode)
    lo_end, hi_end = THRESHOLD_BRACKET
    if direction is Direction.POSITIVE and mode is ThresholdMode.PLATEAU:
        at_cap = _closed_form_at(
            config, ReservoirSpec(Statistics.BOSONIC, analysis.PLATEAU_GRID_CAP, Role.HOT))
        if isinstance(oracle[0], float):
            assert closed <= oracle[1] <= at_cap + TOL.threshold_resolution
        else:
            assert oracle[0] is BracketError
            assert (isinstance(closed, tuple) or closed < lo_end
                    or at_cap is None or at_cap > hi_end - TOL.threshold_resolution)
    elif isinstance(oracle[0], float):
        lo, hi = oracle
        assert lo <= closed <= hi
    else:
        assert oracle[0] is BracketError
        assert isinstance(closed, tuple) or not lo_end < closed < hi_end


@settings(max_examples=60, deadline=None, derandomize=True)
@given(threshold_machines(), st.sampled_from(list(Direction)))
@example(default_config(), Direction.NEGATIVE)
@example(default_config(gaps=(1.0, 5.4, 4.0)), Direction.NEGATIVE)
def test_qubit_1_sits_at_the_grid_edge_threshold(config, direction):
    # The virtual-qubit identity (Brunner et al., PRE 85, 051117 (2012)): at
    # T_c = T_c* the product of the baths' thermal states carries no flux
    # through the exchange, so it is the steady state and T1 = T_c*. The
    # rates and the closed form read the same L3 - L2, so this holds to
    # rounding: T1 = E1 / ln(p_g/p_e), whose logarithm the solve holds to
    # about 1e-15, so the bound grows as T_c*/E1 once that passes 1. A rate
    # off its L (the fermionic gamma (1 - n) as n -> 1 was, by 1.2% on the
    # reference machine at T_h = -0.1) breaks it.
    threshold = _outcome(cooling_threshold, config, direction, ThresholdMode.GRID_EDGE)
    assume(isinstance(threshold, float))
    t1 = best_case_t1(config.with_cold_temperature(threshold), direction,
                      ThresholdMode.GRID_EDGE)
    bound = 1e-14 * max(1.0, threshold / config.gaps[0])
    assert t1 == pytest.approx(threshold, rel=bound, abs=0.0)


def test_a_room_pinned_at_zero_has_no_threshold(reference_config):
    # Qubit 2's room up-rate is exactly 0, so L2 = -inf: qubit 1 is cooled at
    # every T_c > 0, and there is no positive T_c to solve the row at.
    cold, _, hot = reference_config.reservoirs
    room = ReservoirSpec(Statistics.BOSONIC, 2.0, Role.ROOM, occupation_override=0.0)
    config = FridgeConfig(reference_config.gaps, reference_config.gammas,
                          (cold, room, hot), reference_config.coupling)
    with pytest.raises(BracketError, match="cools at every T_c"):
        cooling_threshold(config, Direction.POSITIVE, ThresholdMode.GRID_EDGE)


def test_insulation_limit_converges_monotonically():
    config = default_config(tc=1.0, tr=2.0, th=10.0, coupling=2.0)
    result = insulation_limit(config)
    gaps = [abs(v - result.analytic_t1) for v in result.t1_values]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert result.final_relative_gap <= 1e-3
    assert result.smallest_usable_gamma1 == result.gamma1_values[-1]


def test_insulation_limit_equilibrium_case():
    # All baths at the same temperature: nothing moves, at any insulation.
    config = default_config(tc=1.3, tr=1.3, th=1.3, coupling=1.0)
    result = insulation_limit(config, (1e-1, 1e-2, 1e-3))
    assert result.analytic_t1 == pytest.approx(1.3, rel=1e-12)
    for value in result.t1_values:
        assert value == pytest.approx(1.3, rel=1e-6)


def test_insulation_limit_negative_hot_bath():
    # Gaps (1, 2, 1), room bath at 1, hot bath at -0.1: the closed form gives
    # 1/12, approached logarithmically slowly, hence the deep gamma1 tail.
    config = default_config(tc=1.0, tr=1.0, th=-0.1, coupling=2.0,
                            gaps=(1.0, 2.0, 1.0), hot_statistics="fermionic")
    result = insulation_limit(config, (1e-2, 1e-4, 1e-6, 1e-8))
    assert result.analytic_t1 == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert result.final_relative_gap <= 1e-3


@pytest.mark.parametrize("config, analytic", [
    (default_config(gaps=(1.0, 5.0, 3.5)), 1.0 / (5.0 / 2.0 - 3.5 / 10.0)),
    (default_config().with_hot_reservoir(
        ReservoirSpec(Statistics.BOSONIC, 10.0, Role.HOT, occupation_override=0.5)),
     1.0 / (5.0 / 2.0 - math.log1p(1.0 / 0.5))),
], ids=["detuned", "pinned-hot"])
def test_insulation_limit_reads_the_virtual_temperature(config, analytic):
    # Off resonance, and with a hot bath pinned at n3 = 0.5 whose nominal
    # T_h = 10 no rate reads, the limit is E1 / (L3 - L2) of the machine's
    # own room and hot baths, and the solved T1 approaches it.
    result = insulation_limit(config, (1e-2, 1e-4, 1e-6, 1e-8))
    assert result.analytic_t1 == pytest.approx(analytic, rel=1e-15, abs=0.0)
    assert result.final_relative_gap <= 1e-6


def _serial_insulation(config, sequence):
    """The gamma_1 values and T1s of insulation_limit, one solve per gamma_1
    until the first that fails with SteadyStateError."""
    used, values = [], []
    for gamma1 in sequence:
        try:
            _, readout = solve_for_readout(config.with_gamma1(gamma1))
        except SteadyStateError:
            break
        values.append(temperature_as_float(readout.effective_temperature))
        used.append(gamma1)
    return used, values


@pytest.mark.parametrize("config, sequence", [
    (default_config(), analysis.DEFAULT_GAMMA1_SEQUENCE),
    (default_config(tc=1.0, tr=1.0, th=-0.1, coupling=2.0, gaps=(1.0, 2.3, 1.0),
                    hot_statistics="fermionic"), (1e-2, 1e-4, 1e-6, 1e-8)),
    # qubit 2 free with g = 0: every row fails, so none is usable
    (default_config(coupling=0.0, gammas=(1.0, 0.0, 1.0)), (1e-1, 1e-2)),
], ids=["reference", "detuned-fermionic", "no-usable-row"])
def test_insulation_stack_is_the_one_at_a_time_loop(config, sequence):
    # All gamma_1 rows are solved as one stack, and a stacked row equals its
    # one-row solve bit for bit, so the result is the serial loop's.
    result = _outcome(insulation_limit, config, sequence)
    used, values = _serial_insulation(config, sequence)
    if not used:
        assert result == (AnalysisError, "no usable gamma1 in the sequence")
        return
    assert result.gamma1_values == tuple(used) == tuple(sequence)
    assert [v.hex() for v in result.t1_values] == [v.hex() for v in values]
    gap = abs(values[-1] - result.analytic_t1) / abs(result.analytic_t1)
    assert result.final_relative_gap.hex() == gap.hex()
    assert result.smallest_usable_gamma1 == used[-1]


def test_insulation_limit_validates_sequence(reference_config):
    with pytest.raises(AnalysisError):
        insulation_limit(reference_config, ())
    with pytest.raises(AnalysisError):
        insulation_limit(reference_config, (1e-2, 1e-1))
    with pytest.raises(AnalysisError):
        insulation_limit(reference_config, (1e-2, -1e-3))


def test_calibration_single_candidate(reference_config):
    result = calibrate_coupling(reference_config, search_grid=(1.0,))
    assert result.coupling == 1.0
    assert result.max_relative_error < 0.01
    assert result.within_tolerance
    assert len(result.achieved) == 6


def test_calibration_reports_failure_landscape(reference_config):
    # A grid nowhere near the right coupling still returns a full report,
    # refined around its better point and still failing.
    result = calibrate_coupling(reference_config, search_grid=(0.01, 0.02))
    assert not result.within_tolerance
    assert result.max_relative_error > 0.05
    couplings = [g for g, _ in result.landscape]
    assert {0.01, 0.02} <= set(couplings)
    assert result.max_relative_error == min(err for _, err in result.landscape)


def test_calibration_reuses_the_plateaus_of_the_chosen_coupling(
        reference_config, monkeypatch):
    from qfridge import analysis
    from qfridge.analysis import REFERENCE_PLATEAUS, _plateau_errors

    calls = []
    original = analysis.best_case_t1

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "best_case_t1", counted)
    result = calibrate_coupling(reference_config, search_grid=(0.5, 1.0, 2.0))
    couplings = {g for g, _ in result.landscape}
    # one plateau read per target and coupling evaluated, none repeated at the end
    assert len(calls) == len(couplings) * len(REFERENCE_PLATEAUS)
    monkeypatch.setattr(analysis, "best_case_t1", original)
    worst, achieved = _plateau_errors(reference_config, result.coupling)
    assert result.max_relative_error == worst
    assert result.achieved == achieved
    assert result.coupling in couplings
    assert result.max_relative_error == min(err for _, err in result.landscape)
    assert result.within_tolerance


def test_solve_for_readout_consistency(reference_config):
    residual, readout = solve_for_readout(reference_config)
    assert residual <= 1e-10
    assert readout.effective_temperature == pytest.approx(0.94860, abs=1e-4)


def test_saturation_deficit_is_resolvable():
    assert 1.0 - FERMIONIC_SATURATION_DEFICIT < 1.0
