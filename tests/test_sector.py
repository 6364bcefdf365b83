"""The sector solve, a rate chain whose even states are solved by the tree
sum, against the exact law of random 4-state chains, of raw coefficient
rows over the whole float range (in rational arithmetic), the sector
generator and the 64x64 oracle; the stacked solve against one-at-a-time
solves, at any stack size, and against closed forms: the g = 0 thermal
product and the fermionic mirror symmetry. Chains that are not irreducible
against their closed classes, tiny populations against mpmath,
README's tiny-population rows, which keep the law of the main path, and its
huge- and tiny-rate rows, solved wide to their exact law, the order of a
row's rate errors, and the residual check of a row whose float chain
overflows.

Property tests over resonant and detuned machines, including the decoupled
machine (g = 0), a bath switched off (gamma_k = 0), saturated hot baths and
baths whose |E/T| straddles 700, where the rates' exp terms near the
bottom of the float range.
"""

import io
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfridge import (
    DensityMatrix,
    FridgeConfig,
    ReservoirSpec,
    Role,
    Statistics,
    default_config,
)
from qfridge import analysis
from qfridge.analysis import (HOT_BATHS, Direction, _negative_walk, _solve_stack,
                              solve_for_readout, sweep_hot_temperature)
from qfridge.linalg import TOL, LinalgError
from qfridge.liouvillian import (
    DIM,
    SECTOR_DIM,
    SECTOR_PAIR,
    DensityMatrixError,
    _sector_state_errors,
    density_matrix_errors,
    sector_coefficients,
)
from qfridge import steady_state
from qfridge.reservoirs import ReservoirError, occupation
from qfridge.steady_state import (
    MultiplicityError,
    SteadyStateError,
    _ORDER,
    _tree_weights,
    solve_coefficients,
)
from qfridge.thermometry import TemperatureSentinel
from tests.conftest import exact_qubit1_populations, random_valid_config, sector_solution
from tests.oracles import (
    build_liouvillian,
    read_qubit,
    sector_generator,
    sector_states,
    solve_direct,
    solve_sectors,
    thermal_product,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

temperatures = st.floats(0.3, 10.0)


def _pinned(statistics, n, role=Role.HOT):
    """A bath pinned at occupation n; its nominal temperature, 1, is read by
    no rate."""
    return ReservoirSpec(statistics, 1.0, role, occupation_override=n)


@st.composite
def reservoirs(draw, role, gap, extreme=True):
    kinds = ("bosonic", "fermionic", "inverted") + (("near-cutoff",) if extreme else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "bosonic":
        return ReservoirSpec(Statistics.BOSONIC, draw(temperatures), role)
    if kind == "fermionic":
        return ReservoirSpec(Statistics.FERMIONIC, draw(temperatures), role)
    if kind == "inverted":
        return ReservoirSpec(Statistics.FERMIONIC, -draw(temperatures), role)
    # |E/T| on either side of 700, either statistics, either sign
    statistics = draw(st.sampled_from(list(Statistics)))
    sign = 1.0 if statistics is Statistics.BOSONIC else draw(st.sampled_from((1.0, -1.0)))
    return ReservoirSpec(statistics, sign * gap / draw(st.floats(650.0, 750.0)), role)


@st.composite
def machines(draw):
    e1 = draw(st.floats(0.5, 2.0))
    e3 = draw(st.floats(0.5, 4.0))
    detuning = draw(st.sampled_from((0.0, None)))
    if detuning is None:
        detuning = draw(st.floats(-0.8, 0.8))
    e2 = max(0.3, e1 + e3 + detuning)
    coupling = draw(st.sampled_from((0.0, None)))
    if coupling is None:
        coupling = draw(st.floats(0.05, 2.0))
    gammas = [draw(st.floats(0.2, 2.0)) for _ in range(3)]
    if coupling > 0.0:
        # With g = 0 a switched-off bath leaves its qubit free: MultiplicityError.
        off = draw(st.sampled_from((None, 0, 1, 2)))
        if off is not None:
            gammas[off] = 0.0
    cold = draw(reservoirs(Role.COLD, e1, extreme=False))
    room = draw(reservoirs(Role.ROOM, e2))
    if draw(st.booleans()):
        hot = _pinned(Statistics.FERMIONIC, 1.0 - 1e-15)
    else:
        hot = draw(reservoirs(Role.HOT, e3))
    return FridgeConfig(gaps=(e1, e2, e3), gammas=tuple(gammas),
                        reservoirs=(cold, room, hot), coupling=coupling)


def _sector_coordinates(rho):
    low, high = SECTOR_PAIR
    return np.concatenate([np.diagonal(rho).real,
                           [rho[low, high].real, rho[low, high].imag]])


@PROPERTY_SETTINGS
@given(machines())
def test_sector_generator_is_the_restricted_full_generator(config):
    # Apply the 64x64 generator to each sector basis state: the image must
    # stay in the sector (no leak) and equal the sector generator's column.
    full = build_liouvillian(config).matrix
    sector = sector_generator(config)
    low, high = SECTOR_PAIR
    scale = max(1.0, float(np.max(np.abs(full))))
    for column in range(SECTOR_DIM):
        rho = np.zeros((DIM, DIM), dtype=complex)
        if column < DIM:
            rho[column, column] = 1.0
        else:
            rho[low, high] = 1.0 if column == DIM else 1j
            rho[high, low] = np.conj(rho[low, high])
        image = (full @ rho.reshape(-1, order="F")).reshape(DIM, DIM, order="F")
        inside = np.zeros((DIM, DIM), dtype=bool)
        np.fill_diagonal(inside, True)
        inside[low, high] = inside[high, low] = True
        assert np.max(np.abs(image[~inside])) == 0.0
        assert abs(image[high, low] - np.conj(image[low, high])) <= 1e-15 * scale
        np.testing.assert_allclose(_sector_coordinates(image), sector[:, column],
                                   rtol=0, atol=1e-15 * scale)


@PROPERTY_SETTINGS
@given(machines())
def test_sector_generator_preserves_trace(config):
    sector = sector_generator(config)
    scale = max(1.0, float(np.max(np.abs(sector))))
    assert np.max(np.abs(sector[:DIM].sum(axis=0))) <= 1e-15 * scale


@PROPERTY_SETTINGS
@given(machines())
def test_chain_solution_is_stationary_under_the_sector_generator(config):
    # The chain's law with the closed-form coherence is a stationary state
    # of the 10x10 sector generator: eliminating the coherence is exact.
    solved = solve_sectors(config)
    if isinstance(solved.errors[0], MultiplicityError):
        return
    assert solved.errors == [None]
    sector = sector_generator(config)
    scale = max(1.0, float(np.max(np.abs(sector))))
    assert np.max(np.abs(sector @ solved.coordinates[0])) <= 1e-14 * scale


# Rates 282 decades apart: a 60-digit mpmath solve finds no pivot, so
# exact_qubit1_populations adds that span to its digits.
_FAR_APART_RATES = FridgeConfig(
    gaps=(1.0, 2.0, 1.0), gammas=(0.0, 1.0, 1.0), coupling=1.0,
    reservoirs=(ReservoirSpec(Statistics.BOSONIC, 1.0, Role.COLD),
                ReservoirSpec(Statistics.FERMIONIC, -0.003077, Role.ROOM),
                ReservoirSpec(Statistics.FERMIONIC, -0.001538, Role.HOT)))


@PROPERTY_SETTINGS
@given(machines())
@example(_FAR_APART_RATES)
def test_sector_solve_matches_full_solve(config):
    try:
        state, residual = sector_solution(config)
    except MultiplicityError:
        # an insulated qubit 1 next to a frozen bath can be degenerate to
        # working precision; then both paths must say so
        with pytest.raises(MultiplicityError):
            solve_direct(build_liouvillian(config))
        return
    try:
        full = solve_direct(build_liouvillian(config))
    except MultiplicityError:
        # A rate far below the others (a fermionic bath at |E/T| = 650 has
        # one of 5e-283) leaves the 64x64 system singular to working
        # precision, though the chain has one closed class: qubit 1 is
        # checked against an mpmath solve instead, whose digits span the
        # rates.
        readout = read_qubit(state, 1, config.gaps[0])
        exact = exact_qubit1_populations(config)
        assert (readout.p_ground, readout.p_excited) == pytest.approx(
            [float(p) for p in exact], rel=1e-9, abs=0.0)
        return
    assert np.max(np.abs(state.matrix - full.state.matrix)) <= 1e-12
    assert residual <= 1e-10
    if config.gammas[0] == 0.0:
        # Insulated qubit 1 relaxes through the interaction alone, and
        # neither path resolves T1 beyond ~1e-11 there (against a 60-digit
        # solve: sector <= 1.1e-12, 64x64 <= 9.3e-12 over 40 machines), so
        # only the state is compared.
        return
    t_sector = read_qubit(state, 1, config.gaps[0]).effective_temperature
    t_full = read_qubit(full.state, 1, config.gaps[0]).effective_temperature
    if isinstance(t_full, float) and isinstance(t_sector, float):
        assert t_sector == pytest.approx(t_full, rel=1e-12, abs=0.0)
    else:
        assert t_sector == t_full


@PROPERTY_SETTINGS
@given(st.data())
def test_both_paths_raise_multiplicity_for_a_free_qubit_1(data):
    # g = 0 and gamma_1 = 0: every population of qubit 1 is stationary.
    e1, e2, e3 = (data.draw(st.floats(0.5, 4.0)) for _ in range(3))
    config = FridgeConfig(
        gaps=(e1, e2, e3),
        gammas=(0.0, data.draw(st.floats(0.2, 2.0)), data.draw(st.floats(0.2, 2.0))),
        reservoirs=(data.draw(reservoirs(Role.COLD, e1)),
                    data.draw(reservoirs(Role.ROOM, e2)),
                    data.draw(reservoirs(Role.HOT, e3))),
        coupling=0.0)
    with pytest.raises(MultiplicityError):
        sector_solution(config)
    with pytest.raises(MultiplicityError):
        solve_direct(build_liouvillian(config))


@st.composite
def sector_rows(draw):
    """Sector coordinates of a solved machine's state, valid or NaN where the
    solve failed, or that state with one invariant broken well past its TOL
    bound: a negative population (trace kept), |c|^2 > p2 p5, the trace off
    by 1e-9, or a non-finite coordinate."""
    x = solve_sectors(draw(machines())).coordinates[0].copy()
    defect = draw(st.sampled_from((None, "negative", "coherence", "trace", "non-finite")))
    if defect == "negative":
        k, j = draw(st.permutations(range(DIM)))[:2]
        depth = draw(st.floats(1e-6, 0.5))
        x[j] += x[k] + depth
        x[k] = -depth
    elif defect == "coherence":
        # |c| such that the pair's smaller eigenvalue is -depth
        low, high = x[SECTOR_PAIR[0]], x[SECTOR_PAIR[1]]
        depth = draw(st.floats(1e-6, 0.5))
        magnitude = math.sqrt(low * high + (low + high) * depth + depth * depth)
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        x[DIM:] = magnitude * math.cos(phase), magnitude * math.sin(phase)
    elif defect == "trace":
        x[draw(st.integers(0, DIM - 1))] += draw(st.sampled_from((1e-9, -1e-9)))
    elif defect == "non-finite":
        x[draw(st.integers(0, SECTOR_DIM - 1))] = draw(
            st.sampled_from((math.nan, math.inf, -math.inf)))
    return x


def _invariant(error):
    """Which check an error reports: its type and its message without the number."""
    return None if error is None else (type(error), str(error).rsplit(" ", 1)[0])


@PROPERTY_SETTINGS
@given(st.lists(sector_rows(), min_size=1, max_size=5))
def test_closed_form_state_check_is_the_density_matrix_check(rows):
    # The sector's closed-form check accepts and rejects the same rows as
    # DensityMatrix's checks on the embedded 8x8 states, and names the same
    # first failing invariant.
    x = np.array(rows)
    with np.errstate(invalid="ignore"):    # a non-finite row, which fails
        closed = _sector_state_errors(x)
        full = density_matrix_errors(sector_states(x))
    assert [_invariant(closed.get(k)) for k in range(len(x))] == [
        _invariant(error) for error in full]


def test_deep_cooled_population_is_resolved():
    # An inverted hot bath at T_h = -0.1 holds qubit 1 near 0.02305, above
    # T_c = 0.02 and 0.01, so p_e1 sits 19 orders below the largest
    # populations. The tree sum makes no subtraction, so it resolves p_e1 to
    # full relative precision all the same.
    for tc, p_excited in ((0.02, 1.4311e-19), (0.01, 1.4300e-19)):
        config = default_config(tc=tc, th=-0.1, hot_statistics="fermionic")
        readout = read_qubit(sector_solution(config)[0], 1, config.gaps[0])
        assert readout.p_excited == pytest.approx(p_excited, rel=1e-4, abs=0.0)
        _, exact = exact_qubit1_populations(config)
        assert readout.p_excited == pytest.approx(float(exact), rel=1e-9, abs=0.0)
        assert math.isclose(readout.p_ground, 1.0)


def test_a_single_closed_class_leaves_the_other_states_at_zero():
    # gamma_1 = 0 and a hot bath pinned at n = 0: once the exchange has
    # excited qubit 1, nothing returns it (that needs qubit 3 excited), so
    # the states with qubit 1 excited and qubit 3 ground are the one closed
    # class. Every other state has probability exactly 0, and T1 is 0-.
    config = FridgeConfig(
        gaps=(1.0, 2.0, 1.0), gammas=(0.0, 1.0, 1.0),
        reservoirs=(ReservoirSpec(Statistics.BOSONIC, 1.0, Role.COLD),
                    ReservoirSpec(Statistics.BOSONIC, 1.0, Role.ROOM),
                    _pinned(Statistics.BOSONIC, 0.0)),
        coupling=1.0)
    solved = solve_sectors(config)
    assert solved.errors == [None]
    populations = solved.coordinates[0, :DIM]
    closed = [4, 6]     # |e g g>, |e e g>
    assert np.all(populations[[k for k in range(DIM) if k not in closed]] == 0.0)
    assert populations[closed].sum() == pytest.approx(1.0, rel=1e-15)
    _, readout = solve_for_readout(config)
    assert readout.p_ground == 0.0
    assert readout.effective_temperature is TemperatureSentinel.ZERO_FROM_BELOW


def _status(exc):
    return f"{type(exc).__name__}: {exc}"


def _parts(config, hots):
    """The sector_coefficients of config under each of the hot baths hots, in
    their order: the rows of their own configs, so that a pinned bath is
    stacked as a thermal one is."""
    return [sector_coefficients(config.with_hot_reservoir(hot)) for hot in hots]


def _stack(config, hots):
    """The coefficient rows and errors of _parts as one stack."""
    coefficients, errors = zip(*_parts(config, hots))
    return np.concatenate(coefficients), [error for row in errors for error in row]


def _stacked(config, hots):
    """The stack of _stack solved, and qubit 1's rows of the same parts as
    _solve_stack reads them."""
    return (solve_coefficients(*_stack(config, hots)),
            _solve_stack(_parts(config, hots), config.gaps[0]))


def _swept(config, temperatures):
    """Qubit 1's rows of config with its hot bath at each of temperatures,
    as a sweep solves them."""
    return _solve_stack([sector_coefficients(config, temperatures)], config.gaps[0])


@st.composite
def hot_stacks(draw):
    """A machine and the hot baths of one statistics to stack under it:
    thermal, inverted, near-cutoff and pinned baths. The machine's own hot
    bath is the first of them."""
    config = draw(machines())
    statistics = draw(st.sampled_from(list(Statistics)))
    hots = draw(st.lists(hot_baths(statistics, config.gaps[2]), min_size=1, max_size=6))
    return config.with_hot_reservoir(hots[0]), hots


@PROPERTY_SETTINGS
@given(hot_stacks())
def test_stacked_solve_matches_one_at_a_time(case):
    # A row of a stack is solved bit for bit as on its own: same T1, same
    # residual, same status. So is a row of the thermal baths' temperatures
    # stacked under config, the path of a sweep.
    config, hots = case
    solved, read = _stacked(config, hots)
    thermal = [hot for hot in hots if hot.occupation_override is None]
    swept = dict(zip(thermal, _swept(config, [hot.temperature for hot in thermal])))
    for hot, residual, error, outcome in zip(hots, solved.residuals.tolist(), solved.errors,
                                             read):
        try:
            single_residual, readout = solve_for_readout(config.with_hot_reservoir(hot))
        except (SteadyStateError, ValueError) as exc:
            assert error is not None and _status(error) == _status(exc)
            assert _status(outcome) == _status(exc)
            if hot in swept:
                assert _status(swept[hot]) == _status(exc)
            continue
        assert error is None
        assert residual <= TOL.steady_residual_direct
        assert residual == single_residual
        assert outcome[3] == readout.effective_temperature
        if hot in swept:
            assert swept[hot] == outcome


@PROPERTY_SETTINGS
@given(hot_stacks())
def test_one_row_stack_is_the_single_solve(case):
    # solve_for_readout is the one-row grid solve: its outcome is the row's
    # residual, and its readout, summed from the sector populations, is the
    # partial trace of the row's state.
    config, hots = case
    config = config.with_hot_reservoir(hots[0])
    solved = solve_sectors(config)
    outcome, = _stacked(config, hots[:1])[1]
    try:
        residual, readout = solve_for_readout(config)
    except (SteadyStateError, ValueError) as exc:
        assert _status(outcome) == _status(exc)
        if solved.errors[0] is not None:
            assert _status(solved.errors[0]) == _status(exc)
        return
    assert outcome == (residual, readout.p_ground, readout.p_excited,
                       readout.effective_temperature)
    assert solved.errors == [None]
    assert residual == float(solved.residuals[0])
    assert readout == read_qubit(DensityMatrix(sector_states(solved.coordinates)[0]), 1,
                                 config.gaps[0])


def test_an_empty_stack_solves_to_nothing(reference_config):
    assert _swept(reference_config, []) == []
    solved = solve_sectors(reference_config, [])
    assert solved.coordinates.shape == (0, SECTOR_DIM)
    assert solved.errors == []


def test_a_switched_off_bath_needs_no_occupation(reference_config):
    # gamma_1 = 0: the cold pair is (0, 0) and no error, though the cold
    # bath's occupation raises (E1/T = 5e-324 / 1e300 underflows).
    cold = ReservoirSpec(Statistics.BOSONIC, 1e300, Role.COLD)
    config = FridgeConfig(gaps=(5e-324, 1.0, 1.0), gammas=(0.0, 1.0, 1.0),
                          reservoirs=(cold, *reference_config.reservoirs[1:]), coupling=1.0)
    with pytest.raises(ReservoirError, match="underflows"):
        occupation(cold, 5e-324)
    coefficients, errors = sector_coefficients(config)
    assert errors == [None]
    assert coefficients[0, :2].tolist() == [0.0, 0.0]
    assert solve_sectors(config).errors == [None]


def test_a_temperature_no_hot_bath_can_have_fails_its_row_at_gamma3_zero():
    # gamma_3 = 0 switches the hot bath off, but a T_h it cannot have is
    # still that row's error, and the row is NaN.
    config = default_config(gammas=(1.0, 1.0, 0.0))
    temperatures = [2.0, -1.0, 0.0, math.inf]
    coefficients, errors = sector_coefficients(config, temperatures)
    assert errors[0] is None and coefficients[0, 4:6].tolist() == [0.0, 0.0]
    assert all(isinstance(error, ReservoirError) for error in errors[1:])
    assert np.isnan(coefficients[1:]).all()
    solved = solve_sectors(config, temperatures)
    assert [_status(e) for e in solved.errors[1:]] == [_status(e) for e in errors[1:]]
    assert solved.errors[0] is None


def test_a_rows_own_hot_bath_error_comes_before_the_shared_one():
    # The cold rates raise for every row (E1/T = 1e-20 / 1e308 underflows).
    # A row whose hot rates raise too (E3/T_h = 1e-30 / 1e308), or whose
    # T_h no bosonic bath can have, carries its own error instead.
    config = FridgeConfig(
        gaps=(1e-20, 1.0, 1e-30), gammas=(1.0, 1.0, 1.0),
        reservoirs=(ReservoirSpec(Statistics.BOSONIC, 1e308, Role.COLD),
                    ReservoirSpec(Statistics.BOSONIC, 2.0, Role.ROOM),
                    ReservoirSpec(Statistics.BOSONIC, 10.0, Role.HOT)),
        coupling=1.0)
    temperatures = [2.0, 1e308, -1.0]
    coefficients, errors = sector_coefficients(config, temperatures)
    assert np.isnan(coefficients).all()
    messages = [str(error) for error in errors]
    assert "E/T = 1e-20/1e+308 underflows" in messages[0]
    assert "E/T = 1e-30/1e+308 underflows" in messages[1]
    assert "cannot be population inverted" in messages[2]
    assert [str(error) for error in solve_sectors(config, temperatures).errors] == messages


def test_an_overflowing_exchange_rate_keeps_a_finite_residual():
    # At g = 1e160, kappa = Gamma (g/h)^2 overflows the float chain, whose
    # balance defect is then NaN: the defect is read on the wide chain
    # scaled by 2^-top. The law is that of g = 1e150, where kappa is a
    # float.
    solved = solve_sectors(default_config(coupling=1e160))
    assert solved.errors == [None]
    assert 0.0 <= solved.residuals[0] <= TOL.steady_residual_direct
    np.testing.assert_allclose(solved.coordinates[0, :DIM],
                               solve_sectors(default_config(coupling=1e150)).coordinates[0, :DIM],
                               rtol=1e-14, atol=0.0)


def test_rates_whose_sum_overflows_solve():
    # Three down-rates of 1e308 and no up-rate: Gamma overflows, Gamma/2
    # does not, and the law is all on |g g g>.
    solved = solve_sectors(default_config(gammas=(1e308,) * 3, tc=1e-3, tr=1e-3, th=1e-3))
    assert solved.errors == [None]
    assert solved.residuals.tolist() == [0.0]
    assert solved.coordinates[0].tolist() == [1.0] + [0.0] * (SECTOR_DIM - 1)


def test_rates_whose_halves_sum_past_the_largest_float_solve():
    # Each rate is finite, 1.4e308 down and 4.0e307 up on every qubit, but
    # their halves sum to Gamma/2 = 2.7e308, which overflows, and with it h,
    # g/h, (Gamma/2)/h and the main path's kappa. The wide solve sums Gamma/2
    # and h from the split rates: the row solves to its exact law, and at
    # delta = 0 its coherence Im c = g (p2 - p5) / (Gamma/2) is a subnormal
    # 3.5e-310. No warning is raised.
    config = default_config(gammas=(1e308,) * 3, tc=0.8, tr=4.0, th=3.2)
    row = sector_coefficients(config)[0][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = solve_sectors(config)
    assert solved.errors == [None]
    assert solved.residuals[0] <= TOL.steady_residual_direct
    exact = _exact_weights(_exact_chain(row))
    law = solved.coordinates[0, :DIM]
    np.testing.assert_allclose(law, [float(w / sum(exact)) for w in exact], rtol=1e-13, atol=0.0)
    low, high = (Fraction(law[state]) for state in SECTOR_PAIR)
    coherence = float((low - high) / (sum(Fraction(rate) for rate in row[:6]) / 2))
    assert solved.coordinates[0, DIM] == 0.0
    assert solved.coordinates[0, DIM + 1] == pytest.approx(coherence, rel=1e-12, abs=0.0)


def test_the_state_check_alone_fails_rows_without_warnings():
    # _sector_state_errors outside a solve: a NaN row is not finite, a
    # negative population (trace kept) fails positivity, and an infinite
    # pair population, whose pair eigenvalue is inf - inf, is not finite.
    # With numpy's invalid values ignored, as a solve ignores them, none of
    # them raises a RuntimeWarning.
    x = np.repeat(solve_sectors(default_config()).coordinates, 4, axis=0)
    x[1] = np.nan
    x[2, 1] += x[2, 0] + 0.25
    x[2, 0] = -0.25
    x[3, SECTOR_PAIR[0]] = np.inf
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        errors = _sector_state_errors(x)
    assert sorted(errors) == [1, 2, 3]
    assert type(errors[1]) is LinalgError and type(errors[3]) is LinalgError
    assert type(errors[2]) is DensityMatrixError
    assert str(errors[2]).startswith("state is not positive semidefinite")


def test_a_residual_that_is_not_finite_fails_its_row(monkeypatch):
    # Only a defect <= TOL.steady_residual_direct passes: a NaN fails.
    monkeypatch.setattr(steady_state, "_residuals",
                        lambda law, generators, unit: np.full(len(law), np.nan))
    solved = solve_sectors(default_config(), [2.0, 5.0])
    assert [_status(error) for error in solved.errors] == [
        "SteadyStateError: steady-state residual nan exceeds 1e-10 for solver direct"] * 2


@PROPERTY_SETTINGS
@given(st.data())
def test_multiplicity_rows_leave_their_neighbours_solved(data):
    # Rows of different machines in one stack: the free-qubit-1 machines
    # (g = 0, gamma_1 = 0) fail alone, the others solve as on their own, bit
    # for bit.
    configs = data.draw(st.lists(machines(), min_size=1, max_size=4))
    free = [k for k in range(len(configs)) if data.draw(st.booleans())] or [0]
    for k in free:
        gammas = (0.0,) + configs[k].gammas[1:]
        configs[k] = FridgeConfig(gaps=configs[k].gaps, gammas=gammas,
                                  reservoirs=configs[k].reservoirs, coupling=0.0)
    coefficients = np.concatenate([sector_coefficients(c)[0] for c in configs])
    solved = solve_coefficients(coefficients)
    x, errors = solved.coordinates, solved.errors
    for k, config in enumerate(configs):
        if k in free:
            assert isinstance(errors[k], MultiplicityError)
            assert np.all(np.isnan(x[k]))
            continue
        try:
            state, _ = sector_solution(config)
        except MultiplicityError as exc:
            assert _status(errors[k]) == _status(exc)
            continue
        assert errors[k] is None
        assert np.array_equal(x[k, :DIM], np.diagonal(state.matrix).real)


def test_sweep_row_failure_keeps_the_one_at_a_time_status(reference_config):
    # T_h = 1e308 drives the hot rates to ~2.5e307, and that row still
    # solves to the exact value (400 digits span those rates and the unit
    # trace).
    grid = [2.0, 1e308, 5.0]
    records = sweep_hot_temperature(reference_config, grid)
    assert [record.status for record in records] == ["ok"] * 3
    p_ground, p_excited = exact_qubit1_populations(
        reference_config.with_hot_temperature(1e308), dps=400)
    exact = reference_config.gaps[0] / math.log(float(p_ground / p_excited))
    assert records[1].t1 == pytest.approx(exact, rel=1e-9, abs=0.0)
    # With E3 = 1e-20, E3 / T_h underflows to 0 at T_h = 1e308 and that row's
    # rates raise, while its neighbours solve.
    config = default_config(gaps=(1.0, 1.0 + 1e-20, 1e-20))
    records = sweep_hot_temperature(config, grid)
    with pytest.raises(ReservoirError) as excinfo:
        solve_for_readout(config.with_hot_temperature(1e308))
    assert records[1].status == _status(excinfo.value)
    assert math.isnan(records[1].t1) and math.isnan(records[1].residual)
    for record, th in zip(records[::2], grid[::2]):
        _, readout = solve_for_readout(config.with_hot_temperature(th))
        assert record.status == "ok"
        assert record.t1 == pytest.approx(readout.effective_temperature, rel=1e-12, abs=0.0)


def hot_baths(statistics, gap):
    """Hot baths of the given statistics: thermal (of either sign when
    fermionic), with |E/T| near 700, or with the occupation
    pinned at or next to its limits (the saturated overrides)."""
    if statistics is Statistics.FERMIONIC:
        return fermionic_baths(Role.HOT, gap)
    return st.one_of(
        st.builds(lambda t: ReservoirSpec(Statistics.BOSONIC, t, Role.HOT), temperatures),
        st.builds(lambda x: ReservoirSpec(Statistics.BOSONIC, gap / x, Role.HOT),
                  st.floats(650.0, 750.0)),
        st.just(_pinned(Statistics.BOSONIC, 0.0)))


@PROPERTY_SETTINGS
@given(st.data())
def test_decoupled_rows_are_the_thermal_product(data):
    # g = 0 with every bath attached: each qubit relaxes to its own bath, so
    # each row of a stack is the product of the three thermal states and
    # qubit 1 reads the cold bath's temperature.
    drawn = data.draw(machines())
    config = FridgeConfig(gaps=drawn.gaps, gammas=tuple(g or 1.0 for g in drawn.gammas),
                          reservoirs=drawn.reservoirs, coupling=0.0)
    statistics = data.draw(st.sampled_from(list(Statistics)))
    hots = data.draw(st.lists(hot_baths(statistics, config.gaps[2]), min_size=1, max_size=6))
    config = config.with_hot_reservoir(hots[0])
    solved, read = _stacked(config, hots)
    assert solved.errors == [None] * len(hots)
    states = sector_states(solved.coordinates)
    for hot, state in zip(hots, states):
        expected = thermal_product(config.with_hot_reservoir(hot)).matrix
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-14)
    for *_, t1 in read:
        assert t1 == pytest.approx(config.cold_temperature, rel=1e-9, abs=0.0)


def fermionic_baths(role, gap, extreme=True):
    """Fermionic baths of either sign, with |E/T| near 700 or pinned too
    when extreme."""
    thermal = st.builds(lambda sign, t: ReservoirSpec(Statistics.FERMIONIC, sign * t, role),
                        st.sampled_from((1.0, -1.0)), temperatures)
    if not extreme:
        return thermal
    near_cutoff = st.builds(
        lambda sign, x: ReservoirSpec(Statistics.FERMIONIC, sign * gap / x, role),
        st.sampled_from((1.0, -1.0)), st.floats(650.0, 750.0))
    pinned = st.sampled_from([_pinned(Statistics.FERMIONIC, n, role)
                              for n in (0.0, 1e-15, 1.0 - 1e-15, 1.0)])
    return st.one_of(thermal, near_cutoff, pinned)


def _mirrored(spec):
    """The bath with n -> 1 - n: T -> -T, or the complementary pinned n."""
    if spec.occupation_override is not None:
        return _pinned(spec.statistics, 1.0 - spec.occupation_override, spec.role)
    return ReservoirSpec(spec.statistics, -spec.temperature, spec.role)


def _closed_classes(coefficients):
    """The closed classes of the rate chain of one sector_coefficients row,
    by search over its nonzero rates: each qubit flips down or up at its
    rate, and the pair |g e g>, |e g e> exchanges when g > 0 and its summed
    out-rate (the six rates) is > 0."""
    rates, coupling = coefficients[:6], coefficients[6]
    edges = {state: set() for state in range(DIM)}
    for k in range(3):
        bit = 4 >> k
        for state in range(DIM):
            if rates[2 * k if state & bit else 2 * k + 1] > 0.0:
                edges[state].add(state ^ bit)
    if coupling > 0.0 and rates.sum() > 0.0:
        edges[2].add(5)
        edges[5].add(2)
    reachable = {}
    for state in range(DIM):
        seen, todo = {state}, [state]
        while todo:
            for other in edges[todo.pop()] - seen:
                seen.add(other)
                todo.append(other)
        reachable[state] = frozenset(seen)
    return {reachable[state] for state in range(DIM)
            if all(state in reachable[other] for other in reachable[state])}


@PROPERTY_SETTINGS
@given(st.data())
def test_fermionic_mirror_symmetry(data):
    # With every bath fermionic, n -> 1 - n swaps each qubit's up and down
    # rates. Flipping all three qubits maps H0 to -H0, complex conjugation
    # and a sign gauge on qubit 1 undo that and H_int's sign, so the
    # mirrored machine's steady state has p_i -> p_{7-i}: qubit 1's
    # temperature changes sign, row by row of the stack. A thermal bath's
    # rates depend on |E/T| and its sign alone, so T -> -T swaps them
    # exactly, and so does n -> 1 - n at n = 0 or 1; such rows must fail or
    # solve alike, and 1/T1 is compared on every solved row whose smaller
    # population is >= 1e-295, down to which the solve keeps its relative
    # precision (below it a subnormal rate or check can move T1 by 1e-9). A
    # pinned n whose complement 1 - n rounds has no exact mirror: each side
    # must have its own chain's outcome, not unique with two or more closed
    # classes, solved with one, and 1/T1 is compared where the smaller
    # population is >= 1e-6, as the two sides' rates differ in their last
    # digits.
    drawn = data.draw(machines())
    e1, e2, e3 = drawn.gaps
    hots = data.draw(st.lists(fermionic_baths(Role.HOT, e3), min_size=1, max_size=6))
    baths = (data.draw(fermionic_baths(Role.COLD, e1, extreme=False)),
             data.draw(fermionic_baths(Role.ROOM, e2)),
             hots[0])
    config = FridgeConfig(gaps=drawn.gaps, gammas=drawn.gammas, reservoirs=baths,
                          coupling=drawn.coupling)
    mirror = FridgeConfig(gaps=drawn.gaps, gammas=drawn.gammas,
                          reservoirs=tuple(_mirrored(b) for b in baths),
                          coupling=drawn.coupling)
    mirrored_hots = [_mirrored(h) for h in hots]
    solved, read = _stacked(config, hots)
    mirrored, mirrored_read = _stacked(mirror, mirrored_hots)
    rates = _stack(config, hots)[0]
    mirrored_rates = _stack(mirror, mirrored_hots)[0]
    for k, (error, mirrored_error) in enumerate(zip(solved.errors, mirrored.errors)):
        exact = np.array_equal(mirrored_rates[k, [1, 0, 3, 2, 5, 4]], rates[k, :6])
        if exact:
            assert type(error) is type(mirrored_error)
        else:
            assert any(bath.occupation_override not in (None, 0.0, 1.0)
                       for bath in (baths[1], hots[k]))
            for row, outcome in ((rates[k], error), (mirrored_rates[k], mirrored_error)):
                if len(_closed_classes(row)) > 1:
                    assert isinstance(outcome, MultiplicityError)
                else:
                    assert outcome is None
        if error is not None or mirrored_error is not None:
            continue
        populations = solved.coordinates[k, :DIM]
        mirrored_populations = mirrored.coordinates[k, :DIM]
        np.testing.assert_allclose(mirrored_populations, populations[::-1],
                                   rtol=0, atol=1e-13)
        _, p_ground, p_excited, _ = read[k]
        if min(p_ground, p_excited) < (1e-295 if exact else 1e-6):
            continue
        # E1 / T1 = ln(p_ground / p_excited) is compared: to rel 1e-9 that
        # is the T1 comparison, and its absolute floor holds near T1 = inf,
        # where T1 itself is ill-conditioned
        _, mirrored_ground, mirrored_excited, _ = mirrored_read[k]
        assert math.log(mirrored_ground / mirrored_excited) == pytest.approx(
            -math.log(p_ground / p_excited), rel=1e-9, abs=1e-12)


def test_a_mirrored_thermal_machine_solves_to_the_mirrored_law():
    # gamma_1 = 0 and fermionic baths at T = (1, 0.5, 0.375) against
    # (-1, -0.5, -0.375): the rates swap exactly, so the two laws mirror to
    # rounding. A down-rate formed as gamma (1 - n) once put them 1.08e-12
    # apart.
    def machine(sign):
        return FridgeConfig(gaps=(1.0, 5.0, 4.0), gammas=(0.0, 1.0, 1.0), coupling=1.0,
                            reservoirs=tuple(ReservoirSpec(Statistics.FERMIONIC, sign * t, role)
                                             for t, role in ((1.0, Role.COLD), (0.5, Role.ROOM),
                                                             (0.375, Role.HOT))))
    law = solve_sectors(machine(1.0)).coordinates[0, :DIM]
    mirrored = solve_sectors(machine(-1.0)).coordinates[0, :DIM]
    np.testing.assert_allclose(mirrored, law[::-1], rtol=1e-15, atol=0.0)


@PROPERTY_SETTINGS
@given(st.data())
def test_a_free_qubit_fails_every_row_alone(data):
    # g = 0 with gamma_k = 0 leaves qubit k free whatever the hot bath: every
    # row of the stack fails, each with the status of its one-row solve.
    drawn = data.draw(machines())
    off = data.draw(st.sampled_from((0, 1, 2)))
    gammas = tuple(0.0 if k == off else (g or 1.0) for k, g in enumerate(drawn.gammas))
    config = FridgeConfig(gaps=drawn.gaps, gammas=gammas, reservoirs=drawn.reservoirs,
                          coupling=0.0)
    statistics = data.draw(st.sampled_from(list(Statistics)))
    hots = data.draw(st.lists(hot_baths(statistics, config.gaps[2]), min_size=1, max_size=6))
    config = config.with_hot_reservoir(hots[0])
    for hot, outcome in zip(hots, _stacked(config, hots)[1]):
        assert isinstance(outcome, MultiplicityError)
        with pytest.raises(MultiplicityError) as excinfo:
            solve_for_readout(config.with_hot_reservoir(hot))
        assert _status(outcome) == _status(excinfo.value)


def _insulated_inverted(gaps):
    """gamma_1 = 0, qubit 1 driven into inversion: p_ground ~ 5e-305."""
    return FridgeConfig(
        gaps=gaps, gammas=(0.0, 1.0, 1.0),
        reservoirs=(ReservoirSpec(Statistics.BOSONIC, 1.0, Role.COLD),
                    ReservoirSpec(Statistics.FERMIONIC, -2.625, Role.ROOM),
                    _pinned(Statistics.FERMIONIC, 1.0 - 1e-15)),
        coupling=0.5)


@PROPERTY_SETTINGS
@given(machines(), st.sampled_from(list(Statistics)), st.sampled_from((1.0, -1.0)))
@example(_insulated_inverted((1.0, 2.0, 1.0)), Statistics.BOSONIC, 1.0)
@example(_insulated_inverted((1.0, 1.5, 0.5)), Statistics.BOSONIC, 1.0)
@example(FridgeConfig(gaps=(1.0, 2.0, 1.0), gammas=(0.0, 1.0, 1.0),
                      reservoirs=(ReservoirSpec(Statistics.BOSONIC, 1.0, Role.COLD),
                                  ReservoirSpec(Statistics.BOSONIC, 2.0 / 699.0, Role.ROOM),
                                  ReservoirSpec(Statistics.BOSONIC, 1.0, Role.HOT)),
                      coupling=1.0), Statistics.BOSONIC, 1.0)
def test_rows_straddling_the_exp_cutoff_agree(config, statistics, sign):
    # |E3/T_h| just below and just above 700, where the bosonic occupation
    # once switched from its closed form to its limit: one formula now
    # serves both, and the two rows read the same T1. In
    # the first two examples p_ground ~ 5e-305 (4.6022651305e-305 in the
    # first, as a 400-digit solve gives). In the third, qubit 1 has no bath
    # and T1 tracks n3 ~ 1e-304 one to one, so the rows lie only 1e-14
    # relative from 700 on either side: their n3, and with it their exact
    # T1, differ by 1.4e-11 relative (1.4e-9 at 1e-12).
    if statistics is Statistics.BOSONIC:
        sign = 1.0
    e3 = config.gaps[2]
    temperatures = [sign * e3 / x for x in (700.0 * (1.0 - 1e-14), 700.0 * (1.0 + 1e-14))]
    config = config.with_hot_reservoir(ReservoirSpec(statistics, temperatures[0], Role.HOT))
    below, above = _swept(config, temperatures)
    if isinstance(below, Exception):
        assert _status(above) == _status(below)
        return
    t_below, t_above = below[3], above[3]
    if isinstance(t_below, float) and isinstance(t_above, float):
        assert t_above == pytest.approx(t_below, rel=1e-9, abs=0.0)
    else:
        assert t_above == t_below


def _determinant(matrix):
    """Determinant of a square matrix of Fractions, by exact elimination."""
    rows = [list(row) for row in matrix]
    determinant = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            determinant = -determinant
        determinant *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return determinant


def _exact_weights(chain):
    """Stationary weights of an n-state chain (n, n), rates off the diagonal
    as floats or Fractions, in exact rational arithmetic: state r weighs the
    determinant of the chain's Laplacian (out-rates on the diagonal, minus
    the rates off it) without row and column r, by the matrix-tree theorem.
    All are 0 when the chain has two or more closed classes."""
    n = len(chain)
    rates = [[Fraction(0) if i == j else Fraction(chain[i][j]) for j in range(n)]
             for i in range(n)]
    laplacian = [[sum(rates[i]) if i == j else -rates[i][j] for j in range(n)]
                 for i in range(n)]
    return [_determinant([[laplacian[i][j] for j in range(n) if j != root]
                          for i in range(n) if i != root])
            for root in range(n)]


@st.composite
def four_state_chains(draw):
    """Rate matrices (4, 4) whose off-diagonal rates are log-uniform within
    1e-30 and 1e30, or within 1e-300 and 1e300, about one in eight exactly 0.
    The diagonal is NaN: no solve reads it."""
    span = draw(st.sampled_from((30.0, 300.0)))
    chain = np.full((4, 4), np.nan)
    for i, j in itertools.permutations(range(4), 2):
        zero = draw(st.integers(0, 7)) == 0
        chain[i, j] = 0.0 if zero else 10.0 ** draw(st.floats(-span, span))
    return chain


def _chain(rates):
    """The 4-state chain with the given off-diagonal rates, row by row."""
    chain = np.full((4, 4), np.nan)
    chain[~np.eye(4, dtype=bool)] = rates
    return chain


# Chains whose tree products leave the floats: the first underflows, the
# second under- and overflows.
_EXTREME_CHAINS = [_chain([1e-200, 1e-200, 1e-200, 1.0, 1e-200, 1e-200,
                           1e-200, 1e-200, 1e-200, 1e-200, 1e-200, 1.0]),
                   _chain([1e-300, 5e108, 4e16, 0.0, 7e286, 5e-99,
                           0.0, 0.0, 4e222, 0.0, 1e-101, 8e-74])]


@PROPERTY_SETTINGS
@given(four_state_chains())
@example(_chain([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
@example(_chain([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 0.0, 0.0, 0.0]))
@example(_EXTREME_CHAINS[0])
@example(_EXTREME_CHAINS[1])
def test_tree_weights_are_the_stationary_law(chain):
    # The tree sum against the exact law, from determinants in rational
    # arithmetic: 1e-13 relative wherever the law is a normal float, exactly
    # 0 wherever the chain's structure makes it 0, wherever numpy logs no
    # under- or overflow. Where it logs one, solve_coefficients solves the
    # stack by _wide_law instead. A chain with two or more closed classes
    # weighs 0 everywhere.
    events = io.StringIO()
    with np.errstate(all="log", call=events):
        weights = _tree_weights(chain[None])[0]
    if any(np.array_equal(chain, extreme, equal_nan=True) for extreme in _EXTREME_CHAINS):
        assert events.tell()
    if events.tell():
        return
    exact = _exact_weights(chain)
    total = sum(exact)
    if total == 0:
        assert np.all(weights == 0.0)
        return
    law = weights / weights.sum()
    np.testing.assert_allclose(law, [float(w / total) for w in exact],
                               rtol=1e-13, atol=np.finfo(float).tiny)
    assert all(p == 0.0 for p, w in zip(law, exact) if w == 0)


def _exact_chain(row):
    """The rate chain (8, 8) of one sector_coefficients row in Fractions,
    states in basis order, with the exchange rate kappa = Gamma g^2 / h^2
    exact; None where g > 0 and Gamma = delta = 0, as kappa has no value."""
    rates = [Fraction(rate) for rate in row[:6]]
    coupling, detuning = Fraction(row[6]), Fraction(row[7])
    chain = [[Fraction(0)] * DIM for _ in range(DIM)]
    for k, bit in enumerate((4, 2, 1)):
        for state in range(DIM):
            chain[state][state ^ bit] = rates[2 * k if state & bit else 2 * k + 1]
    square = sum(rates) ** 2 / 4 + detuning ** 2
    if coupling > 0 and square == 0:
        return None
    low, high = SECTOR_PAIR
    chain[low][high] = chain[high][low] = sum(rates) * coupling ** 2 / square if coupling else 0
    return chain


@st.composite
def coefficient_rows(draw):
    """sector_coefficients rows as no bath makes them: the six rates
    log-uniform within 1e-300 and 1e300, about three in ten exactly 0, and
    g and |detuning| in the same range, each 0 about one in four."""
    def drawn(zero_odds):
        if draw(st.floats(0.0, 1.0)) < zero_odds:
            return 0.0
        return 10.0 ** draw(st.floats(-300.0, 300.0))
    rates = [drawn(0.3) for _ in range(6)]
    return [*rates, drawn(0.25), draw(st.sampled_from((1.0, -1.0))) * drawn(0.25)]


@PROPERTY_SETTINGS
@given(coefficient_rows())
@example([0.0, 9.657171966891714e+33, 1.0987342805635986e-42, 0.0, 1.7133449736250057e+298,
          2.3511636050655244e-110, 0.0010131150463451191, 0.0])
@example([7.739929279306277e+274, 2.6750389200018263e-190, 3.5339770770079556e-239,
          6.947619889817935e-207, 2.552906431075961e+267, 3.426503666563138e-111,
          0.0, 7.434071134944375e-49])
@example([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1e160, 1e10])
@example([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1e160, 0.0])
@example([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1e-162, 0.0])
@example([0.0, 3.483163008164078e+185, 4.142895133382766e+27, 1.834015092615934e-253, 0.0,
          4.3649303050936745e-186, 1.0886419642837694e-125, 0.0])
@example([2.8380898470074557e-31, 1.7398459041706714e-169, 0.0, 4.958852809978572e-120,
          3.353069834464445e-46, 3.4027352249906346e-245, 3.555095821793097e+276,
          -2.5649698877662004e+290])
@example([0.0, 0.0, 0.0, 1.3141326380236135e-240, 6.493540290270078e-299, 0.0,
          8.869386122359343e+236, 4.83459155323805e+223])
@example([0.0, 0.0, 5.73222602962064e-167, 1.7437470899511875e-153, 0.0033349628945444185,
          6.042775939978553e+47, 1.0248586741850907e+129, 0.0])
@example([1e308, 0.0, 1e308, 0.0, 1e308, 0.0, 1.0, 0.0])
@example([0.0, 7e301, 1e306, 8e300, 7e307, 4e301, 5e307, 0.0])
def test_coefficient_rows_solve_to_the_exact_law(row):
    # Any row against the exact law of its chain: 1e-13 relative wherever
    # the law is a normal float and exactly 0 wherever the chain makes it 0,
    # or MultiplicityError when the chain has two or more closed classes,
    # also where the exact exchange rate kappa lies outside the normal
    # floats. Each example failed before _wide_law and its kappa:
    # - all mass on the odd state |e g g>, whose only exit has rate 2.4e-110:
    #   its inflow overflows. GTH elimination of the chain gave NaN;
    # - the law is all on |g e g>, but the weight of the even state that
    #   feeds it, 1e-378 of the others, underflowed: the main path put all
    #   the mass on |g g g>;
    # - kappa is 3e300, but 2 g^2 / h overflows (LinalgError);
    # - kappa is 1.3e320, beyond the floats (LinalgError);
    # - kappa is 2e-324 and rounds to 0, which leaves qubit 1 free
    #   (MultiplicityError);
    # - kappa is 1.4e-435 and rounds to 0: |e g g>, 3.1e-250 of the law,
    #   came out 0;
    # - (Gamma/2) / h is subnormal (2.0e-4 off), then 0 (MultiplicityError);
    # - g/h is 3e81 and p2 - p5 cancels, so that the coherence made the
    #   state fail its eigenvalue check;
    # - Gamma, the sum of three rates of 1e308, overflows (LinalgError);
    # - the float law holds, but the float chain's balance defect overflows:
    #   without the wide chain's defect the row fails its residual check.
    solved = solve_coefficients(np.array([row]))
    chain = _exact_chain(row)
    exact = [0] * DIM if chain is None else _exact_weights(chain)
    total = sum(exact)
    if total == 0:
        assert isinstance(solved.errors[0], MultiplicityError)
        return
    assert solved.errors == [None]
    law = solved.coordinates[0, :DIM]
    np.testing.assert_allclose(law, [float(w / total) for w in exact],
                               rtol=1e-13, atol=np.finfo(float).tiny)
    assert all(p == 0.0 for p, w in zip(law, exact) if w == 0)


def _insulated_inverted_row():
    """README's insulated, inverted qubit 1: p_ground = 4.6023e-305."""
    return _insulated_inverted((1.0, 2.0, 1.0)).with_hot_reservoir(
        ReservoirSpec(Statistics.BOSONIC, 1.0 / (700.0 * (1.0 - 1e-14)), Role.HOT))


def _main_path_laws(monkeypatch):
    """The list of the laws (N, 8) of solve_coefficients' main path,
    _censored_law, one stack per call, in chain order."""
    laws = []
    censored_law = steady_state._censored_law

    def recorded(to_other, to_root):
        laws.append(censored_law(to_other, to_root))
        return laws[-1].copy()

    monkeypatch.setattr(steady_state, "_censored_law", recorded)
    return laws


@pytest.mark.parametrize("row, population, expected", [
    (lambda: default_config(tc=0.01, th=-0.1, hot_statistics="fermionic"),
     "p_excited", 1.4300e-19),
    (_insulated_inverted_row, "p_ground", 4.6023e-305),
], ids=["p_e1-1e-19", "p_ground-5e-305"])
def test_readme_extreme_rows_are_solved_on_the_main_path(monkeypatch, row, population,
                                                         expected):
    # README's tiny-population rows are irreducible chains whose tree
    # products stay within the floats, so each keeps the law of the main
    # path bit for bit. In the last, the weight of an even state is
    # subnormal; _wide_law agrees with both to 2^-44.
    laws = _main_path_laws(monkeypatch)
    solved = solve_sectors(row())
    assert solved.errors == [None]
    assert solved.coordinates[0, _ORDER].tobytes() == laws[0][0].tobytes()
    _, readout = solve_for_readout(row())
    assert getattr(readout, population) == pytest.approx(expected, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("row", [
    lambda: default_config(th=1e308),
    lambda: default_config(gammas=(1e-150,) * 3, coupling=1e-150),
], ids=["hot-1e308", "rates-1e-150"])
def test_readme_huge_and_tiny_rate_rows_are_solved_wide(monkeypatch, row):
    # README's huge-rate and tiny-rate rows: tree products of both underflow
    # (1e-150 cubed leaves the floats). The event sends the row to one
    # _wide_law call, whose law is the row's exact law.
    calls = []
    wide_law = steady_state._wide_law

    def counted(*args):
        calls.append(len(args[0]))
        return wide_law(*args)

    monkeypatch.setattr(steady_state, "_wide_law", counted)
    coefficients, errors = sector_coefficients(row())
    solved = solve_coefficients(coefficients, errors)
    assert calls == [1]
    assert solved.errors == [None]
    exact = _exact_weights(_exact_chain(coefficients[0]))
    np.testing.assert_allclose(solved.coordinates[0, :DIM],
                               [float(w / sum(exact)) for w in exact],
                               rtol=1e-13, atol=np.finfo(float).tiny)


def _one_exit_odd_state_machine(room_temperature=2.0 / 720.0):
    """Every bath fermionic, gamma_1 = 0 and the hot bath pinned at n3 = 1,
    so that qubit 3 never decays: qubit 2's up-rate (2e-313 at the room
    bath's T = 2/720, 0 at T = 2/800) is the only way out of |g g e>."""
    return FridgeConfig(
        gaps=(1.0, 2.0, 1.0), gammas=(0.0, 1.0, 1.0),
        reservoirs=(ReservoirSpec(Statistics.FERMIONIC, -1.0, Role.COLD),
                    ReservoirSpec(Statistics.FERMIONIC, room_temperature, Role.ROOM),
                    _pinned(Statistics.FERMIONIC, 1.0)),
        coupling=1.0)


def test_an_overflowing_odd_step_is_solved_exactly(monkeypatch):
    # The odd step's inflow over |g g e>'s one out-rate overflows. The row
    # then falls to _wide_law, whose law is exact: qubit 1's populations
    # are those of a 400-digit solve from the same rates. No RuntimeWarning
    # is raised. test_fermionic_mirror_symmetry met this machine with the
    # room bath at T = 2/710, which overflowed GTH's normalized even law but
    # not the tree weights.
    config = _one_exit_odd_state_machine()
    laws = _main_path_laws(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, readout = solve_for_readout(config)
    assert not np.isfinite(laws[0]).all()
    p_ground, p_excited = exact_qubit1_populations(config, dps=400)
    assert (readout.p_ground, readout.p_excited) == (float(p_ground), float(p_excited))


def test_a_row_solves_bit_for_bit_whatever_the_stack_size(rng, monkeypatch):
    # A stack's reductions run over axes whose order does not depend on its
    # size, so every row of stacks of 1, 2, 9, 64 and 1000 rows has the
    # coordinates, residual and error type of its one-row solve, bit for
    # bit. The rows are README's extreme rows, one row of each kind the
    # wide-range solve takes (h overflows, kappa overflows the float chain,
    # MultiplicityError, an odd step's inflow overflows, an odd state is
    # absorbing) and random machines. So is every row of the mixed stack
    # that analysis._solve_stack makes of the searches' parts: the hot grids
    # of two machines (one with a T_h no bosonic bath can have), the pinned
    # saturated negative row and gamma_1 rows, a free qubit 1 among them.
    extreme = [default_config(th=1e308),
               default_config(gammas=(1e-150,) * 3, coupling=1e-150),
               default_config(tc=0.01, th=-0.1, hot_statistics="fermionic"),
               _insulated_inverted_row(),
               default_config(gammas=(1e308,) * 3, tc=0.8, tr=4.0, th=3.2),
               default_config(coupling=1e160),
               default_config(gammas=(0.0,) * 3),
               _one_exit_odd_state_machine(),
               _one_exit_odd_state_machine(2.0 / 800.0)]
    configs = extreme + [random_valid_config(rng) for _ in range(1000 - len(extreme))]
    rows = np.concatenate([sector_coefficients(config)[0] for config in configs])
    alone = [solve_coefficients(rows[i:i + 1]) for i in range(len(rows))]
    for size in (1, 2, 9, 64, 1000):
        solved = solve_coefficients(rows[:size])
        for i in range(size):
            assert solved.coordinates[i].tobytes() == alone[i].coordinates[0].tobytes()
            assert solved.residuals[i].tobytes() == alone[i].residuals[0].tobytes()
            assert type(solved.errors[i]) is type(alone[i].errors[0])
    reference = default_config()
    deep = default_config(tc=0.005, gaps=(1.0, 1.5, 0.5), hot_statistics="fermionic")
    parts = [sector_coefficients(reference, [1.0, 10.0, -1.0, 1e308]),
             sector_coefficients(deep, _negative_walk(deep)),
             sector_coefficients(deep.with_hot_reservoir(HOT_BATHS[Direction.NEGATIVE].saturated)),
             *[sector_coefficients(reference.with_gamma1(g)) for g in (1e-1, 1e-4, 0.0)],
             sector_coefficients(default_config(gammas=(0.0, 1.0, 1.0), coupling=0.0))]
    stacks = []
    monkeypatch.setattr(analysis, "solve_coefficients",
                        lambda *args: stacks.append(solve_coefficients(*args)) or stacks[-1])
    _solve_stack(parts, 1.0)
    solved, = stacks
    alone = [solve_coefficients(coefficients[i:i + 1], errors[i:i + 1])
             for coefficients, errors in parts for i in range(len(errors))]
    assert len(solved.errors) == len(alone) == 30
    assert [type(error).__name__ for error in solved.errors if error] == [
        "ReservoirError", "MultiplicityError"]
    for i, single in enumerate(alone):
        assert solved.coordinates[i].tobytes() == single.coordinates[0].tobytes()
        assert solved.residuals[i].tobytes() == single.residuals[0].tobytes()
        assert type(solved.errors[i]) is type(single.errors[0])
