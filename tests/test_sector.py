"""The sector solve, a rate chain whose even states are solved by the tree
sum, against the exact law of random 4-state chains, of raw coefficient
rows over the whole float range (in rational arithmetic), the sector
generator and the 64x64 oracle; the stacked solve against one-at-a-time
solves, at any stack size, and against closed forms: the g = 0 thermal
product and the fermionic mirror symmetry. Chains that are not irreducible
against their closed classes, deep-cooled populations against mpmath, and
README's extreme rows, which keep the law of the main path.

Property tests over resonant and detuned machines, including the decoupled
machine (g = 0), a bath switched off (gamma_k = 0), saturated hot baths and
baths whose |E/T| straddles the exp cutoff of the occupation formulas.
"""

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
from qfridge.analysis import _solve_hot_grid, solve_for_readout, sweep_hot_temperature
from qfridge.linalg import TOL
from qfridge.liouvillian import (
    DIM,
    SECTOR_DIM,
    SECTOR_PAIR,
    density_matrix_errors,
    sector_coefficients,
    sector_state_errors,
)
from qfridge import steady_state
from qfridge.reservoirs import ReservoirError
from qfridge.steady_state import (
    MultiplicityError,
    SteadyStateError,
    _ORDER,
    _tree_weights,
    solve_coefficients,
    solve_sectors,
)
from qfridge.thermometry import TemperatureSentinel
from tests.conftest import exact_qubit1_populations, random_valid_config, sector_solution
from tests.oracles import (
    build_liouvillian,
    read_qubit,
    sector_generator,
    sector_states,
    solve_direct,
    thermal_product,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

temperatures = st.floats(0.3, 10.0)


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
    # |E/T| on either side of the cutoff, either statistics, either sign
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
        hot = ReservoirSpec.saturated(Statistics.FERMIONIC, 1.0 - 1e-15)
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


@PROPERTY_SETTINGS
@given(machines())
def test_sector_solve_matches_full_solve(config):
    try:
        state, residual = sector_solution(config)
    except MultiplicityError:
        # an insulated qubit 1 next to a frozen bath can be degenerate to
        # working precision; then both paths must say so
        with pytest.raises(MultiplicityError):
            solve_direct(build_liouvillian(config))
        return
    full = solve_direct(build_liouvillian(config))
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
    closed = sector_state_errors(x)
    with np.errstate(invalid="ignore"):
        full = density_matrix_errors(sector_states(x))
    assert [_invariant(closed.get(k)) for k in range(len(x))] == [
        _invariant(error) for error in full]


def test_deep_cooled_population_is_resolved():
    # An inverted hot bath at T_h = -0.1 (n3 rounds to 1) cools qubit 1 so
    # deeply that p_e1 sits 22 and 44 orders below the largest populations at
    # T_c = 0.02 and 0.01. The tree sum makes no subtraction, so it
    # resolves p_e1 to full relative precision all the same.
    for tc, p_excited in ((0.02, 1.1378e-22), (0.01, 2.1946e-44)):
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
                    ReservoirSpec.saturated(Statistics.BOSONIC, 0.0)),
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


def _in_stack_order(hots):
    """hots with the thermal baths first and the pinned ones after them, in
    the order a stacked solve takes them."""
    return sorted(hots, key=lambda hot: hot.occupation_override is not None)


def _stacked(hots):
    """The hot baths hots, in stack order, as the arguments of a stacked
    solve: the temperatures of the thermal ones and the occupations of the
    pinned ones."""
    return ([hot.temperature for hot in hots if hot.occupation_override is None],
            [hot.occupation_override for hot in hots if hot.occupation_override is not None])


@st.composite
def hot_stacks(draw):
    """A machine and the hot baths of one statistics to stack under it, in
    stack order: thermal, inverted, near-cutoff and pinned baths. The
    machine's own hot bath is the first of them."""
    config = draw(machines())
    statistics = draw(st.sampled_from(list(Statistics)))
    hots = _in_stack_order(draw(st.lists(hot_baths(statistics, config.gaps[2]),
                                         min_size=1, max_size=6)))
    return config.with_hot_reservoir(hots[0]), hots


@PROPERTY_SETTINGS
@given(hot_stacks())
def test_stacked_solve_matches_one_at_a_time(case):
    # A row of a stack is solved bit for bit as on its own: same T1, same
    # residual, same status.
    config, hots = case
    solved = solve_sectors(config, *_stacked(hots))
    for hot, residual, error, outcome in zip(hots, solved.residuals.tolist(), solved.errors,
                                             _solve_hot_grid(config, *_stacked(hots))):
        try:
            single_residual, readout = solve_for_readout(config.with_hot_reservoir(hot))
        except (SteadyStateError, ValueError) as exc:
            assert error is not None and _status(error) == _status(exc)
            assert _status(outcome) == _status(exc)
            continue
        assert error is None
        assert residual <= TOL.steady_residual_direct
        assert residual == single_residual
        assert outcome[3] == readout.effective_temperature


@PROPERTY_SETTINGS
@given(hot_stacks())
def test_one_row_stack_is_the_single_solve(case):
    # solve_for_readout is the one-row grid solve: its outcome is the row's
    # residual, and its readout, summed from the sector populations, is the
    # partial trace of the row's state.
    config, hots = case
    config = config.with_hot_reservoir(hots[0])
    solved = solve_sectors(config)
    outcome, = _solve_hot_grid(config, *_stacked(hots[:1]))
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
    assert _solve_hot_grid(reference_config, [], []) == []
    solved = solve_sectors(reference_config, [])
    assert solved.coordinates.shape == (0, SECTOR_DIM)
    assert solved.errors == []


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
    fermionic), with |E/T| near the exp cutoff, or with the occupation
    pinned at or next to its limits (the saturated overrides)."""
    if statistics is Statistics.FERMIONIC:
        return fermionic_baths(Role.HOT, gap)
    return st.one_of(
        st.builds(lambda t: ReservoirSpec(Statistics.BOSONIC, t, Role.HOT), temperatures),
        st.builds(lambda x: ReservoirSpec(Statistics.BOSONIC, gap / x, Role.HOT),
                  st.floats(650.0, 750.0)),
        st.just(ReservoirSpec.saturated(Statistics.BOSONIC, 0.0)))


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
    hots = _in_stack_order(data.draw(st.lists(hot_baths(statistics, config.gaps[2]),
                                              min_size=1, max_size=6)))
    config = config.with_hot_reservoir(hots[0])
    solved = solve_sectors(config, *_stacked(hots))
    assert solved.errors == [None] * len(hots)
    states = sector_states(solved.coordinates)
    for hot, state in zip(hots, states):
        expected = thermal_product(config.with_hot_reservoir(hot)).matrix
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-14)
    for *_, t1 in _solve_hot_grid(config, *_stacked(hots)):
        assert t1 == pytest.approx(config.cold_temperature, rel=1e-9, abs=0.0)


def fermionic_baths(role, gap, extreme=True):
    """Fermionic baths of either sign, near the exp cutoff or pinned too
    when extreme."""
    thermal = st.builds(lambda sign, t: ReservoirSpec(Statistics.FERMIONIC, sign * t, role),
                        st.sampled_from((1.0, -1.0)), temperatures)
    if not extreme:
        return thermal
    near_cutoff = st.builds(
        lambda sign, x: ReservoirSpec(Statistics.FERMIONIC, sign * gap / x, role),
        st.sampled_from((1.0, -1.0)), st.floats(650.0, 750.0))
    pinned = st.sampled_from([ReservoirSpec.saturated(Statistics.FERMIONIC, n, role)
                              for n in (0.0, 1e-15, 1.0 - 1e-15, 1.0)])
    return st.one_of(thermal, near_cutoff, pinned)


def _mirrored(spec):
    """The bath with n -> 1 - n: T -> -T, or the complementary pinned n."""
    if spec.occupation_override is not None:
        return ReservoirSpec.saturated(spec.statistics, 1.0 - spec.occupation_override,
                                       spec.role)
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
    # temperature changes sign, row by row of the stack. Rows whose float
    # rates are exact mirrors must fail or solve alike. Elsewhere 1 - n is
    # rounded, and a rate that is tiny on one side can be exactly 0 on the
    # other, so each side must have its own chain's outcome: not unique
    # with two or more closed classes, solved with one.
    drawn = data.draw(machines())
    e1, e2, e3 = drawn.gaps
    hots = _in_stack_order(data.draw(st.lists(fermionic_baths(Role.HOT, e3),
                                              min_size=1, max_size=6)))
    baths = (data.draw(fermionic_baths(Role.COLD, e1, extreme=False)),
             data.draw(fermionic_baths(Role.ROOM, e2)),
             hots[0])
    config = FridgeConfig(gaps=drawn.gaps, gammas=drawn.gammas, reservoirs=baths,
                          coupling=drawn.coupling)
    mirror = FridgeConfig(gaps=drawn.gaps, gammas=drawn.gammas,
                          reservoirs=tuple(_mirrored(b) for b in baths),
                          coupling=drawn.coupling)
    mirrored_hots = [_mirrored(h) for h in hots]
    solved = solve_sectors(config, *_stacked(hots))
    mirrored = solve_sectors(mirror, *_stacked(mirrored_hots))
    read = _solve_hot_grid(config, *_stacked(hots))
    mirrored_read = _solve_hot_grid(mirror, *_stacked(mirrored_hots))
    rates = sector_coefficients(config, *_stacked(hots))[0]
    mirrored_rates = sector_coefficients(mirror, *_stacked(mirrored_hots))[0]
    for k, (error, mirrored_error) in enumerate(zip(solved.errors, mirrored.errors)):
        if np.array_equal(mirrored_rates[k, [1, 0, 3, 2, 5, 4]], rates[k, :6]):
            assert type(error) is type(mirrored_error)
        else:
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
        _, p_ground, p_excited, t1 = read[k]
        if min(p_ground, p_excited) < 1e-6:
            # deep cooling or inversion: the smaller population is set by
            # the smallest rates, which the two sides round differently (or
            # hold at exactly 0 on one side only), so T1 is not compared
            continue
        mirrored_t1 = mirrored_read[k][3]
        if t1 is TemperatureSentinel.INFINITE:
            assert mirrored_t1 is t1
        else:
            assert mirrored_t1 == pytest.approx(-t1, rel=1e-9, abs=0.0)


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
    hots = _in_stack_order(data.draw(st.lists(hot_baths(statistics, config.gaps[2]),
                                              min_size=1, max_size=6)))
    config = config.with_hot_reservoir(hots[0])
    for hot, outcome in zip(hots, _solve_hot_grid(config, *_stacked(hots))):
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
                    ReservoirSpec.saturated(Statistics.FERMIONIC, 1.0 - 1e-15)),
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
    # |E3/T_h| just below and just above 700, where the occupation switches
    # from its closed form to its limit: the two rows read the same T1. In
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
    below, above = _solve_hot_grid(config, temperatures)
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


@PROPERTY_SETTINGS
@given(four_state_chains())
@example(_chain([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
@example(_chain([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 0.0, 0.0, 0.0]))
@example(_chain([1e-200, 1e-200, 1e-200, 1.0, 1e-200, 1e-200,
                 1e-200, 1e-200, 1e-200, 1e-200, 1e-200, 1.0]))
@example(_chain([1e-300, 5e108, 4e16, 0.0, 7e286, 5e-99,
                 0.0, 0.0, 4e222, 0.0, 1e-101, 8e-74]))
def test_tree_weights_are_the_stationary_law(chain):
    # The tree sum against the exact law, from determinants in rational
    # arithmetic: 1e-13 relative wherever the law is a normal float, exactly
    # 0 wherever the chain's structure makes it 0. A chain with two or more
    # closed classes weighs 0 everywhere.
    weights = _tree_weights(chain[None])[0]
    exact = _exact_weights(chain)
    total = sum(exact)
    if total == 0:
        assert np.all(weights == 0.0)
        return
    assert 2.0 ** -9 <= weights.sum() < 1.0
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
    #   state fail its eigenvalue check.
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
    (lambda: default_config(th=1e308), None, None),
    (lambda: default_config(gammas=(1e-150,) * 3, coupling=1e-150), None, None),
    (lambda: default_config(tc=0.01, th=-0.1, hot_statistics="fermionic"),
     "p_excited", 2.1946e-44),
    (_insulated_inverted_row, "p_ground", 4.6023e-305),
], ids=["hot-1e308", "rates-1e-150", "p_e1-2e-44", "p_ground-5e-305"])
def test_readme_extreme_rows_are_solved_on_the_main_path(monkeypatch, row, population,
                                                         expected):
    # README's huge-rate, tiny-rate and tiny-population rows are irreducible
    # chains: the power-of-two scaling of the tree sum solves them, and each
    # keeps the law of the main path bit for bit. In the first, the step
    # out of |g e g> along kappa underflows, and in the last, the weight of
    # an even state; _wide_law agrees with both to 2^-44.
    laws = _main_path_laws(monkeypatch)
    solved = solve_sectors(row())
    assert solved.errors == [None]
    assert solved.coordinates[0, _ORDER].tobytes() == laws[0][0].tobytes()
    _, readout = solve_for_readout(row())
    if population is not None:
        assert getattr(readout, population) == pytest.approx(expected, rel=1e-4, abs=0.0)


def test_an_overflowing_odd_step_is_solved_exactly(monkeypatch):
    # Every bath fermionic and gamma_1 = 0: qubit 2's up-rate of 2e-313
    # (room bath at T = 2/720) is the only way out of |g g e>, so the odd
    # step's inflow over that out-rate overflows. The row then falls to
    # _wide_law, whose law is exact: qubit 1's populations are those of a
    # 400-digit solve from the same rates. No RuntimeWarning is raised.
    # test_fermionic_mirror_symmetry met this machine with the room bath at
    # T = 2/710, which overflowed GTH's normalized even law but not the
    # tree weights.
    config = FridgeConfig(
        gaps=(1.0, 2.0, 1.0), gammas=(0.0, 1.0, 1.0),
        reservoirs=(ReservoirSpec(Statistics.FERMIONIC, -1.0, Role.COLD),
                    ReservoirSpec(Statistics.FERMIONIC, 2.0 / 720.0, Role.ROOM),
                    ReservoirSpec(Statistics.FERMIONIC, -1.0 / 650.0, Role.HOT)),
        coupling=1.0)
    laws = _main_path_laws(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, readout = solve_for_readout(config)
    assert not np.isfinite(laws[0]).all()
    p_ground, p_excited = exact_qubit1_populations(config, dps=400)
    assert (readout.p_ground, readout.p_excited) == (float(p_ground), float(p_excited))


def test_a_row_solves_bit_for_bit_whatever_the_stack_size(rng):
    # A stack's reductions run over axes whose order does not depend on its
    # size, so every row of stacks of 1, 2, 9, 64 and 1000 rows has the
    # coordinates and residual of its one-row solve, bit for bit. The rows
    # are README's extreme rows and random machines.
    extreme = [default_config(th=1e308),
               default_config(gammas=(1e-150,) * 3, coupling=1e-150),
               default_config(tc=0.01, th=-0.1, hot_statistics="fermionic"),
               _insulated_inverted_row()]
    configs = extreme + [random_valid_config(rng) for _ in range(1000 - len(extreme))]
    rows = np.concatenate([sector_coefficients(config)[0] for config in configs])
    alone = [solve_coefficients(rows[i:i + 1]) for i in range(len(rows))]
    for size in (1, 2, 9, 64, 1000):
        solved = solve_coefficients(rows[:size])
        for i in range(size):
            assert solved.coordinates[i].tobytes() == alone[i].coordinates[0].tobytes()
            assert solved.residuals[i].tobytes() == alone[i].residuals[0].tobytes()
