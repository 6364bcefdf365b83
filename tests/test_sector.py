"""The 10-dimensional sector solve against the 64x64 oracle, and the stacked
sector solve against one-at-a-time solves.

Property tests over resonant and detuned machines, including the decoupled
machine (g = 0), a bath switched off (gamma_k = 0), saturated hot baths and
baths whose |E/T| straddles the exp cutoff of the occupation formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge import (
    FridgeConfig,
    ReservoirSpec,
    Role,
    Statistics,
    build_liouvillian,
    default_config,
    read_qubit,
    solve_direct,
)
from qfridge.analysis import solve_for_readout, sweep_hot_temperature
from qfridge.linalg import TOL
from qfridge.liouvillian import (
    DIM,
    SECTOR_DIM,
    SECTOR_PAIR,
    sector_coefficients,
    sector_generator,
    sector_generators,
)
from qfridge.steady_state import (
    _SECTOR_POPULATIONS,
    _SECTOR_TRACE_ROW,
    MultiplicityError,
    SteadyStateError,
    _solve_constrained,
    solve_sector,
    solve_sectors,
)
from qfridge.thermometry import read_qubit1_stack
from tests.conftest import exact_qubit1_populations

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
def test_sector_solve_matches_full_solve(config):
    try:
        sector = solve_sector(config)
    except MultiplicityError:
        # an insulated qubit 1 next to a frozen bath can be degenerate to
        # working precision; then both paths must say so
        with pytest.raises(MultiplicityError):
            solve_direct(build_liouvillian(config))
        return
    full = solve_direct(build_liouvillian(config))
    assert np.max(np.abs(sector.state.matrix - full.state.matrix)) <= 1e-12
    assert sector.residual <= 1e-10
    if config.gammas[0] == 0.0:
        # Insulated qubit 1 relaxes through the interaction alone, and
        # neither path resolves T1 beyond ~1e-11 there (against a 60-digit
        # solve: sector <= 1.1e-12, 64x64 <= 9.3e-12 over 40 machines), so
        # only the state is compared.
        return
    t_sector = read_qubit(sector.state, 1, config.gaps[0]).effective_temperature
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
        solve_sector(config)
    with pytest.raises(MultiplicityError):
        solve_direct(build_liouvillian(config))


def test_deep_cooled_population_is_resolved():
    # T_c = 0.02 under an inverted hot bath at T_h = -0.1 (n3 rounds to 1):
    # p_e1 ~ 1e-22 sits far below the largest populations, and the solve's
    # refinement pass is what resolves it to full relative precision.
    config = default_config(tc=0.02, th=-0.1, hot_statistics="fermionic")
    readout = read_qubit(solve_sector(config).state, 1, config.gaps[0])
    assert readout.p_excited == pytest.approx(1.1378e-22, rel=1e-4, abs=0.0)
    _, exact = exact_qubit1_populations(config)
    assert readout.p_excited == pytest.approx(float(exact), rel=1e-9, abs=0.0)
    assert math.isclose(readout.p_ground, 1.0)


def _status(exc):
    return f"{type(exc).__name__}: {exc}"


@st.composite
def hot_stacks(draw):
    """A machine and the hot reservoirs to stack under it: any mix of
    bosonic, fermionic, inverted, near-cutoff and saturated baths."""
    config = draw(machines())
    saturated = ReservoirSpec.saturated(Statistics.FERMIONIC, 1.0 - 1e-15)
    hots = draw(st.lists(st.one_of(reservoirs(Role.HOT, config.gaps[2]), st.just(saturated)),
                         min_size=1, max_size=6))
    return config, hots


@PROPERTY_SETTINGS
@given(hot_stacks())
def test_stacked_solve_matches_one_at_a_time(case):
    config, hots = case
    solved = solve_sectors(config, hots)
    good = [k for k, error in enumerate(solved.errors) if error is None]
    readouts = iter(read_qubit1_stack(
        np.diagonal(solved.states[good], axis1=1, axis2=2).real, config.gaps[0]))
    for hot, residual, error in zip(hots, solved.residuals, solved.errors):
        try:
            single, readout = solve_for_readout(config.with_hot_reservoir(hot))
        except (SteadyStateError, ValueError) as exc:
            assert error is not None and _status(error) == _status(exc)
            continue
        assert error is None
        assert residual <= TOL.steady_residual_direct
        assert single.residual <= TOL.steady_residual_direct
        stacked = next(readouts).effective_temperature
        single_t1 = readout.effective_temperature
        if isinstance(single_t1, float) and isinstance(stacked, float):
            assert stacked == pytest.approx(single_t1, rel=1e-12, abs=0.0)
        else:
            assert stacked == single_t1


@PROPERTY_SETTINGS
@given(hot_stacks())
def test_one_row_stack_is_the_single_solve(case):
    config, hots = case
    hot = hots[0]
    solved = solve_sectors(config, [hot])
    try:
        single = solve_sector(config.with_hot_reservoir(hot))
    except (SteadyStateError, ValueError) as exc:
        assert _status(solved.errors[0]) == _status(exc)
        return
    assert solved.errors == [None]
    np.testing.assert_array_equal(solved.states[0], single.state.matrix)
    assert float(solved.residuals[0]) == single.residual
    # the sector readout sums the populations as the partial trace does
    stacked = read_qubit1_stack(np.diagonal(single.state.matrix).real, config.gaps[0])
    assert stacked == [read_qubit(single.state, 1, config.gaps[0])]


@PROPERTY_SETTINGS
@given(st.data())
def test_multiplicity_rows_leave_their_neighbours_solved(data):
    # Rows of different machines in one stack: the free-qubit-1 machines
    # (g = 0, gamma_1 = 0) fail alone, the others solve as on their own.
    configs = data.draw(st.lists(machines(), min_size=1, max_size=4))
    free = [k for k in range(len(configs)) if data.draw(st.booleans())] or [0]
    for k in free:
        gammas = (0.0,) + configs[k].gammas[1:]
        configs[k] = FridgeConfig(gaps=configs[k].gaps, gammas=gammas,
                                  reservoirs=configs[k].reservoirs, coupling=0.0)
    coefficients = np.concatenate([sector_coefficients(c)[0] for c in configs])
    x, errors = _solve_constrained(sector_generators(coefficients),
                                   _SECTOR_POPULATIONS, _SECTOR_TRACE_ROW)
    for k, config in enumerate(configs):
        if k in free:
            assert isinstance(errors[k], MultiplicityError)
            assert np.all(np.isnan(x[k]))
            continue
        try:
            single = solve_sector(config)
        except MultiplicityError as exc:
            assert _status(errors[k]) == _status(exc)
            continue
        assert errors[k] is None
        populations = np.diagonal(single.state.matrix).real
        np.testing.assert_allclose(x[k, :DIM], populations, rtol=0, atol=1e-15)


def test_sweep_row_failure_keeps_the_one_at_a_time_status(reference_config):
    # T_h = 1e308 drives the hot rates to ~1e308: that row is singular to
    # working precision, while its neighbours solve.
    grid = [2.0, 1e308, 5.0]
    records = sweep_hot_temperature(reference_config, grid)
    with pytest.raises(MultiplicityError) as excinfo:
        solve_for_readout(reference_config.with_hot_temperature(1e308))
    assert records[1].status == _status(excinfo.value)
    assert math.isnan(records[1].t1) and math.isnan(records[1].residual)
    for record, th in zip(records[::2], grid[::2]):
        _, readout = solve_for_readout(reference_config.with_hot_temperature(th))
        assert record.status == "ok"
        assert record.t1 == pytest.approx(readout.effective_temperature, rel=1e-12, abs=0.0)
