import numpy as np
import pytest

from qfridge import default_config, solve_for_readout
from qfridge.liouvillian import DensityMatrix
from qfridge.steady_state import MultiplicityError, SteadyStateError
from tests.conftest import random_valid_config
from tests.oracles import (
    Liouvillian,
    PropagationError,
    Solver,
    SteadyStateResult,
    build_liouvillian,
    ground_state,
    maximally_mixed,
    propagate,
    pure_state,
    read_qubit,
    solve_direct,
    steady_state_by_propagation,
    thermal_product,
    trace_distance,
)


def test_direct_solve_reference_point(reference_config):
    result = solve_direct(build_liouvillian(reference_config))
    assert result.residual <= 1e-10
    readout = read_qubit(result.state, 1, 1.0)
    # refrigeration: the cooled qubit sits below its own bath temperature
    assert readout.effective_temperature < 1.0


def test_equilibrium_product_state_at_common_temperature():
    # Resonant gaps, every bath bosonic at the same temperature: the Gibbs
    # product is stationary for any coupling, and each qubit reads back the
    # common temperature.
    config = default_config(tc=1.3, tr=1.3, th=1.3, coupling=0.9)
    result = solve_direct(build_liouvillian(config))
    assert trace_distance(result.state, thermal_product(config)) <= 1e-9
    for k, gap in enumerate(config.gaps, start=1):
        readout = read_qubit(result.state, k, gap)
        assert readout.effective_temperature == pytest.approx(1.3, rel=1e-8)


def test_decoupled_machine_factorizes():
    config = default_config(tc=0.8, tr=2.0, th=6.0, coupling=0.0)
    result = solve_direct(build_liouvillian(config))
    assert trace_distance(result.state, thermal_product(config)) <= 1e-10
    for k, (gap, spec) in enumerate(zip(config.gaps, config.reservoirs), start=1):
        readout = read_qubit(result.state, k, gap)
        assert readout.effective_temperature == pytest.approx(
            spec.temperature, rel=1e-8)


def test_degenerate_manifold_raises_multiplicity():
    # Coupling and the cold-bath rate both zero: qubit 1 is completely
    # disconnected and any of its populations is stationary. With every rate
    # zero on resonant gaps (Gamma = delta = 0), the pair |g e g>, |e g e>
    # turns into itself undamped. The oracle and the sector solve both say so.
    for config in (default_config(coupling=0.0, gammas=(0.0, 1.0, 1.0)),
                   default_config(gammas=(0.0, 0.0, 0.0))):
        with pytest.raises(MultiplicityError):
            solve_direct(build_liouvillian(config))
        with pytest.raises(MultiplicityError):
            solve_for_readout(config)


def test_every_rate_zero_counts_the_coupled_pair_as_one_class():
    # Gamma = delta = 0 makes the exchange rate kappa 0/0. With g > 0 the
    # pair |g e g>, |e g e> is still coupled, so the eight states form 7
    # closed classes; with g = 0 each state is its own.
    for coupling, classes in ((1.0, 7), (0.0, 8)):
        with pytest.raises(MultiplicityError, match=f"has {classes} closed classes"):
            solve_for_readout(default_config(gammas=(0.0, 0.0, 0.0), coupling=coupling))


def test_constraint_row_choice_is_immaterial(reference_config):
    liouvillian = build_liouvillian(reference_config)
    baseline = solve_direct(liouvillian).state.matrix
    for row in (0, 9, 36, 63):   # population positions k * (dim + 1)
        other = solve_direct(liouvillian, constraint_row=row).state.matrix
        assert np.max(np.abs(other - baseline)) <= 1e-9
    with pytest.raises(SteadyStateError):
        solve_direct(liouvillian, constraint_row=7)


def test_generator_rescaling_keeps_the_state(reference_config):
    liouvillian = build_liouvillian(reference_config)
    scaled = Liouvillian(matrix=7.3 * liouvillian.matrix, dim=8,
                         config_hash="scaled")
    a = solve_direct(liouvillian).state
    b = solve_direct(scaled).state
    assert trace_distance(a, b) <= 1e-10


def test_random_configs_produce_valid_states(rng):
    for _ in range(20):
        config = random_valid_config(rng)
        result = solve_direct(build_liouvillian(config))
        rho = result.state.matrix
        assert result.residual <= 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9


def test_result_residual_contract(reference_config):
    state = solve_direct(build_liouvillian(reference_config)).state
    with pytest.raises(SteadyStateError):
        SteadyStateResult(state=state, residual=1e-6, solver=Solver.DIRECT)


def test_propagate_zero_time_is_identity(reference_config):
    liouvillian = build_liouvillian(reference_config)
    rho0 = maximally_mixed()
    assert propagate(liouvillian, rho0, 0.0) is rho0


def test_propagate_rejects_unstable_step(reference_config):
    liouvillian = build_liouvillian(reference_config)
    with pytest.raises(PropagationError):
        propagate(liouvillian, ground_state(), 1.0, dt=10.0)


def test_propagation_preserves_hermiticity(rng):
    # The generator maps Hermitian states to Hermitian derivatives, so the
    # integrated state must stay Hermitian without any symmetrization.
    config = random_valid_config(rng)
    liouvillian = build_liouvillian(config)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = DensityMatrix((m @ m.conj().T) / np.trace(m @ m.conj().T).real)
    rho_t = propagate(liouvillian, rho0, 10.0, stop_when_stationary=False)
    assert np.max(np.abs(rho_t.matrix - rho_t.matrix.conj().T)) <= 1e-9


def test_closed_system_preserves_purity(rng):
    config = default_config(gammas=(0.0, 0.0, 0.0))
    liouvillian = build_liouvillian(config)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho0 = pure_state(psi)
    rho_t = propagate(liouvillian, rho0, 10.0, stop_when_stationary=False)
    purity = np.trace(rho_t.matrix @ rho_t.matrix).real
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_propagation_matches_direct_solve(reference_config):
    liouvillian = build_liouvillian(reference_config)
    direct = solve_direct(liouvillian)
    # t_final = 50 / min(gamma) with unit rates
    oracle = propagate(liouvillian, ground_state(), 50.0)
    assert trace_distance(direct.state, oracle) <= 1e-6


def test_propagation_route_on_random_configs(rng):
    for _ in range(4):
        config = random_valid_config(rng)
        liouvillian = build_liouvillian(config)
        direct = solve_direct(liouvillian)
        oracle = steady_state_by_propagation(liouvillian)
        assert oracle.residual <= 1e-8
        assert trace_distance(direct.state, oracle.state) <= 1e-6


def test_trace_distance_basics():
    a = ground_state(2)
    b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_of_sigma_x_eigenstates():
    # |+><+| - |-><-| is sigma_x, eigenvalues -1 and 1; |g><g| - |+><+| has
    # only off-diagonal weight left after the diagonal cancels, +-1/sqrt(2).
    plus = pure_state([1.0, 1.0])
    minus = pure_state([1.0, -1.0])
    assert trace_distance(plus, minus) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(ground_state(2), plus) == pytest.approx(
        np.sqrt(0.5), abs=1e-12)


def test_trace_distance_of_a_pure_state_from_the_maximally_mixed(rng):
    # |psi><psi| - I/8 has eigenvalues 7/8 once and -1/8 seven times.
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    pure = pure_state(psi)
    assert trace_distance(pure, maximally_mixed(8)) == pytest.approx(
        7.0 / 8.0, abs=1e-12)
