import numpy as np
import pytest

from qfridge import FridgeConfig, ReservoirSpec, default_config
from qfridge.linalg import LinalgError
from qfridge.liouvillian import ConfigError, DensityMatrix, DensityMatrixError
from qfridge.reservoirs import Statistics, lindblad_rates
from tests.conftest import random_valid_config
from tests.oracles import (
    SIGMA_Z,
    _trace_row,
    build_liouvillian,
    embed,
    free_hamiltonian,
    ground_state,
    interaction_hamiltonian,
    maximally_mixed,
    max_abs,
    qubit_liouvillian,
    thermal_product,
    thermal_qubit,
)


def vec(rho):
    return rho.reshape(-1, order="F")


def basis_index(q1, q2, q3):
    return 4 * q1 + 2 * q2 + q3


def test_config_validation():
    good = default_config()
    with pytest.raises(ConfigError):
        FridgeConfig(gaps=(0.0, 5.0, 4.0), gammas=good.gammas,
                     reservoirs=good.reservoirs, coupling=1.0)
    with pytest.raises(ConfigError):
        FridgeConfig(gaps=(1.0, 5.0), gammas=good.gammas,
                     reservoirs=good.reservoirs, coupling=1.0)
    with pytest.raises(ConfigError):
        FridgeConfig(gaps=good.gaps, gammas=(-0.1, 1.0, 1.0),
                     reservoirs=good.reservoirs, coupling=1.0)
    with pytest.raises(ConfigError):
        FridgeConfig(gaps=good.gaps, gammas=good.gammas,
                     reservoirs=good.reservoirs, coupling=-0.5)
    with pytest.raises(ConfigError, match="ReservoirSpec"):
        FridgeConfig(gaps=good.gaps, gammas=good.gammas,
                     reservoirs=(*good.reservoirs[:2], good.reservoirs[2].to_dict()),
                     coupling=1.0)
    # the decoupled machine is a valid reference point
    FridgeConfig(gaps=good.gaps, gammas=good.gammas,
                 reservoirs=good.reservoirs, coupling=0.0)


def test_resonance_flag():
    assert default_config(gaps=(1.0, 5.0, 4.0)).resonant
    assert not default_config(gaps=(1.0, 5.0, 3.9)).resonant


def test_config_round_trip_and_hash():
    config = default_config(th=-0.5, hot_statistics="fermionic")
    again = FridgeConfig.from_dict(config.to_dict())
    assert again == config
    assert again.config_hash() == config.config_hash()
    assert default_config().config_hash() == "0b4d3e03a258"


def test_embed_most_significant_first():
    z1 = embed(SIGMA_Z, 1)
    np.testing.assert_array_equal(np.diagonal(z1).real,
                                  [-1, -1, -1, -1, 1, 1, 1, 1])
    z3 = embed(SIGMA_Z, 3)
    np.testing.assert_array_equal(np.diagonal(z3).real,
                                  [-1, 1, -1, 1, -1, 1, -1, 1])


def test_free_hamiltonian_gap_and_structure():
    config = default_config(gaps=(1.0, 5.0, 4.0))
    h = free_hamiltonian(config)
    assert max_abs(h - np.diag(np.diagonal(h))) == 0.0
    assert max_abs(h - h.conj().T) == 0.0
    # exciting qubit 1 from the global ground state costs exactly E1
    egg = basis_index(1, 0, 0)
    ggg = basis_index(0, 0, 0)
    assert (h[egg, egg] - h[ggg, ggg]).real == pytest.approx(1.0, abs=0.0)
    assert np.trace(h) == pytest.approx(0.0, abs=0.0)


def test_free_hamiltonian_degenerate_spectrum():
    h = free_hamiltonian(default_config(gaps=(1.0, 1.0, 1.0)))
    spectrum = sorted(np.diagonal(h).real)
    assert spectrum == pytest.approx([-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5])


def test_interaction_couples_exactly_one_pair():
    config = default_config(coupling=1.0)
    h = interaction_hamiltonian(config)
    ege = basis_index(1, 0, 1)
    geg = basis_index(0, 1, 0)
    assert h[geg, ege] == pytest.approx(1.0)
    assert h[ege, geg] == pytest.approx(1.0)
    mask = np.ones_like(h, dtype=bool)
    mask[geg, ege] = mask[ege, geg] = False
    assert max_abs(h[mask]) == 0.0


def test_interaction_squared_projects_on_the_pair():
    g = 0.7
    h = interaction_hamiltonian(default_config(coupling=g))
    h2 = h @ h
    diag = np.diagonal(h2).real
    ege = basis_index(1, 0, 1)
    geg = basis_index(0, 1, 0)
    assert diag[ege] == pytest.approx(g ** 2)
    assert diag[geg] == pytest.approx(g ** 2)
    assert max_abs(h2 - np.diag(diag)) == 0.0


def test_resonance_makes_interaction_commute():
    resonant = default_config(gaps=(1.0, 5.0, 4.0))
    h0 = free_hamiltonian(resonant)
    hint = interaction_hamiltonian(resonant)
    assert max_abs(h0 @ hint - hint @ h0) == pytest.approx(0.0, abs=1e-14)
    detuned = default_config(gaps=(1.0, 5.0, 3.5))
    h0 = free_hamiltonian(detuned)
    hint = interaction_hamiltonian(detuned)
    assert max_abs(h0 @ hint - hint @ h0) > 0.1


def test_closed_system_reduces_to_commutator(rng):
    config = default_config(gammas=(0.0, 0.0, 0.0))
    generator = build_liouvillian(config).matrix
    h = free_hamiltonian(config) + interaction_hamiltonian(config)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m + m.conj().T
    lhs = generator @ vec(rho)
    rhs = vec(-1j * (h @ rho - rho @ h))
    assert max_abs(lhs - rhs) <= 1e-12


def test_trace_preservation_reference_point(reference_config):
    generator = build_liouvillian(reference_config).matrix
    assert max_abs(_trace_row(8) @ generator) <= 1e-12


def test_trace_preservation_random_configs(rng):
    for _ in range(25):
        config = random_valid_config(rng)
        generator = build_liouvillian(config).matrix
        assert max_abs(_trace_row(8) @ generator) <= 1e-12


def test_generator_linear_in_rates():
    # Doubling every gamma doubles the dissipative part and leaves the
    # commutator alone: L(2g) - L(g) = L(g) - L(0).
    base = default_config()
    l0 = build_liouvillian(default_config(gammas=(0.0, 0.0, 0.0))).matrix
    l1 = build_liouvillian(base).matrix
    l2 = build_liouvillian(default_config(gammas=(2.0, 2.0, 2.0))).matrix
    assert max_abs((l2 - l1) - (l1 - l0)) <= 1e-12


def test_single_qubit_thermal_state_is_stationary():
    # Detailed balance p_e/p_g = up/down, brute forced through the 4x4
    # generator for both statistics (including an inverted fermionic bath).
    for spec in (ReservoirSpec(Statistics.BOSONIC, 1.7),
                 ReservoirSpec(Statistics.FERMIONIC, 0.6),
                 ReservoirSpec(Statistics.FERMIONIC, -0.9)):
        gap = 1.3
        generator = qubit_liouvillian(gap, *lindblad_rates(spec, gap, 0.8)).matrix
        rho = thermal_qubit(spec, gap).matrix
        assert max_abs(generator @ vec(rho)) <= 1e-14


def test_single_qubit_nonthermal_state_moves():
    generator = qubit_liouvillian(1.0, 1.0, 0.3).matrix
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert max_abs(generator @ vec(rho)) > 0.01


def test_thermal_product_matches_factors():
    config = default_config(th=-2.0, hot_statistics="fermionic")
    rho = thermal_product(config).matrix
    probe = np.kron(
        np.kron(thermal_qubit(config.reservoirs[0], 1.0).matrix,
                thermal_qubit(config.reservoirs[1], 5.0).matrix),
        thermal_qubit(config.reservoirs[2], 4.0).matrix,
    )
    assert max_abs(rho - probe) == 0.0


def test_density_matrix_validation():
    with pytest.raises(DensityMatrixError):
        DensityMatrix(np.eye(8, dtype=complex))          # trace 8
    with pytest.raises(DensityMatrixError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))   # negative weight
    skew = np.diag([0.5, 0.5]).astype(complex)
    skew[0, 1] = 1e-3
    with pytest.raises(DensityMatrixError):
        DensityMatrix(skew)                               # not Hermitian
    ground_state()
    maximally_mixed()
    # not a matrix, empty, or not finite (inf - inf warns nowhere)
    for matrix in (np.ones(4), np.zeros((0, 0)), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])):
        with pytest.raises(LinalgError):
            DensityMatrix(matrix)
    with pytest.raises(LinalgError, match="matrix has non-finite entries"):
        DensityMatrix(np.diag([np.inf, 0.0]))
