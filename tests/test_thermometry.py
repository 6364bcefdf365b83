import math

import numpy as np
import pytest

from qfridge import (
    DensityMatrix,
    ReservoirSpec,
    effective_temperature,
    insulated_limit_temperature,
)
from qfridge.reservoirs import Statistics
from qfridge.thermometry import (
    OutOfRegimeError,
    TemperatureSentinel,
    ThermometryError,
    temperature_as_float,
    temperature_from_population_ratio,
)
from tests.oracles import (
    build_liouvillian,
    coherence_is_negligible,
    read_qubit,
    reduced_qubit_state,
    solve_direct,
    thermal_qubit,
)

P_GROUND_AT_UNIT_T = 1.0 / (1.0 + math.exp(-1.0))   # Gibbs at T = 1, E = 1


def random_qubit_state(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_reduce_product_state(rng):
    factors = [random_qubit_state(rng) for _ in range(3)]
    product = np.kron(np.kron(factors[0], factors[1]), factors[2])
    state = DensityMatrix(product)
    for k in range(3):
        np.testing.assert_allclose(reduced_qubit_state(state, k + 1),
                                   factors[k], atol=1e-12)


def test_reduce_maximally_mixed():
    state = DensityMatrix.maximally_mixed()
    for k in (1, 2, 3):
        np.testing.assert_allclose(reduced_qubit_state(state, k),
                                   np.eye(2) / 2.0, atol=1e-14)


def test_reduce_w_like_state():
    # (|egg> + |geg> + |gge>)/sqrt(3): each qubit carries excitation 1/3,
    # worked out by hand from the three basis indices 4, 2 and 1.
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[4] = amplitudes[2] = amplitudes[1] = 1.0 / math.sqrt(3.0)
    state = DensityMatrix.from_pure(amplitudes)
    for k in (1, 2, 3):
        reduced = reduced_qubit_state(state, k)
        assert reduced[0, 0].real == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert reduced[1, 1].real == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_reduce_validates_index():
    with pytest.raises(ThermometryError):
        reduced_qubit_state(DensityMatrix.maximally_mixed(), 4)


def test_effective_temperature_unit_case():
    assert effective_temperature(P_GROUND_AT_UNIT_T, 1.0) == pytest.approx(1.0, rel=1e-12)
    # e/(1+e) is the same number written from the other side
    assert effective_temperature(math.e / (1.0 + math.e), 1.0) == pytest.approx(
        1.0, rel=1e-12)


def test_effective_temperature_sentinels():
    assert effective_temperature(0.5, 1.0) is TemperatureSentinel.INFINITE
    assert effective_temperature(1.0, 1.0) is TemperatureSentinel.ZERO_FROM_ABOVE
    assert effective_temperature(0.0, 1.0) is TemperatureSentinel.ZERO_FROM_BELOW


def test_effective_temperature_sign_convention():
    assert effective_temperature(0.8, 1.0) > 0.0
    assert effective_temperature(0.2, 1.0) < 0.0   # population inverted


def test_ratio_form_keeps_precision_when_p_ground_rounds_to_one():
    t = temperature_from_population_ratio(1.0, 1e-20, 1.0)
    assert t == pytest.approx(1.0 / math.log(1e20), rel=1e-12)


def test_ratio_overflow_is_zero_from_above():
    # p_ground / p_excited overflows when p_excited is subnormal: T is 0+,
    # not the float E / ln(inf) = 0.0.
    assert (temperature_from_population_ratio(1.0, 1e-320, 1.0)
            is TemperatureSentinel.ZERO_FROM_ABOVE)
    # the last ratio that still fits keeps its finite temperature
    t = temperature_from_population_ratio(1.0, 1e-308, 1.0)
    assert t == pytest.approx(1.0 / math.log(1e308), rel=1e-12)


def test_temperature_as_float_collapses_sentinels():
    assert temperature_as_float(TemperatureSentinel.ZERO_FROM_ABOVE) == 0.0
    assert temperature_as_float(TemperatureSentinel.INFINITE) == math.inf
    assert temperature_as_float(TemperatureSentinel.ZERO_FROM_BELOW) == math.inf
    assert temperature_as_float(1.5) == 1.5


def test_single_qubit_round_trip_both_statistics():
    # A decoupled qubit damped by its bath reads back the bath temperature.
    for statistics in (Statistics.BOSONIC, Statistics.FERMIONIC):
        for t in np.geomspace(0.05, 50.0, 25):
            for sign in (1.0, -1.0):
                if statistics is Statistics.BOSONIC and sign < 0:
                    continue
                spec = ReservoirSpec(statistics, sign * t)
                rho = thermal_qubit(spec, 1.4).matrix
                recovered = temperature_from_population_ratio(
                    rho[0, 0].real, rho[1, 1].real, 1.4)
                assert recovered == pytest.approx(sign * t, rel=1e-8)


def test_readout_populations_sum_to_one(reference_config):
    state = solve_direct(build_liouvillian(reference_config)).state
    readout = read_qubit(state, 1, 1.0)
    assert readout.p_ground + readout.p_excited == pytest.approx(1.0, abs=1e-10)
    assert readout.p_ground > 0.5 and readout.effective_temperature > 0.0


def test_steady_state_coherence_is_negligible(reference_config):
    # The Gibbs readout presumes a diagonal reduced state; verify rather
    # than assume.
    state = solve_direct(build_liouvillian(reference_config)).state
    for k in (1, 2, 3):
        assert coherence_is_negligible(state, k)


def test_insulated_limit_values():
    assert insulated_limit_temperature(1.0, math.inf, 1.0, 4.0) == pytest.approx(0.2)
    assert insulated_limit_temperature(1.0, 1e12, 1.0, 4.0) == pytest.approx(0.2, rel=1e-10)
    # E3/E1 = 1 and a vanishing ratio t_c/t_h halves the temperature
    assert insulated_limit_temperature(1.0, 1e15, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    # negative hot bath, E3 = E1: 1/(1 + (1 + 10)) = 1/12
    assert insulated_limit_temperature(1.0, -0.1, 1.0, 1.0) == pytest.approx(1.0 / 12.0)
    # no thermal gradient, no cooling
    assert insulated_limit_temperature(1.7, 1.7, 1.0, 4.0) == pytest.approx(1.7)


def test_insulated_limit_two_algebraic_forms_agree():
    # For t_h < 0 the denominator can be written with 1 - t_c/t_h or with
    # 1 + t_c/|t_h|; both must be the same function.
    for tc in (0.5, 1.0, 2.0):
        for th in (-0.1, -1.0, -7.0):
            for ratio in (0.5, 1.0, 4.0):
                direct = insulated_limit_temperature(tc, th, 1.0, ratio)
                rewritten = tc / (1.0 + ratio * (1.0 + tc / abs(th)))
                assert abs(direct - rewritten) <= 1e-12


def test_insulated_limit_monotone_in_gap_ratio():
    values = [insulated_limit_temperature(1.0, 10.0, 1.0, e3)
              for e3 in np.linspace(0.5, 8.0, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_insulated_limit_reaches_zero_with_cold_over_hot():
    # Negative hot bath: growing t_c/|t_h| cools without bound.
    values = [insulated_limit_temperature(1.0, -1.0 / x, 1.0, 1.0)
              for x in np.geomspace(1.0, 1e6, 20)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_insulated_limit_out_of_regime():
    # Hot bath colder than the cold bath by enough flips the denominator.
    with pytest.raises(OutOfRegimeError):
        insulated_limit_temperature(5.0, 1.0, 1.0, 4.0)


def test_insulated_limit_input_validation():
    with pytest.raises(ThermometryError):
        insulated_limit_temperature(-1.0, 10.0, 1.0, 4.0)
    with pytest.raises(ThermometryError):
        insulated_limit_temperature(1.0, 0.0, 1.0, 4.0)
    with pytest.raises(ThermometryError):
        insulated_limit_temperature(1.0, 10.0, 0.0, 4.0)
