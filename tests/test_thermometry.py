import itertools
import math

import numpy as np
import pytest

from qfridge import (
    FridgeConfig,
    ReservoirSpec,
    default_config,
    effective_temperature,
    insulation_limit,
)
from qfridge.analysis import BracketError
from qfridge.liouvillian import ConfigError, DensityMatrix
from qfridge.reservoirs import ReservoirError, Role, Statistics
from qfridge.thermometry import (
    TemperatureSentinel,
    ThermometryError,
    temperature_as_float,
    temperature_from_population_ratio,
)
from tests.oracles import (
    build_liouvillian,
    coherence_is_negligible,
    maximally_mixed,
    pure_state,
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
    state = maximally_mixed()
    for k in (1, 2, 3):
        np.testing.assert_allclose(reduced_qubit_state(state, k),
                                   np.eye(2) / 2.0, atol=1e-14)


def test_reduce_w_like_state():
    # (|egg> + |geg> + |gge>)/sqrt(3): each qubit carries excitation 1/3,
    # worked out by hand from the three basis indices 4, 2 and 1.
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[4] = amplitudes[2] = amplitudes[1] = 1.0 / math.sqrt(3.0)
    state = pure_state(amplitudes)
    for k in (1, 2, 3):
        reduced = reduced_qubit_state(state, k)
        assert reduced[0, 0].real == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert reduced[1, 1].real == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_reduce_validates_index():
    with pytest.raises(ThermometryError):
        reduced_qubit_state(maximally_mixed(), 4)


def test_effective_temperature_unit_case():
    assert effective_temperature(P_GROUND_AT_UNIT_T, 1.0) == pytest.approx(1.0, rel=1e-12)
    # e/(1+e) is the same number written from the other side
    assert effective_temperature(math.e / (1.0 + math.e), 1.0) == pytest.approx(
        1.0, rel=1e-12)


def test_effective_temperature_sentinels():
    assert effective_temperature(0.5, 1.0) is TemperatureSentinel.INFINITE
    assert effective_temperature(1.0, 1.0) is TemperatureSentinel.ZERO_FROM_ABOVE
    assert effective_temperature(0.0, 1.0) is TemperatureSentinel.ZERO_FROM_BELOW


@pytest.mark.parametrize("p_ground, gap", [
    (-0.1, 1.0), (1.5, 1.0), (math.nan, 1.0),
    (0.7, 0.0), (0.7, -1.0), (0.7, math.inf), (0.7, math.nan),
])
def test_effective_temperature_rejects_its_domain(p_ground, gap):
    with pytest.raises(ThermometryError):
        effective_temperature(p_ground, gap)


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
    # swapped populations read the mirrored temperature: a subnormal
    # p_ground is 0-, as its complement's p_excited is 0+
    assert (temperature_from_population_ratio(1e-320, 1.0, 1.0)
            is TemperatureSentinel.ZERO_FROM_BELOW)
    assert temperature_from_population_ratio(1e-308, 1.0, 1.0) == -t


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


def _insulated_limit(tr, th, e3, e1=1.0, hot=None):
    """The closed-form insulated limit insulation_limit reports for the
    resonant machine (e1, e1 + e3, e3) with its room bath at tr and its hot
    bath at th (fermionic where th < 0), or the hot bath hot."""
    config = default_config(tr=tr, th=th, gaps=(e1, e1 + e3, e3),
                            hot_statistics="fermionic" if th < 0.0 else "bosonic")
    if hot is not None:
        config = config.with_hot_reservoir(hot)
    return insulation_limit(config, (1e-1,)).analytic_t1


def test_insulated_limit_values():
    # T_h -> inf: a fermionic hot bath at n = 1/2 (infinitely hot) reads
    # E1 T_r / E2 = 1/5 exactly, and very hot bosonic baths approach it
    at_half = ReservoirSpec(Statistics.FERMIONIC, 10.0, Role.HOT, occupation_override=0.5)
    assert _insulated_limit(1.0, 10.0, 4.0, hot=at_half) == 0.2
    assert _insulated_limit(1.0, 1e12, 4.0) == pytest.approx(0.2, rel=1e-10)
    # E3/E1 = 1 and a vanishing ratio t_r/t_h halves the temperature
    assert _insulated_limit(1.0, 1e15, 1.0) == pytest.approx(0.5, rel=1e-12)
    # negative hot bath, E3 = E1: 1/(1 + (1 + 10)) = 1/12
    assert _insulated_limit(1.0, -0.1, 1.0) == pytest.approx(1.0 / 12.0)
    # no thermal gradient, no cooling
    assert _insulated_limit(1.7, 1.7, 4.0) == pytest.approx(1.7)


def test_insulated_limit_two_algebraic_forms_agree():
    # For resonant gaps and thermal baths, E1 / (E2/t_r - E3/t_h) is also
    # t_r / (1 + (E3/E1)(1 - t_r/t_h)), which is t_r / (1 + (E3/E1)(1 +
    # t_r/|t_h|)) for t_h < 0: the same function to a few ulps, on both
    # sides and at the parameter sets of acceptance criterion 06.
    for tr in (0.5, 1.0, 1.5, 2.0):
        for th in (-0.1, -0.5, -1.0, -7.0, 8.0, 10.0, 12.0):
            for e1, ratio in itertools.product((1.0, 2.0), (0.5, 1.0, 1.5, 3.0, 4.0)):
                direct = _insulated_limit(tr, th, ratio * e1, e1=e1)
                rewritten = tr / (1.0 + ratio * (1.0 - tr / th))
                assert abs(direct - rewritten) <= 4 * np.spacing(rewritten)


def test_insulated_limit_monotone_in_gap_ratio():
    values = [_insulated_limit(1.0, 10.0, e3) for e3 in np.linspace(0.5, 8.0, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_insulated_limit_reaches_zero_with_cold_over_hot():
    # Negative hot bath: growing t_r/|t_h| cools without bound.
    values = [_insulated_limit(1.0, -1.0 / x, 1.0) for x in np.geomspace(1.0, 1e6, 20)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_insulated_limit_out_of_regime():
    # Hot bath colder than the room bath by enough: the machine never cools.
    with pytest.raises(BracketError, match="never cools"):
        _insulated_limit(5.0, 1.0, 4.0)


def test_insulated_limit_input_validation():
    # Baths and gaps no machine can have are refused before any limit is
    # formed; an inverted room bath is a valid machine that never cools.
    with pytest.raises(ReservoirError):
        _insulated_limit(-1.0, 10.0, 4.0)
    with pytest.raises(ReservoirError):
        _insulated_limit(1.0, 0.0, 4.0)
    with pytest.raises(ConfigError):
        _insulated_limit(1.0, 10.0, 4.0, e1=0.0)
    cold, _, hot = default_config().reservoirs
    inverted = FridgeConfig((1.0, 5.0, 4.0), (1.0, 1.0, 1.0),
                            (cold, ReservoirSpec(Statistics.FERMIONIC, -1.0, Role.ROOM), hot), 1.0)
    with pytest.raises(BracketError, match="never cools"):
        insulation_limit(inverted)
