import math

import numpy as np
import pytest

from qfridge.liouvillian import default_config, sector_coefficients
from qfridge.reservoirs import (
    InfiniteTemperatureError,
    ReservoirError,
    ReservoirSpec,
    Role,
    Statistics,
    bath_rates,
    lindblad_rates,
    log_rate_ratio,
    occupation,
    temperature_from_occupation,
)


def bosonic(t):
    return ReservoirSpec(Statistics.BOSONIC, t)


def fermionic(t):
    return ReservoirSpec(Statistics.FERMIONIC, t)


# Direct single-expression evaluations, independent of the stable branches
# used by the implementation.
FERMI_E1_TNEG1 = 1.0 / (math.exp(-1.0) + 1.0)   # 0.7310585786300049
BOSE_E1_T1 = 1.0 / (math.exp(1.0) - 1.0)        # 0.5819767068693265


def test_fermionic_negative_temperature_value():
    n = occupation(fermionic(-1.0), 1.0)
    assert n == pytest.approx(FERMI_E1_TNEG1, rel=1e-15)
    assert n == pytest.approx(0.731059, abs=1e-6)
    assert n > 0.5   # population inversion


def test_bosonic_unit_value():
    n = occupation(bosonic(1.0), 1.0)
    assert n == pytest.approx(BOSE_E1_T1, rel=1e-15)
    assert n == pytest.approx(0.581977, abs=1e-6)


def test_fermionic_zero_temperature_limits():
    assert occupation(fermionic(1e-6), 1.0) == pytest.approx(0.0, abs=1e-200)
    assert occupation(fermionic(-1e-6), 1.0) == pytest.approx(1.0, abs=1e-200)


def test_extreme_arguments_never_overflow():
    # |E/T| far past the exp overflow point must fall back to the limit.
    assert occupation(bosonic(1e-9), 1.0) == 0.0
    assert occupation(fermionic(1e-9), 1.0) == 0.0
    assert occupation(fermionic(-1e-9), 1.0) == 1.0


def test_bosonic_rejects_nonpositive_temperature():
    with pytest.raises(ReservoirError):
        bosonic(-1.0)
    with pytest.raises(ReservoirError):
        bosonic(0.0)
    with pytest.raises(ReservoirError):
        fermionic(0.0)


def test_occupation_rejects_bad_gap():
    with pytest.raises(ReservoirError):
        occupation(bosonic(1.0), 0.0)
    with pytest.raises(ReservoirError):
        occupation(bosonic(1.0), -2.0)


def test_occupation_rejects_an_underflowing_bosonic_ratio():
    # E/T = 1e-20 / 1e308 rounds to 0, where n = 1 / expm1(E/T) is unbounded
    with pytest.raises(ReservoirError, match="underflows"):
        occupation(bosonic(1e308), 1e-20)
    # a ratio that stays normal still gives n = T / E
    assert occupation(bosonic(1e300), 1e-7) == pytest.approx(1e307, rel=1e-12)


def test_rates_fermionic_from_occupation():
    down, up = lindblad_rates(fermionic(-1.0), 1.0, 1.0)
    assert down == pytest.approx(1.0 - FERMI_E1_TNEG1, rel=1e-14)
    assert up == pytest.approx(FERMI_E1_TNEG1, rel=1e-14)


def test_rates_bosonic_from_occupation():
    down, up = lindblad_rates(bosonic(1.0), 1.0, 1.0)
    assert down == pytest.approx(1.0 + BOSE_E1_T1, rel=1e-14)
    assert up == pytest.approx(BOSE_E1_T1, rel=1e-14)


def test_rates_zero_gamma():
    assert lindblad_rates(bosonic(3.0), 1.0, 0.0) == (0.0, 0.0)


def test_rates_sum_and_difference_invariants(rng):
    # Bosonic: down - up = gamma; fermionic: down + up = gamma.
    for _ in range(200):
        gap = rng.uniform(0.1, 6.0)
        gamma = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.05, 20.0)
        down, up = lindblad_rates(bosonic(t), gap, gamma)
        assert abs((down - up) - gamma) <= 1e-14 * max(1.0, down)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        down, up = lindblad_rates(fermionic(sign * t), gap, gamma)
        assert abs((down + up) - gamma) <= 1e-14 * max(1.0, gamma)


@pytest.mark.parametrize("spec", [
    bosonic(2.0),
    fermionic(2.0),
    fermionic(-2.0),
    ReservoirSpec(Statistics.BOSONIC, 2.0, occupation_override=0.3),
    ReservoirSpec(Statistics.FERMIONIC, 2.0, occupation_override=0.3),    # nominal T > 0
    ReservoirSpec(Statistics.FERMIONIC, -2.0, occupation_override=0.9),   # nominal T < 0
], ids=["bosonic", "fermionic+", "fermionic-", "bosonic-pinned", "fermionic-pinned+",
        "fermionic-pinned-"])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
def test_bath_rates_are_lindblad_rates(spec, gamma):
    # bath_rates takes the bath's log rate ratio, lindblad_rates its spec:
    # the same pair, which is gamma (1 +/- n) and gamma n for the occupation
    # of the spec to rounding, exactly 0 at gamma = 0.
    rates = bath_rates(spec.statistics, gamma, log_rate_ratio(spec, 1.5))
    assert rates == lindblad_rates(spec, 1.5, gamma)
    n = occupation(spec, 1.5)
    sign = 1.0 if spec.statistics is Statistics.BOSONIC else -1.0
    assert rates == pytest.approx((gamma * (1.0 + sign * n), gamma * n), rel=1e-15, abs=0.0)


def test_bath_rates_at_gamma_zero_skip_the_occupation_not_the_temperature():
    # E/T = 5e-324 / 1e300 underflows, so the occupation raises; a bath
    # switched off needs none. A temperature no bath can have still raises:
    # ReservoirSpec checks it, and sector_coefficients checks each hot T_h.
    with pytest.raises(ReservoirError, match="underflows"):
        occupation(bosonic(1e300), 5e-324)
    assert bath_rates(Statistics.BOSONIC, 0.0, -0.0) == (0.0, 0.0)
    assert lindblad_rates(bosonic(1e300), 5e-324, 0.0) == (0.0, 0.0)
    config = default_config(gammas=(1.0, 1.0, 0.0), hot_statistics="fermionic")
    for statistics, temperature in ((Statistics.BOSONIC, -1.0), (Statistics.FERMIONIC, 0.0),
                                    (Statistics.FERMIONIC, math.inf)):
        with pytest.raises(ReservoirError, match="temperature"):
            ReservoirSpec(statistics, temperature)
        if statistics is Statistics.FERMIONIC:
            errors = sector_coefficients(config, [temperature])[1]
            assert isinstance(errors[0], ReservoirError)
    # a pinned occupation is taken as it is, whatever the temperature
    pinned = ReservoirSpec(Statistics.BOSONIC, 1.0, occupation_override=0.5)
    assert lindblad_rates(pinned, 1.0, 2.0) == pytest.approx((3.0, 1.0), rel=1e-15)


def test_rates_of_a_tiny_ratio_keep_their_relative_precision():
    # Neither formula subtracts: at E/T = 40 the fermionic smaller rate and
    # the bosonic up-rate are exp(-40) / (1 + exp(-40)) and exp(-40) to the
    # last digits, on either side of the inversion.
    tiny = math.exp(-40.0)
    for t in (0.025, -0.025):
        down, up = lindblad_rates(fermionic(t), 1.0, 1.0)
        small, large = (down, up) if t < 0.0 else (up, down)
        assert small == pytest.approx(tiny / (1.0 + tiny), rel=4e-16)
        assert large == pytest.approx(1.0 / (1.0 + tiny), rel=4e-16)
    down, up = lindblad_rates(bosonic(0.025), 1.0, 1.0)
    assert (down, up) == pytest.approx((1.0 / (1.0 - tiny), tiny / (1.0 - tiny)), rel=4e-16)
    # a bosonic -E/T that underflows to 0 leaves the occupation unbounded
    with pytest.raises(ReservoirError, match="underflows"):
        lindblad_rates(bosonic(1e308), 1e-20, 1.0)


def test_rates_reject_negative_gamma():
    with pytest.raises(ReservoirError):
        lindblad_rates(bosonic(1.0), 1.0, -0.5)
    # nor is a bosonic down-rate past the largest float a rate
    with pytest.raises(ReservoirError, match="gamma_down must be finite"):
        bath_rates(Statistics.BOSONIC, 1e300, -1e-10)


def test_fermionic_symmetry_n_plus_n_mirror():
    for t in np.geomspace(0.01, 100.0, 1000):
        total = occupation(fermionic(t), 1.0) + occupation(fermionic(-t), 1.0)
        assert abs(total - 1.0) <= 1e-12


def test_fermionic_inversion_iff_negative_temperature():
    for t in np.geomspace(0.01, 100.0, 50):
        assert occupation(fermionic(t), 1.0) < 0.5
        assert occupation(fermionic(-t), 1.0) > 0.5


def test_bosonic_monotone_in_temperature():
    values = [occupation(bosonic(t), 1.0) for t in np.geomspace(0.05, 50.0, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fermionic_monotone_along_hotness_ordering():
    # Hotness ordering 0+ .. +inf .. -inf .. 0- maps to 1/T decreasing from
    # +inf to -inf; the occupation must increase monotonically along it.
    # |beta| stays below ~36 so that 1 - n remains resolvable in float64.
    betas = np.linspace(36.0, -36.0, 73)
    values = [occupation(fermionic(1.0 / b), 1.0) for b in betas if b != 0.0]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_temperature_round_trip(rng):
    for _ in range(200):
        gap = rng.uniform(0.2, 5.0)
        t = rng.uniform(0.05, 50.0)
        n_b = occupation(bosonic(t), gap)
        assert temperature_from_occupation("bosonic", gap, n_b) == pytest.approx(t, rel=1e-10)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        n_f = occupation(fermionic(sign * t), gap)
        assert temperature_from_occupation("fermionic", gap, n_f) == pytest.approx(
            sign * t, rel=1e-10)


def test_temperature_from_occupation_frozen_values():
    assert temperature_from_occupation("fermionic", 1.0, FERMI_E1_TNEG1) == pytest.approx(
        -1.0, rel=1e-12)
    assert temperature_from_occupation("bosonic", 1.0, BOSE_E1_T1) == pytest.approx(
        1.0, rel=1e-12)


def test_temperature_mirror_symmetry():
    # Swapping n -> 1 - n flips the sign of the fermionic temperature.
    for n in (0.1, 0.25, 0.4, 0.45):
        t = temperature_from_occupation("fermionic", 2.0, n)
        t_mirror = temperature_from_occupation("fermionic", 2.0, 1.0 - n)
        assert t_mirror == pytest.approx(-t, rel=1e-12)


def test_temperature_at_half_filling_is_infinite():
    with pytest.raises(InfiniteTemperatureError):
        temperature_from_occupation("fermionic", 1.0, 0.5)


def test_temperature_domain_errors():
    with pytest.raises(ReservoirError):
        temperature_from_occupation("fermionic", 1.0, 1.0)
    with pytest.raises(ReservoirError):
        temperature_from_occupation("bosonic", 1.0, 0.0)
    for gap in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ReservoirError, match="gap"):
            temperature_from_occupation("bosonic", gap, 0.5)


def test_saturated_reservoir_pins_occupation():
    spec = ReservoirSpec(Statistics.FERMIONIC, -0.1, Role.HOT, occupation_override=1.0 - 1e-15)
    assert occupation(spec, 4.0) == 1.0 - 1e-15
    assert occupation(spec, 0.5) == 1.0 - 1e-15   # pinned regardless of gap
    # the nominal temperature is kept as given, and no rate reads it
    assert spec.temperature == -0.1
    assert lindblad_rates(spec, 4.0, 1.0) == lindblad_rates(
        ReservoirSpec(Statistics.FERMIONIC, 7.0, Role.HOT, occupation_override=1.0 - 1e-15),
        4.0, 1.0)
    # ln(up/down) = ln(n / (1 + n)) of a pinned bosonic occupation, whatever the gap
    spec = ReservoirSpec(Statistics.BOSONIC, 1.0, Role.HOT, occupation_override=0.3)
    assert log_rate_ratio(spec, 4.0) == -math.log1p(1.0 / 0.3)
    assert log_rate_ratio(spec, 0.5) == pytest.approx(math.log(0.3 / 1.3), rel=1e-15)


def test_saturated_reservoir_validates_range():
    with pytest.raises(ReservoirError):
        ReservoirSpec(Statistics.FERMIONIC, 1.0, occupation_override=1.5)
    for n in (-0.2, math.inf, math.nan):
        with pytest.raises(ReservoirError):
            ReservoirSpec(Statistics.BOSONIC, 1.0, occupation_override=n)


def test_spec_serialization_round_trip():
    spec = ReservoirSpec(Statistics.FERMIONIC, -0.7, Role.HOT,
                         occupation_override=0.9)
    assert ReservoirSpec.from_dict(spec.to_dict()) == spec
