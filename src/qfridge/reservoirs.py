"""Reservoir statistics and the Lindblad rates they induce.

Natural units throughout: k_B = 1, hbar = 1. A reservoir is characterized by
its statistics and temperature. The mean excitation at a qubit gap E is

    bosonic:    n = 1 / (exp(E/T) - 1),   T > 0
    fermionic:  n = 1 / (exp(E/T) + 1),   any T != 0

A fermionic reservoir with n > 1/2 is population inverted, which is exactly
the regime described by a negative temperature. Bosonic occupations cannot
invert, so negative T is rejected for them.

A bath induces a decay rate down and an excitation rate up on a qubit, and
all it sets of them is their log ratio L = ln(up/down) (log_rate_ratio):
-E/T for a thermal bath of either statistics, or read from a pinned
occupation. The identities up + down = gamma (fermionic) and
down - up = gamma (bosonic) then give the pair without a subtraction:

    fermionic:  e = exp(-|L|), rates gamma/(1 + e) and gamma e/(1 + e),
                the larger one up when L > 0
    bosonic:    down = gamma / -expm1(L),   up = down exp(L)

bath_rates is the one place they are formed, so a rate keeps its relative
precision until it leaves the float range, and every closed form that reads
L reads the number the rates hold; thermal_rates feeds it a bath's -E/T.
"""

import math
from dataclasses import dataclass
from enum import Enum


class Statistics(str, Enum):
    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"


class Role(str, Enum):
    COLD = "cold"
    ROOM = "room"
    HOT = "hot"


class ReservoirError(ValueError):
    """Invalid reservoir specification or occupation request."""


class InfiniteTemperatureError(ReservoirError):
    """Occupation sits exactly at the fermionic inversion point n = 1/2."""


@dataclass(frozen=True)
class ReservoirSpec:
    """Bath statistics plus temperature (and optionally a pinned occupation).

    occupation_override bypasses the temperature when evaluating occupations;
    it exists so that saturated limits (n -> 0 or n -> 1) can be represented
    exactly instead of through an extreme temperature. The temperature of a
    pinned bath is nominal: no rate reads it.
    """

    statistics: Statistics
    temperature: float
    role: Role = Role.COLD
    occupation_override: float | None = None

    def __post_init__(self):
        try:
            statistics, role = Statistics(self.statistics), Role(self.role)
            t = float(self.temperature)
            n = None if self.occupation_override is None else float(self.occupation_override)
        except (TypeError, ValueError) as exc:
            raise ReservoirError(f"invalid reservoir field: {exc}") from exc
        object.__setattr__(self, "statistics", statistics)
        object.__setattr__(self, "role", role)
        check_temperature(statistics, t)
        object.__setattr__(self, "temperature", t)
        if n is not None:
            if self.statistics is Statistics.FERMIONIC and not 0.0 <= n <= 1.0:
                raise ReservoirError(f"fermionic occupation must lie in [0, 1], got {n}")
            if self.statistics is Statistics.BOSONIC and not 0.0 <= n < math.inf:
                raise ReservoirError(f"bosonic occupation must be finite and >= 0, got {n}")
            object.__setattr__(self, "occupation_override", n)

    def to_dict(self):
        d = {
            "statistics": self.statistics.value,
            "temperature": self.temperature,
            "role": self.role.value,
        }
        if self.occupation_override is not None:
            d["occupation_override"] = self.occupation_override
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            statistics=d["statistics"],
            temperature=d["temperature"],
            role=d.get("role", Role.COLD),
            occupation_override=d.get("occupation_override"),
        )


def check_temperature(statistics: Statistics, temperature: float):
    """Raise the ReservoirError of a temperature no bath of these statistics
    can have: not finite, 0, or negative for a bosonic bath."""
    if not math.isfinite(temperature) or temperature == 0.0:
        raise ReservoirError(f"temperature must be finite and nonzero, got {temperature}")
    if statistics is Statistics.BOSONIC and temperature < 0.0:
        raise ReservoirError(
            "bosonic reservoirs cannot be population inverted: negative "
            f"temperature {temperature} is invalid"
        )


def occupation(spec: ReservoirSpec, gap: float) -> float:
    """Mean reservoir excitation at the given energy gap: the pinned
    occupation, or the up-rate the bath induces at gamma = 1."""
    up = lindblad_rates(spec, gap, 1.0)[1]
    return up if spec.occupation_override is None else spec.occupation_override


def bath_rates(statistics, gamma, log_ratio):
    """(down, up) a bath of these statistics induces at gamma on a qubit
    where ln(up/down) = log_ratio, which is < 0 for a bosonic bath (see the
    module docstring). Both are 0 at gamma = 0, whatever log_ratio. Raises
    ReservoirError on a rate past the largest float."""
    if gamma == 0.0:
        return 0.0, 0.0
    if statistics is Statistics.FERMIONIC:
        e = math.exp(-abs(log_ratio))
        large, small = gamma / (1.0 + e), gamma * (e / (1.0 + e))
        return (small, large) if log_ratio > 0.0 else (large, small)
    down = gamma / -math.expm1(log_ratio)
    if not down < math.inf:
        raise ReservoirError(f"gamma_down must be finite, got {down}")
    return down, down * math.exp(log_ratio)


def thermal_rates(statistics, gamma, gap, temperature):
    """bath_rates at ln(up/down) = -E/T, after check_temperature and, at
    gamma > 0, a check that a bosonic E/T did not underflow to 0."""
    check_temperature(statistics, temperature)
    ratio = -gap / temperature
    if gamma and ratio == 0.0 and statistics is Statistics.BOSONIC:
        raise ReservoirError(f"E/T = {gap}/{temperature} underflows to 0: the bosonic "
                             "occupation is unbounded")
    return bath_rates(statistics, gamma, ratio)


def lindblad_rates(spec: ReservoirSpec, gap: float, gamma: float) -> tuple[float, float]:
    """The (down, up) rates spec induces on a qubit: thermal_rates at its
    temperature, or bath_rates at its pinned occupation's log_rate_ratio."""
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ReservoirError(f"dissipation rate must be finite and >= 0, got {gamma}")
    if gap <= 0.0 or not math.isfinite(gap):
        raise ReservoirError(f"gap must be positive and finite, got {gap}")
    if spec.occupation_override is None:
        return thermal_rates(spec.statistics, gamma, gap, spec.temperature)
    return bath_rates(spec.statistics, gamma, log_rate_ratio(spec, gap))


def log_rate_ratio(spec: ReservoirSpec, gap: float) -> float:
    """ln(up/down) of the rates spec induces on a qubit of the given gap:
    -E/T for a thermal bath of either statistics, else that of its pinned
    occupation (_occupation_log_ratio)."""
    if spec.occupation_override is None:
        return -gap / spec.temperature
    return _occupation_log_ratio(spec.statistics, spec.occupation_override)


def _occupation_log_ratio(statistics, n: float) -> float:
    """ln(up/down) at occupation n: -log1p(1/n) bosonic,
    log(n) - log1p(-n) fermionic; -inf at n = 0, inf at a fermionic n = 1."""
    if n == 0.0:
        return -math.inf
    if statistics is Statistics.BOSONIC:
        return -math.log1p(1.0 / n)
    return math.log(n) - math.log1p(-n) if n < 1.0 else math.inf


def temperature_from_occupation(statistics, gap: float, n: float) -> float:
    """Invert the occupation formulas; diagnostic and test oracle.

    Fermionic n > 1/2 maps to a negative temperature (population inversion);
    n = 1/2 has no finite-temperature description.
    """
    statistics = Statistics(statistics)
    if gap <= 0.0 or not math.isfinite(gap):
        raise ReservoirError(f"gap must be positive and finite, got {gap}")
    if statistics is Statistics.FERMIONIC:
        if not 0.0 < n < 1.0:
            raise ReservoirError(f"fermionic occupation must lie in (0, 1), got {n}")
        if n == 0.5:
            raise InfiniteTemperatureError("n = 1/2 corresponds to infinite temperature")
    elif n <= 0.0:
        raise ReservoirError(f"bosonic occupation must be positive, got {n}")
    return -gap / _occupation_log_ratio(statistics, n)
