"""Reservoir statistics and the Lindblad rates they induce.

Natural units throughout: k_B = 1, hbar = 1. A reservoir is characterized by
its statistics and temperature. The mean excitation at a qubit gap E is

    bosonic:    n = 1 / (exp(E/T) - 1),   T > 0
    fermionic:  n = 1 / (exp(E/T) + 1),   any T != 0

A fermionic reservoir with n > 1/2 is population inverted, which is exactly
the regime described by a negative temperature. Bosonic occupations cannot
invert, so negative T is rejected for them. The induced Lindblad rates are

    down = gamma * (1 + n)   bosonic      up = gamma * n
    down = gamma * (1 - n)   fermionic

bath_rates is the one place they are formed, and log_rate_ratio gives
their ln(up/down) from the bath's numbers, not from the rounded rates.
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


# Beyond this, exp(E/T) is evaluated through its limit instead of directly.
_EXP_ARG_LIMIT = 700.0


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
            if self.statistics is Statistics.BOSONIC and n < 0.0:
                raise ReservoirError(f"bosonic occupation must be >= 0, got {n}")
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
    occupation, or thermal_occupation at the spec's temperature."""
    if gap <= 0.0 or not math.isfinite(gap):
        raise ReservoirError(f"gap must be positive and finite, got {gap}")
    if spec.occupation_override is not None:
        return spec.occupation_override
    return thermal_occupation(spec.statistics, gap, spec.temperature)


def thermal_occupation(statistics: Statistics, gap: float, temperature: float) -> float:
    """Mean excitation at a gap E > 0 of a bath at a valid temperature (see
    check_temperature).

    Uses exp-of-negative forms so that sweeps probing T -> 0 on either side
    never overflow: large |E/T| collapses smoothly onto the physical limit.
    """
    x = gap / temperature
    if statistics is Statistics.BOSONIC:
        if x > _EXP_ARG_LIMIT:
            return math.exp(-x)               # n -> exp(-E/T) as T -> 0+
        if x == 0.0:
            raise ReservoirError(
                f"E/T = {gap}/{temperature} underflows to 0: the bosonic "
                "occupation is unbounded"
            )
        return 1.0 / math.expm1(x)
    # Fermionic: logistic evaluated through the decaying exponential on both
    # signs of T; underflow lands exactly on the physical limit (0 or 1).
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    e = math.exp(x)
    return 1.0 / (1.0 + e)


def bath_rates(statistics, gap, gamma, temperature, occupation=None):
    """(down, up) = (gamma (1 +/- n), gamma n) a bath induces on a qubit of
    the given gap: n is the pinned occupation, else thermal_occupation at
    the temperature, checked first (check_temperature). Both are 0 at
    gamma = 0, with no n. Raises ReservoirError on a rate that is not finite
    or is negative."""
    if occupation is None:
        check_temperature(statistics, temperature)
    if gamma == 0.0:
        return 0.0, 0.0
    n = thermal_occupation(statistics, gap, temperature) if occupation is None else occupation
    down = gamma * (1.0 + n) if statistics is Statistics.BOSONIC else gamma * (1.0 - n)
    up = gamma * n
    if not (0.0 <= down < math.inf and 0.0 <= up < math.inf):     # or NaN
        name, value = ("gamma_up", up) if 0.0 <= down < math.inf else ("gamma_down", down)
        raise ReservoirError(f"{name} must be finite and >= 0, got {value}")
    return down, up


def lindblad_rates(spec: ReservoirSpec, gap: float, gamma: float) -> tuple[float, float]:
    """The (down, up) rates spec induces on a qubit (see bath_rates)."""
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ReservoirError(f"dissipation rate must be finite and >= 0, got {gamma}")
    if gap <= 0.0 or not math.isfinite(gap):
        raise ReservoirError(f"gap must be positive and finite, got {gap}")
    return bath_rates(spec.statistics, gap, gamma, spec.temperature, spec.occupation_override)


def log_rate_ratio(spec: ReservoirSpec, gap: float) -> float:
    """ln(up/down) of the rates spec induces on a qubit of the given gap,
    from its temperature or pinned occupation n, never from the rounded
    rates: -E/T for a thermal bath of either statistics, -log1p(1/n) for a
    bosonic and log(n) - log1p(-n) for a fermionic occupation."""
    n = spec.occupation_override
    if n is None:
        return -gap / spec.temperature
    if n == 0.0:
        return -math.inf
    if spec.statistics is Statistics.BOSONIC:
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
        return gap / math.log((1.0 - n) / n)
    if n <= 0.0:
        raise ReservoirError(f"bosonic occupation must be positive, got {n}")
    return gap / math.log1p(1.0 / n)
