"""Cooled-qubit readout and effective-temperature assignment.

A qubit with gap E whose reduced state has ground population p carries the
effective temperature

    T = E / ln(p / (1 - p)),

positive for p > 1/2, negative (population inverted) for p < 1/2. The two
singular cases, p = 1/2 and p in {0, 1}, are reported as named sentinels so
that downstream CSV emission never sees an infinity or a NaN.

The perfect-insulation limit's closed form is read from the bath specs, not
from a readout: see qfridge.analysis.insulation_limit.

Searches take T from temperature_from_population_ratio on qubit 1's summed
populations; a QubitReadout is built only for a single solve
(analysis.solve_for_readout) and by the test oracles.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .linalg import TOL


class TemperatureSentinel(Enum):
    INFINITE = "inf_temp"          # p_ground = 1/2: no finite temperature
    ZERO_FROM_ABOVE = "zero_temp+"  # p_ground = 1: T -> 0+
    ZERO_FROM_BELOW = "zero_temp-"  # p_ground = 0: fully inverted, T -> 0-


class ThermometryError(ValueError):
    pass


def effective_temperature(p_ground: float, gap: float):
    """Invert the Gibbs populations; returns a float or a TemperatureSentinel."""
    if not 0.0 <= p_ground <= 1.0:
        raise ThermometryError(f"p_ground must lie in [0, 1], got {p_ground}")
    return temperature_from_population_ratio(p_ground, 1.0 - p_ground, gap)


def temperature_from_population_ratio(p_ground: float, p_excited: float, gap: float):
    """T = E / ln(p_ground / p_excited), with the singular cases as sentinels.

    Taking both populations keeps full precision in the deeply cooled regime,
    where p_ground rounds to 1 but p_excited still carries ~16 digits.
    """
    if gap <= 0.0 or not math.isfinite(gap):
        raise ThermometryError(f"gap must be positive, got {gap}")
    if p_excited <= 0.0:
        return TemperatureSentinel.ZERO_FROM_ABOVE
    if p_ground <= 0.0:
        return TemperatureSentinel.ZERO_FROM_BELOW
    if abs(p_ground / (p_ground + p_excited) - 0.5) < TOL.infinite_temperature_band:
        return TemperatureSentinel.INFINITE
    ratio = p_ground / p_excited
    # a quotient past the largest float either way up puts the smaller
    # population below about 1e-308: T reads as 0 from that side
    if ratio == math.inf:
        return TemperatureSentinel.ZERO_FROM_ABOVE
    if p_excited / p_ground == math.inf:
        return TemperatureSentinel.ZERO_FROM_BELOW
    return gap / math.log(ratio)


def temperature_as_float(temperature):
    """Collapse sentinels onto their limiting values for arithmetic use.

    Zero-from-above maps to 0.0 (arbitrarily cold), infinite and
    zero-from-below (inverted) map to +inf on the hotness scale.
    """
    if isinstance(temperature, TemperatureSentinel):
        if temperature is TemperatureSentinel.ZERO_FROM_ABOVE:
            return 0.0
        return math.inf
    return float(temperature)


@dataclass(frozen=True)
class QubitReadout:
    """Populations and effective temperature of one qubit."""

    p_ground: float
    p_excited: float
    effective_temperature: object   # float or TemperatureSentinel

    def __post_init__(self):
        if abs(self.p_ground + self.p_excited - 1.0) > TOL.population_sum:
            raise ThermometryError(
                f"populations do not sum to 1: {self.p_ground} + {self.p_excited}"
            )
