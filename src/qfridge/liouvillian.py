"""Three-qubit refrigerator model and its Lindblad generator on the sector.

Basis conventions (fixed here once, used everywhere):

  * single qubit: |g> = index 0, |e> = index 1, sigma_z |e> = +|e>;
  * three qubits: qubit 1 is the most significant tensor factor, so the
    computational index of |q1 q2 q3> is 4 q1 + 2 q2 + q3 with g = 0, e = 1.

The machine: qubit 1 (gap E1, cold bath) is the target of the cooling, qubit 2
(gap E2, room bath) dumps the absorbed energy, qubit 3 (gap E3, hot bath)
drives the cycle. The three-body interaction g(s-_1 s+_2 s-_3 + h.c.) couples
|e1 g2 e3> with |g1 e2 g3>, which is resonant when E3 = E2 - E1. Each qubit
carries one decay and one excitation dissipator with rates induced by its
reservoir.

The generator maps the populations plus the single coherence H_int creates,
rho[2, 5] between |g1 e2 g3> and |e1 g2 e3>, onto themselves, and every other
coherence decays to zero. So the steady state lives in this 10-dimensional
sector, fixed by the six rates, g and the detuning: sector_coefficients
gives them for a stack of machines at once, and qfridge.steady_state solves
the sector from them. Its generator and the full 64x64 generator are test
oracles (tests/oracles.py).
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import TOL, LinalgError
from .reservoirs import ReservoirSpec, Role, lindblad_rates, log_rate_ratio, thermal_rates

NUM_QUBITS = 3
DIM = 2 ** NUM_QUBITS
# The coherent pair |g1 e2 g3>, |e1 g2 e3>: the only states H_int connects.
SECTOR_PAIR = (2, 5)
# Sector coordinates: the DIM populations, then Re and Im of rho[SECTOR_PAIR].
SECTOR_DIM = DIM + 2


class ConfigError(ValueError):
    """Invalid refrigerator configuration."""


class DensityMatrixError(ValueError):
    """Matrix fails the density-matrix invariants."""


def _numbers(name, values):
    """values as a tuple of floats, or the ConfigError of what is not one."""
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}") from exc


@dataclass(frozen=True)
class FridgeConfig:
    """Full parameter set: gaps, dissipation rates, reservoirs, coupling."""

    gaps: tuple
    gammas: tuple
    reservoirs: tuple
    coupling: float

    def __post_init__(self):
        gaps = _numbers("energy gaps", self.gaps)
        gammas = _numbers("dissipation rates", self.gammas)
        if len(gaps) != 3 or len(gammas) != 3 or len(self.reservoirs) != 3:
            raise ConfigError("need exactly three gaps, gammas and reservoirs")
        if any(not math.isfinite(e) or e <= 0.0 for e in gaps):
            raise ConfigError(f"energy gaps must be positive, got {gaps}")
        if not math.isfinite(gaps[0] - gaps[1] + gaps[2]):    # a coefficient row's detuning
            raise ConfigError(f"detuning E1 - E2 + E3 must be finite, got gaps {gaps}")
        if any(not math.isfinite(g) or g < 0.0 for g in gammas):
            raise ConfigError(f"dissipation rates must be >= 0, got {gammas}")
        if not all(isinstance(r, ReservoirSpec) for r in self.reservoirs):
            raise ConfigError("reservoirs must be ReservoirSpec instances")
        # g = 0 is allowed deliberately: the decoupled machine is the
        # reference point for the thermal fixed-point checks.
        try:
            valid = math.isfinite(self.coupling) and self.coupling >= 0.0
        except TypeError as exc:
            raise ConfigError(f"coupling must be a number, got {self.coupling!r}") from exc
        if not valid:
            raise ConfigError(f"coupling must be >= 0, got {self.coupling}")
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "reservoirs", tuple(self.reservoirs))
        object.__setattr__(self, "coupling", float(self.coupling))

    @property
    def resonant(self):
        """Whether E3 = E2 - E1 holds, the positive-temperature working point."""
        e1, e2, e3 = self.gaps
        return abs(e3 - (e2 - e1)) <= TOL.resonance

    @property
    def cold_temperature(self):
        """T_c; for a pinned cold bath the one its rates hold, -E1 / ln(up/down)."""
        cold = self.reservoirs[0]
        if cold.occupation_override is None:
            return cold.temperature
        ratio = log_rate_ratio(cold, self.gaps[0])
        return -self.gaps[0] / ratio if ratio else math.inf    # n = 1/2: infinitely hot

    def with_hot_temperature(self, temperature):
        hot = replace(self.reservoirs[2], temperature=temperature,
                      occupation_override=None)
        return replace(self, reservoirs=(self.reservoirs[0], self.reservoirs[1], hot))

    def with_cold_temperature(self, temperature):
        cold = replace(self.reservoirs[0], temperature=temperature,
                       occupation_override=None)
        return replace(self, reservoirs=(cold, self.reservoirs[1], self.reservoirs[2]))

    def with_hot_reservoir(self, reservoir):
        return replace(self, reservoirs=(self.reservoirs[0], self.reservoirs[1], reservoir))

    def with_gamma1(self, gamma1):
        return replace(self, gammas=(gamma1, self.gammas[1], self.gammas[2]))

    def to_dict(self):
        return {
            "gaps": list(self.gaps),
            "gammas": list(self.gammas),
            "coupling": self.coupling,
            "reservoirs": [r.to_dict() for r in self.reservoirs],
        }

    @classmethod
    def from_dict(cls, d):
        try:
            reservoirs = tuple(ReservoirSpec.from_dict(r) for r in d["reservoirs"])
            return cls(
                gaps=d["gaps"],
                gammas=d["gammas"],
                reservoirs=reservoirs,
                coupling=d["coupling"],
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
        except TypeError as exc:    # a document, or a reservoir in it, not a JSON object
            raise ConfigError(f"malformed config: {exc}") from exc

    def config_hash(self):
        # imported here: hashlib loads OpenSSL, which nothing else needs
        import hashlib

        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(payload.encode()).hexdigest()[:12]


def default_config(tc=1.0, tr=2.0, th=10.0, coupling=1.0,
                   gaps=(1.0, 5.0, 4.0), gammas=(1.0, 1.0, 1.0),
                   hot_statistics="bosonic"):
    """Reference operating point: resonant gaps (1, 5, 4), unit rates."""
    return FridgeConfig(
        gaps=gaps,
        gammas=gammas,
        reservoirs=(
            ReservoirSpec("bosonic", tc, Role.COLD),
            ReservoirSpec("bosonic", tr, Role.ROOM),
            ReservoirSpec(hot_statistics, th, Role.HOT),
        ),
        coupling=coupling,
    )


def sector_coefficients(config: FridgeConfig, hot_temperatures=None):
    """Coefficient rows (N, 8) of the sector generator: (down_k, up_k) for
    k = 1..3, g, the detuning. There is one row per hot-bath temperature in
    hot_temperatures, the hot bath keeping the statistics of config's, and
    config supplies everything else. Without them, the one row is config's
    own hot bath, pinned or not.

    The cold and room rates are evaluated once, by lindblad_rates, and each
    row's hot pair by thermal_rates at its T_h, or by lindblad_rates for
    config's own hot bath. Returns (coefficients, errors): errors[i] is None
    or the ValueError row i's rates raised, its own hot-bath error first,
    then the cold or room rates' error that every row shares; that row is
    NaN.
    """
    hot = config.reservoirs[2]
    points = [None] if hot_temperatures is None else hot_temperatures
    (e1, e2, e3), statistics, gamma = config.gaps, hot.statistics, config.gammas[2]
    n_points = len(points)
    errors, hot_rates = [None] * n_points, [None] * n_points
    # math.exp and math.expm1 per point: numpy's differ from them in the
    # last bit on some arguments
    for i, temperature in enumerate(points):
        try:
            hot_rates[i] = (lindblad_rates(hot, e3, gamma) if temperature is None
                            else thermal_rates(statistics, gamma, e3, temperature))
        except ValueError as exc:
            errors[i] = exc
    base = []
    try:
        for k in range(NUM_QUBITS - 1):
            base += lindblad_rates(config.reservoirs[k], config.gaps[k], config.gammas[k])
    except ValueError as exc:
        errors = [error or exc for error in errors]
    tail, width = (config.coupling, e1 - e2 + e3), 2 * NUM_QUBITS + 2
    # reshaped so that no points give the empty stack (0, width)
    coefficients = np.array([(np.nan,) * width if error else (*base, *pair, *tail)
                             for error, pair in zip(errors, hot_rates)]).reshape(n_points, width)
    return coefficients, errors


def density_matrix_errors(matrices):
    """Per matrix of a stack (N, d, d), None or the error DensityMatrix raises
    for it: LinalgError for non-finite entries, else DensityMatrixError for
    the first of Hermiticity, unit trace and the smallest eigenvalue that
    misses its TOL bound."""
    m = np.asarray(matrices, dtype=complex)
    adjoint = m.conj().transpose(0, 2, 1)
    # An entry that is not finite makes its row's Hermiticity defect inf or NaN.
    hermiticity = np.abs(m - adjoint).max(axis=(1, 2))
    finite = np.isfinite(hermiticity)
    symmetric = (m + adjoint) / 2.0
    if not finite.all():
        symmetric[~finite] = np.eye(m.shape[-1])
    smallest = np.linalg.eigvalsh(symmetric)[:, 0]
    trace_error = np.abs(m.trace(axis1=1, axis2=2) - 1.0)
    failures = _state_errors(finite, hermiticity, trace_error, smallest)
    return [failures.get(i) for i in range(len(m))]


def _sector_state_errors(x):
    """{row: error} for the rows of sector coordinates x (N, SECTOR_DIM)
    whose density matrix fails the invariants of density_matrix_errors,
    checked in closed form without building the matrix. An infinite
    population makes numpy report an invalid value under the caller's
    np.errstate.

    The state is Hermitian by construction of the real coordinates. Its
    trace is the sum of the populations. Its eigenvalues are the
    populations outside SECTOR_PAIR and the two of the pair's 2x2 block
    [[p2, c], [conj(c), p5]], the smaller being
    (p2 + p5)/2 - sqrt(((p2 - p5)/2)^2 + |c|^2), which is at most p2 and p5:
    so the smallest eigenvalue is the smaller of it and every population.
    """
    populations = x[:, :DIM]
    low, high = x[:, SECTOR_PAIR[0]], x[:, SECTOR_PAIR[1]]
    pair_smallest = (low + high) / 2.0 - np.hypot((low - high) / 2.0,
                                                  np.hypot(x[:, DIM], x[:, DIM + 1]))
    trace_error = np.abs(np.add.reduce(populations, axis=1) - 1.0)
    smallest = np.minimum(np.minimum.reduce(populations, axis=1), pair_smallest)
    if np.logical_and.reduce((trace_error <= TOL.density_trace)
                             & (smallest >= TOL.density_min_eigenvalue)):
        return {}
    return _state_errors(np.isfinite(x).all(axis=1), np.zeros(len(x)), trace_error, smallest)


def _state_errors(finite, hermiticity, trace_error, smallest):
    """{row: error} for the rows that miss an invariant: LinalgError for
    non-finite entries, else DensityMatrixError for the first of
    Hermiticity, unit trace and the smallest eigenvalue that misses its TOL
    bound."""
    passed = (finite & (hermiticity <= TOL.density_hermiticity)
              & (trace_error <= TOL.density_trace)
              & (smallest >= TOL.density_min_eigenvalue))
    if passed.all():
        return {}
    errors = {}
    for i in np.flatnonzero(~passed).tolist():
        if not finite[i]:
            errors[i] = LinalgError("matrix has non-finite entries")
        elif hermiticity[i] > TOL.density_hermiticity:
            errors[i] = DensityMatrixError(
                f"state deviates from Hermiticity by {hermiticity[i]:.3e}")
        elif trace_error[i] > TOL.density_trace:
            errors[i] = DensityMatrixError(
                f"trace deviates from 1 by {trace_error[i]:.3e}")
        else:
            errors[i] = DensityMatrixError(
                f"state is not positive semidefinite: min eigenvalue {smallest[i]:.3e}")
    return errors


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.size == 0:
            raise LinalgError(f"expected a non-empty matrix, got shape {m.shape}")
        if m.shape[0] != m.shape[1]:
            raise DensityMatrixError(f"state must be square, got {m.shape}")
        with np.errstate(invalid="ignore"):    # inf - inf of an infinite entry
            error = density_matrix_errors(m[None])[0]
        if error is not None:
            raise error
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
