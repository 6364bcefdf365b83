"""Steady states of the refrigerator.

Three routes to the same object:

  * solve_sectors, the production path, solves the 10-dimensional invariant
    sector (populations plus the coherent pair, see sector_generator) for a
    stack of hot baths under one machine at once;
  * solve_direct solves the full 64x64 vectorized generator;
  * propagate integrates d vec(rho)/dt = L vec(rho) with classic fixed-step
    RK4 until the state stops moving; steady_state_by_propagation takes the
    same RK4 steps in bulk, by squaring their one-step propagator.

Both solves replace one population row of their generator with the trace
functional and solve the resulting nonsingular system exactly. The 64x64
solve and the propagation are oracles for the sector solve; propagation
shares nothing with the solves beyond the 64x64 generator itself.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import TOL, SingularMatrixError, dagger, max_abs, solve_linear
from .liouvillian import (
    DIM,
    SECTOR_DIM,
    SECTOR_PAIR,
    DensityMatrix,
    DensityMatrixError,
    FridgeConfig,
    Liouvillian,
    _trace_row,
    sector_coefficients,
    sector_generators,
    sector_state_errors,
)


class SteadyStateError(RuntimeError):
    """Direct solve failed to produce a valid state."""


class MultiplicityError(SteadyStateError):
    """The steady-state manifold has dimension > 1 (constrained system singular).

    Possible when the machine decouples, e.g. g = 0 with some gamma_k = 0.
    """


class PropagationError(RuntimeError):
    """Time integration violated its accuracy or stability contract."""


class Solver(Enum):
    DIRECT = "direct"
    PROPAGATION = "propagation"


def _residual_error(residual, solver):
    """None, or the SteadyStateError of a residual beyond the solver's bound."""
    limit = (TOL.steady_residual_direct if solver is Solver.DIRECT
             else TOL.steady_residual_propagation)
    if residual > limit:
        return SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {limit:.0e} "
            f"for solver {solver.value}"
        )
    return None


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix
    residual: float
    solver: Solver

    def __post_init__(self):
        error = _residual_error(self.residual, self.solver)
        if error is not None:
            raise error


@dataclass(frozen=True)
class SectorSolutions:
    """Steady states of a stack of machines, row by row (see solve_sectors)."""

    coordinates: np.ndarray  # (N, SECTOR_DIM), validated where errors[i] is None
    residuals: np.ndarray    # (N,) drift residuals, NaN where the solve failed
    errors: list             # per row, None or the exception its solve raised

    @property
    def states(self):
        """The rows as density matrices (N, DIM, DIM)."""
        return _sector_states(self.coordinates)


def _vec(rho):
    return rho.reshape(-1, order="F")


def _unvec(x, dim):
    return x.reshape((dim, dim), order="F")


def _solve_constrained(generators, population_rows, trace_row, constraint_row=None):
    """Stationary x of each generator in a stack (N, n, n), with
    trace_row @ x = 1. Returns (x, errors) as solve_linear does, a singular
    system reported as MultiplicityError.

    The null-space equation L x = 0 is made square by overwriting one
    population row of L (the one with the smallest diagonal magnitude, i.e.
    the least informative equation) with the trace functional and setting
    that entry of the right-hand side to 1. Only population rows qualify:
    they are the support of the trace functional, and sacrificing a coherence
    equation instead would leave that coherence undetermined. At generic
    parameters the result is independent of which population row is replaced.
    Each system is scaled by max(1, max |L|) first.
    """
    systems = np.arange(len(generators))
    magnitudes = np.abs(generators)
    scale = np.maximum(magnitudes.max(axis=(1, 2)), 1.0)
    constrained = generators / scale[:, None, None]
    if constraint_row is None:
        diagonal = magnitudes.diagonal(axis1=1, axis2=2)[:, population_rows]
        rows = population_rows[diagonal.argmin(axis=1)]
    else:
        row = int(constraint_row)
        if row not in population_rows:
            raise SteadyStateError(
                f"constraint row {row} is not a population position"
            )
        rows = np.full(len(systems), row)
    constrained[systems, rows, :] = trace_row
    rhs = np.zeros((len(systems), len(trace_row)))
    rhs[systems, rows] = 1.0
    x, errors = solve_linear(constrained, rhs)
    return x, [_multiplicity(exc) if isinstance(exc, SingularMatrixError) else exc
               for exc in errors]


def _multiplicity(exc):
    error = MultiplicityError(
        "constrained steady-state system is singular; the generator has a "
        f"degenerate stationary manifold (smallest singular value "
        f"{exc.sigma_min:.3e})"
    )
    error.__cause__ = exc
    return error


def _invalid_state(exc):
    """A DensityMatrixError of a solved state as the solve's SteadyStateError."""
    if not isinstance(exc, DensityMatrixError):
        return exc
    error = SteadyStateError(f"direct solve produced an invalid state: {exc}")
    error.__cause__ = exc
    return error


_SECTOR_POPULATIONS = np.arange(DIM)
_SECTOR_TRACE_ROW = np.concatenate([np.ones(DIM), np.zeros(2)])


def _sector_embedding():
    """(SECTOR_DIM, DIM * DIM) map from sector coordinates to the row-major
    entries of the density matrix; every entry it produces is one coordinate
    (or i times one), so the product is exact."""
    embedding = np.zeros((SECTOR_DIM, DIM, DIM), dtype=complex)
    embedding[np.arange(DIM), np.arange(DIM), np.arange(DIM)] = 1.0
    low, high = SECTOR_PAIR
    embedding[DIM, low, high] = embedding[DIM, high, low] = 1.0
    embedding[DIM + 1, low, high], embedding[DIM + 1, high, low] = 1j, -1j
    return embedding.reshape(SECTOR_DIM, DIM * DIM)


_SECTOR_EMBEDDING = _sector_embedding()


def _sector_states(x):
    """Density matrices (N, DIM, DIM) of sector coordinates x (N, SECTOR_DIM)."""
    return (x @ _SECTOR_EMBEDDING).reshape(-1, DIM, DIM)


def solve_sectors(config: FridgeConfig, hot_reservoirs=None) -> SectorSolutions:
    """Steady states of config with its hot reservoir replaced by each of
    hot_reservoirs in turn (default: its own), as one stacked sector solve.

    Every row is checked on its own, in this order: its rates, the
    constrained solve, the state invariants (those DensityMatrix checks, in
    closed form by sector_state_errors) and the drift residual. A row that
    fails one carries that exception in errors and leaves the other rows
    solved.
    """
    coefficients, rate_errors = sector_coefficients(config, hot_reservoirs)
    generators = sector_generators(coefficients)
    x, solve_errors = _solve_constrained(generators, _SECTOR_POPULATIONS,
                                         _SECTOR_TRACE_ROW)
    drift = (generators @ x[..., None])[..., 0]
    # |d rho[2, 5]/dt| counts as one entry, as in the 64x64 residual
    residuals = np.maximum(np.abs(drift[:, :DIM]).max(axis=1),
                           np.hypot(drift[:, DIM], drift[:, DIM + 1]))
    errors = [rates or solve for rates, solve in zip(rate_errors, solve_errors)]
    for i, invalid in sector_state_errors(x).items():
        errors[i] = errors[i] or _invalid_state(invalid)
    for i in np.nonzero(residuals > TOL.steady_residual_direct)[0].tolist():
        errors[i] = errors[i] or _residual_error(float(residuals[i]), Solver.DIRECT)
    return SectorSolutions(coordinates=x, residuals=residuals, errors=errors)


def solve_direct(liouvillian: Liouvillian,
                 constraint_row: int | None = None) -> SteadyStateResult:
    """Steady state by constrained solve of the full vectorized generator.

    The oracle for solve_sectors. The trace functional replaces a population
    row (see _solve_constrained); constraint_row picks it explicitly, to test
    that the choice is immaterial.
    """
    dim = liouvillian.dim
    generator = liouvillian.matrix
    x, errors = _solve_constrained(generator[None], np.arange(0, dim * dim, dim + 1),
                                   _trace_row(dim), constraint_row)
    if errors[0] is not None:
        raise errors[0]
    rho_raw = _unvec(x[0], dim)
    asymmetry = max_abs(rho_raw - dagger(rho_raw))
    if asymmetry > TOL.direct_asymmetry:
        raise SteadyStateError(
            f"solution asymmetry {asymmetry:.3e} before symmetrization"
        )
    rho = (rho_raw + dagger(rho_raw)) / 2.0
    try:
        state = DensityMatrix(rho)
    except DensityMatrixError as exc:
        raise _invalid_state(exc) from exc
    return SteadyStateResult(state=state, residual=max_abs(generator @ _vec(rho)),
                             solver=Solver.DIRECT)


def _norm_inf_rows(matrix):
    """Matrix infinity norm (max absolute row sum), the RK4 stability scale."""
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def default_time_step(liouvillian: Liouvillian) -> float:
    """dt = min(1e-3, 0.1 / ||L||_inf), a comfortable RK4 stability margin."""
    return min(1e-3, 0.1 / max(_norm_inf_rows(liouvillian.matrix), 1e-30))


def propagate(liouvillian: Liouvillian, rho0: DensityMatrix, t_final: float,
              dt: float | None = None, stop_when_stationary: bool = True) -> DensityMatrix:
    """Classic one-step 4th-order integration of d vec(rho)/dt = L vec(rho).

    Stops early once the state moves by less than TOL.propagation_convergence
    per unit time. The trace is monitored throughout (drift beyond
    TOL.propagation_trace_drift aborts) and renormalized only at output.
    """
    if t_final < 0.0:
        raise PropagationError(f"t_final must be >= 0, got {t_final}")
    generator = liouvillian.matrix
    stability_limit = 0.1 / max(_norm_inf_rows(generator), 1e-30)
    if dt is None:
        dt = default_time_step(liouvillian)
    elif dt <= 0.0 or dt > stability_limit:
        raise PropagationError(
            f"dt = {dt} outside the stable range (0, {stability_limit:.3e}]"
        )
    if t_final == 0.0:
        return rho0

    x = _vec(np.array(rho0.matrix))
    steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / steps
    check_interval = max(1, min(200, steps // 50 or 1))
    previous = x.copy()
    for step in range(steps):
        k1 = generator @ x
        k2 = generator @ (x + 0.5 * dt * k1)
        k3 = generator @ (x + 0.5 * dt * k2)
        k4 = generator @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % check_interval == 0 or step == steps - 1:
            if not np.all(np.isfinite(x.view(float))):
                raise PropagationError("state became non-finite during propagation")
            trace = _trace_row(liouvillian.dim) @ x
            if abs(trace - 1.0) > TOL.propagation_trace_drift:
                raise PropagationError(
                    f"trace drifted by {abs(trace - 1.0):.3e}; reduce dt"
                )
            if stop_when_stationary:
                rate = max_abs(x - previous) / (check_interval * dt)
                if rate <= TOL.propagation_convergence:
                    break
                previous = x.copy()

    # No symmetrization here: the generator preserves Hermiticity and the
    # DensityMatrix invariants must hold on the raw integrated state.
    rho = _unvec(x, liouvillian.dim)
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho)


def steady_state_by_propagation(liouvillian: Liouvillian,
                                rho0: DensityMatrix | None = None,
                                t_final: float = 400.0) -> SteadyStateResult:
    """Oracle route: the state RK4 reaches from rho0 (ground state by
    default) after at least t_final.

    On a linear generator one RK4 step of size h is the matrix
    P = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so 2^m steps are P squared
    m times: with h the step propagate takes by default, m squarings reach
    2^m h >= t_final. The trace is checked as in propagate and renormalized
    only at output.
    """
    if t_final < 0.0:
        raise PropagationError(f"t_final must be >= 0, got {t_final}")
    if rho0 is None:
        rho0 = DensityMatrix.ground_state(liouvillian.dim)
    generator = liouvillian.matrix
    h = default_time_step(liouvillian)
    hl = h * generator
    identity = np.eye(len(generator))
    step = identity + hl @ (identity + hl @ (identity + hl @ (identity + hl / 4.0) / 3.0) / 2.0)
    for _ in range(math.ceil(math.log2(max(t_final / h, 1.0)))):
        step = step @ step
    x = step @ _vec(rho0.matrix)
    if not np.all(np.isfinite(x.view(float))):
        raise PropagationError("state became non-finite during propagation")
    drift = abs(_trace_row(liouvillian.dim) @ x - 1.0)
    if drift > TOL.propagation_trace_drift:
        raise PropagationError(f"trace drifted by {drift:.3e}")
    rho = _unvec(x, liouvillian.dim)
    state = DensityMatrix(rho / np.trace(rho).real)
    residual = max_abs(generator @ _vec(state.matrix))
    return SteadyStateResult(state=state, residual=residual, solver=Solver.PROPAGATION)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) sum |eigenvalues| of a - b."""
    difference = a.matrix - b.matrix
    eigenvalues = np.linalg.eigvalsh((difference + dagger(difference)) / 2.0)
    return 0.5 * float(np.sum(np.abs(eigenvalues)))
