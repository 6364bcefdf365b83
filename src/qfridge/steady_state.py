"""Steady states of the refrigerator.

solve_sectors solves the 10-dimensional invariant sector (populations plus
the coherent pair, see qfridge.liouvillian) for a stack of hot baths under
one machine at once. It replaces one population row of each generator with
the trace functional and solves the resulting nonsingular system exactly.
The full 64x64 generator, its own constrained solve and an RK4 propagation
route are the test oracles it is checked against (tests/oracles.py).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import TOL, SingularMatrixError, solve_linear
from .liouvillian import (
    DIM,
    DensityMatrixError,
    FridgeConfig,
    sector_coefficients,
    sector_generators,
    sector_state_errors,
)


class SteadyStateError(RuntimeError):
    """The steady-state solve failed to produce a valid state."""


class MultiplicityError(SteadyStateError):
    """The steady-state manifold has dimension > 1 (constrained system singular).

    Possible when the machine decouples, e.g. g = 0 with some gamma_k = 0.
    """


@dataclass(frozen=True)
class SectorSolutions:
    """Steady states of a stack of machines, row by row (see solve_sectors)."""

    coordinates: np.ndarray  # (N, SECTOR_DIM), validated where errors[i] is None
    residuals: np.ndarray    # (N,) drift residuals, NaN where the solve failed
    errors: list             # per row, None or the exception its solve raised


# The trace functional on sector coordinates: the sum of the populations.
_TRACE_ROW = np.concatenate([np.ones(DIM), np.zeros(2)])


def _solve_constrained(generators):
    """Stationary x of each sector generator in a stack (N, SECTOR_DIM,
    SECTOR_DIM), with populations summing to 1. Returns (x, errors) as
    solve_linear does, a singular system reported as MultiplicityError.

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
    rows = magnitudes.diagonal(axis1=1, axis2=2)[:, :DIM].argmin(axis=1)
    constrained[systems, rows, :] = _TRACE_ROW
    rhs = np.zeros((len(systems), len(_TRACE_ROW)))
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
    x, solve_errors = _solve_constrained(generators)
    drift = (generators @ x[..., None])[..., 0]
    # |d rho[2, 5]/dt| counts as one entry, as in the residual of vec(rho)
    residuals = np.maximum(np.abs(drift[:, :DIM]).max(axis=1),
                           np.hypot(drift[:, DIM], drift[:, DIM + 1]))
    errors = [rates or solve for rates, solve in zip(rate_errors, solve_errors)]
    for i, invalid in sector_state_errors(x).items():
        errors[i] = errors[i] or _invalid_state(invalid)
    for i in np.nonzero(residuals > TOL.steady_residual_direct)[0].tolist():
        errors[i] = errors[i] or SteadyStateError(
            f"steady-state residual {residuals[i]:.3e} exceeds "
            f"{TOL.steady_residual_direct:.0e} for solver direct")
    return SectorSolutions(coordinates=x, residuals=residuals, errors=errors)
