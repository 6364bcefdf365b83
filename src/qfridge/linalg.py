"""Dense complex linear algebra for small operator problems.

Everything in the simulator lives in tiny fixed-size spaces: 8x8 states and
stacks of 10x10 steady-state sector systems. Matrices are plain numpy arrays.
The linear solver is LAPACK's behind an explicit smallest-singular-value
check, so that near-singularity is reported (with the offending singular
value) instead of surfacing as a garbage solution.
"""

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for the numerical tolerances used everywhere,
    the test oracles' (the 64x64 solve and propagation) included, so that a
    run's sidecar records every bound its numbers were checked against."""

    singular_value: float = 1e-14        # smallest / largest singular value
    solve_residual: float = 1e-10        # relative, for ||a x - b||_inf
    trace_preservation: float = 1e-12    # |vec(I)^dag L|
    density_hermiticity: float = 1e-10
    density_trace: float = 1e-10
    density_min_eigenvalue: float = -1e-9
    population_sum: float = 1e-10        # |p_ground + p_excited - 1| of a qubit readout
    direct_asymmetry: float = 1e-9       # max |rho - rho^dag| of the 64x64 solution
    steady_residual_direct: float = 1e-10
    steady_residual_propagation: float = 1e-8
    propagation_trace_drift: float = 1e-8
    propagation_convergence: float = 1e-12   # ||drho/dt||_inf treated as stationary
    steady_coherence: float = 1e-6       # expected residual coherence of cooled qubit
    plateau_step: float = 1e-6           # successive-sample flatness for plateaus
    threshold_resolution: float = 1e-4   # bisection width on T_c
    infinite_temperature_band: float = 1e-12   # |p_ground - 1/2| treated as T = inf
    resonance: float = 1e-12             # |E3 - (E2 - E1)| treated as resonant
    calibration_relative: float = 0.05   # worst plateau error a calibration accepts
    sweep_failed_fraction: float = 0.1   # share of failed sweep points that fails sweep-th
    golden_relative: float = 1e-12       # reproduce outputs vs the committed goldens
    golden_absolute: float = 1e-12       # the same, for differences and near-zero columns


TOL = Tolerances()


class LinalgError(ValueError):
    """Base class for contract violations in this module."""


class SingularMatrixError(LinalgError):
    """Matrix is singular to working precision.

    Carries the smallest singular value and the largest (the scale) so
    callers can report how degenerate the system actually was.
    """

    def __init__(self, sigma_min, scale):
        self.sigma_min = sigma_min
        self.scale = scale
        super().__init__(
            f"matrix singular to working precision: smallest singular value "
            f"{sigma_min:.3e} below {TOL.singular_value:.0e} * {scale:.3e}"
        )


def as_matrix(a):
    """Coerce to a 2-D complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise LinalgError(f"expected a matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise LinalgError("empty matrix")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise LinalgError("matrix has non-finite entries")
    return m


def solve_linear(a, b):
    """Solve a stack of systems a x = b (real or complex), a (N, n, n) and
    b (N, n), by LAPACK plus one refinement pass.

    Each system is checked on its own: it fails with LinalgError when it has
    non-finite entries, with SingularMatrixError when its smallest singular
    value falls below TOL.singular_value times its largest, and with
    LinalgError unless ||a x - b||_inf <= TOL.solve_residual * (1 + ||b||_inf).
    Returns (x, errors): errors[i] is None or the exception system i failed
    with, and its row of x is NaN; the failure of one system leaves the
    others solved.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1] if a.ndim == 3 else 0
    if n == 0 or a.shape[1:] != (n, n) or b.shape != a.shape[:2]:
        raise LinalgError(f"cannot solve a {a.shape} system for a {b.shape} rhs")
    errors = [None] * len(a)
    excluded = ~(np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1))
    if excluded.any():
        for i in np.flatnonzero(excluded):
            errors[i] = LinalgError("system has non-finite entries")
        a, b = _excluding(a, b, excluded)
    sigma = np.linalg.svd(a, compute_uv=False)
    singular = (sigma[:, 0] == 0.0) | (sigma[:, -1] < TOL.singular_value * sigma[:, 0])
    if singular.any():
        for i in np.flatnonzero(singular & ~excluded):
            errors[i] = SingularMatrixError(float(sigma[i, -1]), float(sigma[i, 0]))
        excluded |= singular
        a, b = _excluding(a, b, excluded)
    b = b[..., None]
    x = np.linalg.solve(a, b)
    # One step of iterative refinement keeps the residual near machine level
    # even when the generator carries very large rates, and recovers the
    # relative accuracy of populations far below the largest ones.
    x += np.linalg.solve(a, b - a @ x)
    residual = np.abs(a @ x - b).max(axis=(1, 2))
    excluded |= residual > TOL.solve_residual * (1.0 + np.abs(b).max(axis=(1, 2)))
    x = x[..., 0]
    if excluded.any():
        for i in np.flatnonzero(excluded):
            if errors[i] is None:
                errors[i] = LinalgError(f"solve residual {residual[i]:.3e} exceeds tolerance")
        x[excluded] = np.nan
    return x, errors


def _excluding(a, b, excluded):
    """Copies of a stack with the excluded systems replaced by x = 0 under
    the identity, so that they cannot fail the stacked LAPACK calls."""
    a, b = a.copy(), b.copy()
    a[excluded] = np.eye(a.shape[-1])
    b[excluded] = 0.0
    return a, b
