"""The tolerances every check is made against, and the error of a matrix
input that is no finite matrix.

The package solves no linear system: its steady states come from a rate
chain, solved by the Markov chain tree theorem on the four states of one
parity after the other four are censored (qfridge.steady_state).
"""

from dataclasses import dataclass

@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for the numerical tolerances used everywhere,
    the test oracles' (the 64x64 solve, propagation, the threshold
    bisection) included, so that a run's sidecar records every bound its
    numbers were checked against."""

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
    threshold_resolution: float = 1e-4   # T_c width of the oracle's threshold bisection
    infinite_temperature_band: float = 1e-12   # |p_ground - 1/2| treated as T = inf
    resonance: float = 1e-12             # |E3 - (E2 - E1)| treated as resonant
    calibration_relative: float = 0.05   # worst plateau error a calibration accepts
    sweep_failed_fraction: float = 0.1   # share of failed sweep points that fails sweep-th
    golden_relative: float = 1e-12       # reproduce outputs vs the committed goldens
    golden_absolute: float = 1e-12       # the same, for differences and near-zero columns


TOL = Tolerances()


class LinalgError(ValueError):
    """A matrix input that is not 2-D, is empty or has entries that are
    not finite."""
