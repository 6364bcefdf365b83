"""Test oracles: the 10x10 generator of the invariant sector, the full 64x64
Lindblad generator, its steady state by a constrained solve and by RK4
propagation, qubit 1's excited population in closed form, and the
partial-trace readout of an 8x8 state. Besides them,
the helpers only the tests use: the matrix input check, the pure, ground
and maximally mixed states, and solve_sectors.

None of this is on qfridge's production path, which solves the 8-state rate
chain the sector reduces to once its coherence is eliminated
(qfridge.steady_state.solve_coefficients). Here the sector generator is
built term by term from the sector coefficients, and the 64x64 generator is
assembled by Kronecker products from the Hamiltonians and the collapse
operators and solved by a constrained solve of its own, so a fault in the
production chain, its rates, its censoring or its closed-class count shows
up as a disagreement. From qfridge these oracles take the configuration,
the rates, the tolerances, the DensityMatrix checks, the readout record and
the exception types; they take no solve code.

Two helpers call the production solve on purpose. solve_sectors is
solve_coefficients(*sector_coefficients(...)), the stacked solve of one
machine's hot baths that the tests read rows of. The cooling threshold by
bisection checks the closed form of qfridge.analysis.cooling_threshold
against the production solves it replaced: it bisects on the sign of
analysis.best_case_t1 - T_c.

Basis conventions are qfridge.liouvillian's:

  * single qubit: |g> = index 0, |e> = index 1, sigma_z |e> = +|e>;
  * three qubits: qubit 1 is the most significant tensor factor, so the
    computational index of |q1 q2 q3> is 4 q1 + 2 q2 + q3 with g = 0, e = 1;
  * vectorization is column-stacking, vec(A rho B) = (B^T kron A) vec(rho).
"""

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from qfridge.analysis import BracketError, ThresholdMode, best_case_t1
from qfridge.linalg import TOL, LinalgError
from qfridge.liouvillian import (
    DIM,
    NUM_QUBITS,
    SECTOR_DIM,
    SECTOR_PAIR,
    ConfigError,
    DensityMatrix,
    DensityMatrixError,
    FridgeConfig,
    sector_coefficients,
)
from qfridge.reservoirs import ReservoirSpec, Statistics, lindblad_rates, occupation
from qfridge.steady_state import MultiplicityError, SteadyStateError, solve_coefficients
from qfridge.thermometry import (
    QubitReadout,
    ThermometryError,
    temperature_from_population_ratio,
)

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |g><e|
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)    # |e><g|


def max_abs(a):
    """Largest entry magnitude; the infinity-scale used by the tolerances."""
    return float(np.max(np.abs(a)))


def dagger(a):
    return a.conj().T


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


def kron(a, b):
    """Kronecker product, entry ((i*rb + k), (j*cb + l)) = a[i, j] * b[k, l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def pure_state(amplitudes) -> DensityMatrix:
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def ground_state(dim=DIM) -> DensityMatrix:
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def maximally_mixed(dim=DIM) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


# --- the 64x64 generator -------------------------------------------------


def embed(op, qubit_index):
    """Lift a single-qubit operator onto the 3-qubit space (qubit 1 = MSB)."""
    if qubit_index not in (1, 2, 3):
        raise ConfigError(f"qubit index must be 1..3, got {qubit_index}")
    factors = [IDENTITY_2, IDENTITY_2, IDENTITY_2]
    factors[qubit_index - 1] = op
    return kron(kron(factors[0], factors[1]), factors[2])


def free_hamiltonian(config: FridgeConfig):
    """H0 = sum_k (E_k / 2) sigma_z,k. Diagonal in the computational basis."""
    h = np.zeros((DIM, DIM), dtype=complex)
    for k, gap in enumerate(config.gaps, start=1):
        h += 0.5 * gap * embed(SIGMA_Z, k)
    return h


def interaction_hamiltonian(config: FridgeConfig):
    """H_int = g (s-_1 s+_2 s-_3 + s+_1 s-_2 s+_3).

    Exactly two nonzero entries: the |e1 g2 e3> <-> |g1 e2 g3> exchange.
    """
    lower = embed(SIGMA_MINUS, 1) @ embed(SIGMA_PLUS, 2) @ embed(SIGMA_MINUS, 3)
    return config.coupling * (lower + dagger(lower))


@dataclass(frozen=True)
class Liouvillian:
    """Vectorized generator: d vec(rho)/dt = matrix @ vec(rho)."""

    matrix: np.ndarray
    dim: int
    config_hash: str

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.dim ** 2, self.dim ** 2):
            raise LinalgError(f"expected a {self.dim ** 2}-square generator, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        defect = max_abs(_trace_row(self.dim) @ m)
        scale = max(1.0, max_abs(m))
        if defect > TOL.trace_preservation * scale:
            raise ConfigError(
                f"generator is not trace preserving: defect {defect:.3e}"
            )


def _trace_row(dim):
    """vec(I)^T for column stacking: ones at positions j*dim + j."""
    row = np.zeros(dim * dim, dtype=complex)
    row[:: dim + 1] = 1.0
    return row


def _dissipator(collapse, rate):
    """Vectorized (rate/2) (2 c rho c^dag - {c^dag c, rho})."""
    dim = collapse.shape[0]
    eye = np.eye(dim, dtype=complex)
    cdc = dagger(collapse) @ collapse
    return 0.5 * rate * (
        2.0 * kron(collapse.conj(), collapse)
        - kron(eye, cdc)
        - kron(cdc.T, eye)
    )


def _unitary_part(hamiltonian):
    dim = hamiltonian.shape[0]
    eye = np.eye(dim, dtype=complex)
    return -1j * (kron(eye, hamiltonian) - kron(hamiltonian.T, eye))


def build_liouvillian(config: FridgeConfig) -> Liouvillian:
    """Assemble the 64x64 generator from the Hamiltonians and six dissipators."""
    h = free_hamiltonian(config) + interaction_hamiltonian(config)
    generator = _unitary_part(h)
    for k in range(1, NUM_QUBITS + 1):
        gap = config.gaps[k - 1]
        gamma = config.gammas[k - 1]
        if gamma == 0.0:
            continue
        down, up = lindblad_rates(config.reservoirs[k - 1], gap, gamma)
        generator += _dissipator(embed(SIGMA_MINUS, k), down)
        generator += _dissipator(embed(SIGMA_PLUS, k), up)
    return Liouvillian(matrix=generator, dim=DIM, config_hash=config.config_hash())


def qubit_liouvillian(gap, gamma_down, gamma_up):
    """Single-qubit generator (4x4), the small sanity case for the dissipators."""
    h = 0.5 * gap * SIGMA_Z
    generator = _unitary_part(h)
    generator += _dissipator(SIGMA_MINUS, gamma_down)
    generator += _dissipator(SIGMA_PLUS, gamma_up)
    return Liouvillian(matrix=generator, dim=2, config_hash="single-qubit")


# --- the sector, one machine at a time --------------------------------------


def _sector_terms():
    """Sector generator per unit coefficient, one row per coefficient:
    (down_k, up_k) for k = 1..3, then g, then the detuning E1 - E2 + E3.

    Populations follow the Pauli rate equation: each qubit flips on its own,
    down when excited and up when ground. The coherence c = rho[2, 5] obeys
    dc/dt = -i(-delta c + g (p5 - p2)) - (Gamma_2 + Gamma_5) c / 2, with
    Gamma_i the total out-rate of state i, and feeds back through
    dp2/dt = -dp5/dt = -2 g Im c.
    """
    terms = np.zeros((2 * NUM_QUBITS + 2, SECTOR_DIM, SECTOR_DIM))
    low, high = SECTOR_PAIR
    re, im = DIM, DIM + 1
    for k in range(NUM_QUBITS):
        bit = 1 << (NUM_QUBITS - 1 - k)       # qubit 1 is the most significant
        for state in range(DIM):
            term = terms[2 * k] if state & bit else terms[2 * k + 1]
            term[state ^ bit, state] += 1.0
            term[state, state] -= 1.0
            if state in SECTOR_PAIR:
                term[re, re] -= 0.5
                term[im, im] -= 0.5
    coupling, detuning = terms[2 * NUM_QUBITS], terms[2 * NUM_QUBITS + 1]
    coupling[im, high] -= 1.0
    coupling[im, low] += 1.0
    coupling[low, im] -= 2.0
    coupling[high, im] += 2.0
    detuning[re, im] -= 1.0
    detuning[im, re] += 1.0
    return terms.reshape(len(terms), -1)


_SECTOR_TERMS = _sector_terms()


def sector_generator(config: FridgeConfig) -> np.ndarray:
    """Real SECTOR_DIM x SECTOR_DIM generator, linear in the six rates, g and
    the detuning: d x/dt = sector_generator(config) @ x on the coordinates
    (p_0 .. p_7, Re rho[2, 5], Im rho[2, 5])."""
    coefficients, errors = sector_coefficients(config)
    if errors[0] is not None:
        raise errors[0]
    return (coefficients[0] @ _SECTOR_TERMS).reshape(SECTOR_DIM, SECTOR_DIM)


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


def solve_sectors(config: FridgeConfig, hot_temperatures=None):
    """Steady states of config with its hot bath at each of hot_temperatures
    (default: its own hot bath; see sector_coefficients), as one stacked
    solve: solve_coefficients' SectorSolutions, a row whose rates raise
    carrying that error."""
    return solve_coefficients(*sector_coefficients(config, hot_temperatures))


def sector_states(x):
    """Density matrices (N, DIM, DIM) of sector coordinates x (N, SECTOR_DIM)."""
    return (np.asarray(x) @ _SECTOR_EMBEDDING).reshape(-1, DIM, DIM)


# --- closed-form thermal states ---------------------------------------------


def thermal_qubit(spec: ReservoirSpec, gap: float) -> DensityMatrix:
    """Fixed point of a single qubit damped by the given reservoir.

    Detailed balance p_e / p_g = up / down = exp(-E/T) holds for both
    statistics, so this is the Gibbs state at the reservoir temperature
    (population inverted when T < 0). Both populations are evaluated through
    decaying exponentials so neither loses precision near saturation.
    """
    n = occupation(spec, gap)
    if spec.statistics is Statistics.FERMIONIC:
        p_excited = n
        if spec.occupation_override is None:
            # mirror symmetry: p_ground = 1 - n(T) = n(-T), cancellation free
            p_ground = occupation(replace(spec, temperature=-spec.temperature), gap)
        else:
            p_ground = 1.0 - n
    else:
        p_excited = n / (1.0 + 2.0 * n)
        p_ground = (1.0 + n) / (1.0 + 2.0 * n)
    return DensityMatrix(np.diag([p_ground, p_excited]).astype(complex))


def thermal_product(config: FridgeConfig) -> DensityMatrix:
    """Product of the three per-qubit thermal states (the g = 0 steady state)."""
    m = np.eye(1, dtype=complex)
    for spec, gap in zip(config.reservoirs, config.gaps):
        m = kron(m, thermal_qubit(spec, gap).matrix)
    return DensityMatrix(m)


def closed_form_excited_population(config: FridgeConfig) -> float:
    """Qubit 1's excited population p_e1 at the steady state, in closed form,
    from config's sector coefficient row; no solve and no mpmath.

    The populations are the law of three independent qubit chains plus the
    exchange edge |g e g> <-> |e g e> (states 2 and 5) of rate
    kappa = Gamma (g/h)^2, as in solve_coefficients. With qubit k's
    Gamma_k = down_k + up_k and law pi_k = (down_k, up_k) / Gamma_k, the
    uncoupled chain's deviation matrix is the sum over nonempty qubit sets S
    of P_S / sum_{k in S} Gamma_k, P_S the tensor product of I - 1 pi_k for
    k in S and 1 pi_k otherwise. The exchange carries the flux

        F = kappa (pi5 - pi2) / (1 + kappa d),
        d = sum_S (P_S[5, 5] + P_S[2, 2] - P_S[5, 2] - P_S[2, 5]) / sum_{k in S} Gamma_k,

    pi2 and pi5 being the product laws of the two states, and of the sets S
    only {1} moves qubit 1: p_e1 = pi_e1 - F / Gamma_1. The last step
    subtracts, so this keeps small relative error only where p_e1 is not far
    below pi_e1; every Gamma_k must be positive.
    """
    coefficients, (error,) = sector_coefficients(config)
    if error is not None:
        raise error
    *rates, coupling, detuning = coefficients[0].tolist()
    pairs = list(zip(rates[0::2], rates[1::2]))
    gammas = [down + up for down, up in pairs]
    laws = [(down / total, up / total) for (down, up), total in zip(pairs, gammas)]
    kappa = sum(gammas) * (coupling / math.hypot(sum(gammas) / 2.0, detuning)) ** 2
    five, two = (1, 0, 1), (0, 1, 0)     # |e g e> and |g e g>, qubit by qubit

    def entry(subset, x, y):             # P_S[x, y]
        return math.prod((a == b) - law[b] if k in subset else law[b]
                         for k, (law, a, b) in enumerate(zip(laws, x, y)))

    d = sum((entry(s, five, five) + entry(s, two, two) - entry(s, five, two)
             - entry(s, two, five)) / sum(gammas[k] for k in s)
            for size in (1, 2, 3) for s in itertools.combinations(range(3), size))
    pi5, pi2 = entry((), five, five), entry((), two, two)    # P_{} = 1 pi
    flux = kappa * (pi5 - pi2) / (1.0 + kappa * d)
    return laws[0][1] - flux / gammas[0]


# --- steady states of the 64x64 generator -----------------------------------


class PropagationError(RuntimeError):
    """Time integration violated its accuracy or stability contract."""


class Solver(Enum):
    DIRECT = "direct"
    PROPAGATION = "propagation"


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix
    residual: float
    solver: Solver

    def __post_init__(self):
        limit = (TOL.steady_residual_direct if self.solver is Solver.DIRECT
                 else TOL.steady_residual_propagation)
        if self.residual > limit:
            raise SteadyStateError(
                f"steady-state residual {self.residual:.3e} exceeds {limit:.0e} "
                f"for solver {self.solver.value}"
            )


def _vec(rho):
    return rho.reshape(-1, order="F")


def _unvec(x, dim):
    return x.reshape((dim, dim), order="F")


def solve_direct(liouvillian: Liouvillian,
                 constraint_row: int | None = None) -> SteadyStateResult:
    """Steady state by constrained solve of the full vectorized generator.

    The null-space equation L x = 0, scaled by max(1, max |L|), is made
    square by overwriting one population row with the trace functional and
    setting that entry of the right-hand side to 1. By default that is the
    population row with the smallest diagonal magnitude, the least
    informative equation; constraint_row picks it explicitly, to test that
    the choice is immaterial. Only population rows qualify: they are the
    support of the trace functional, and sacrificing a coherence equation
    would leave that coherence undetermined.

    A smallest singular value below TOL.singular_value times the largest
    means a degenerate stationary manifold (MultiplicityError). Otherwise the
    system is solved by LAPACK plus one refinement pass, and its residual,
    the state's Hermiticity before symmetrization and the DensityMatrix
    invariants are checked.
    """
    dim = liouvillian.dim
    generator = liouvillian.matrix
    populations = np.arange(0, dim * dim, dim + 1)
    if constraint_row is None:
        row = int(populations[np.abs(generator.diagonal()[populations]).argmin()])
    else:
        row = int(constraint_row)
        if row not in populations:
            raise SteadyStateError(
                f"constraint row {row} is not a population position"
            )
    system = generator / max(1.0, max_abs(generator))
    system[row] = _trace_row(dim)
    rhs = np.zeros(dim * dim)
    rhs[row] = 1.0
    sigma = np.linalg.svd(system, compute_uv=False)
    if sigma[-1] < TOL.singular_value * sigma[0]:
        raise MultiplicityError(
            "constrained steady-state system is singular; the generator has a "
            f"degenerate stationary manifold (smallest singular value {sigma[-1]:.3e})"
        )
    x = np.linalg.solve(system, rhs)
    x += np.linalg.solve(system, rhs - system @ x)
    solve_residual = max_abs(system @ x - rhs)
    if solve_residual > TOL.solve_residual * 2.0:
        raise SteadyStateError(f"solve residual {solve_residual:.3e} exceeds tolerance")
    rho_raw = _unvec(x, dim)
    asymmetry = max_abs(rho_raw - dagger(rho_raw))
    if asymmetry > TOL.direct_asymmetry:
        raise SteadyStateError(
            f"solution asymmetry {asymmetry:.3e} before symmetrization"
        )
    rho = (rho_raw + dagger(rho_raw)) / 2.0
    try:
        state = DensityMatrix(rho)
    except DensityMatrixError as exc:
        raise SteadyStateError(f"direct solve produced an invalid state: {exc}") from exc
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
    """The state RK4 reaches from rho0 (ground state by default) after at
    least t_final.

    On a linear generator one RK4 step of size h is the matrix
    P = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so 2^m steps are P squared
    m times: with h the step propagate takes by default, m squarings reach
    2^m h >= t_final. The trace is checked as in propagate and renormalized
    only at output. Shares nothing with the solves beyond the generator.
    """
    if t_final < 0.0:
        raise PropagationError(f"t_final must be >= 0, got {t_final}")
    if rho0 is None:
        rho0 = ground_state(liouvillian.dim)
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


# --- readout of an 8x8 state ------------------------------------------------


def reduced_qubit_state(state: DensityMatrix, qubit_index: int) -> np.ndarray:
    """Partial trace down to one qubit (2x2), qubit 1 being the MSB factor."""
    if qubit_index not in (1, 2, 3):
        raise ThermometryError(f"qubit index must be 1..3, got {qubit_index}")
    if state.matrix.shape[0] != 8:
        raise ThermometryError(f"expected a three-qubit state, got dim {state.matrix.shape[0]}")
    tensor = state.matrix.reshape(2, 2, 2, 2, 2, 2)
    axes = [0, 1, 2]
    axes.remove(qubit_index - 1)
    # Trace the two unwanted qubits; row/column axes are offset by 3.
    reduced = np.trace(tensor, axis1=axes[1], axis2=axes[1] + 3)
    reduced = np.trace(reduced, axis1=axes[0], axis2=axes[0] + 2)
    return reduced


def read_qubit(state: DensityMatrix, qubit_index: int, gap: float) -> QubitReadout:
    reduced = reduced_qubit_state(state, qubit_index)
    p_ground = max(float(reduced[0, 0].real), 0.0)
    p_excited = max(float(reduced[1, 1].real), 0.0)
    return QubitReadout(p_ground, p_excited,
                        temperature_from_population_ratio(p_ground, p_excited, gap))


def coherence_is_negligible(state: DensityMatrix, qubit_index: int) -> bool:
    """Whether the reduced state is diagonal enough for Gibbs thermometry:
    its off-diagonal entries are within TOL.steady_coherence."""
    reduced = reduced_qubit_state(state, qubit_index)
    return max_abs(reduced - np.diag(np.diagonal(reduced))) <= TOL.steady_coherence


# --- the cooling threshold by bisection -------------------------------------

THRESHOLD_BRACKET = (1e-3, 5.0)


def threshold_bracket(config: FridgeConfig, direction, mode=ThresholdMode.PLATEAU):
    """Final bracket (lo, hi) of the bisection on the sign of the best-case
    T1 - T_c over THRESHOLD_BRACKET, down to a width of
    TOL.threshold_resolution: T1 - T_c is >= 0 at lo and < 0 at hi, and hi
    is the threshold the bisection returns. An inverted qubit 1 (T1 < 0) is
    hotter than any T_c, so it ranks +inf. Raises BracketError when the
    bracket's ends show no sign change."""
    def objective(tc):
        t1 = best_case_t1(config.with_cold_temperature(tc), direction, mode)
        return (math.inf if t1 < 0.0 else t1) - tc

    lo, hi = THRESHOLD_BRACKET
    f_lo, f_hi = objective(lo), objective(hi)
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise BracketError(
            f"no sign change on T_c bracket {THRESHOLD_BRACKET}: "
            f"objective({lo}) = {f_lo:.3e}, objective({hi}) = {f_hi:.3e}"
        )
    while hi - lo > TOL.threshold_resolution:
        mid = 0.5 * (lo + hi)
        if objective(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi
