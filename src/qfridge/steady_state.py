"""Steady states of the refrigerator.

The coherence c = rho[2, 5] of the pair |g1 e2 g3>, |e1 g2 e3> obeys
dc/dt = -i(-delta c + g (p5 - p2)) - (Gamma/2) c, with Gamma the pair's
summed out-rate and delta = E1 - E2 + E3, and feeds the populations through
dp2/dt = -dp5/dt = -2 g Im c. At the steady state, with h = hypot(Gamma/2,
delta), Re c = -g delta (p2 - p5) / h^2 and Im c = g (Gamma/2) (p2 - p5) / h^2,
so the populations are the stationary law of an 8-state Markov chain: the
Pauli rates plus one symmetric edge 2 <-> 5 of rate kappa = Gamma (g/h)^2.
solve_coefficients censors the chain's four odd states and finds the law of
the four even ones as a sum over their spanning trees (the Markov chain tree
theorem), with each row scaled by exact powers of two. Like the elimination
of Grassmann, Taksar and Heyman (Oper. Res. 33, 1107 (1985)), the sum makes
no subtraction, so each probability comes out to small relative error
(O'Cinneide, Numer. Math. 65, 109 (1993)). GTH elimination remains for the
closed class of a chain that is not irreducible. The sector generator and
the 64x64 oracles it is checked against live in tests/oracles.py.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import TOL
from .liouvillian import (
    DIM,
    NUM_QUBITS,
    SECTOR_DIM,
    SECTOR_PAIR,
    DensityMatrixError,
    FridgeConfig,
    sector_coefficients,
    sector_state_errors,
)


class SteadyStateError(RuntimeError):
    """The steady-state solve failed to produce a valid state."""


class MultiplicityError(SteadyStateError):
    """The steady state is not unique: the rate chain has two or more closed
    classes, e.g. when g = 0 with some gamma_k = 0, or every rate is 0."""


@dataclass(frozen=True)
class SectorSolutions:
    """Steady states of a stack of machines, row by row (see solve_sectors)."""

    coordinates: np.ndarray  # (N, SECTOR_DIM), validated where errors[i] is None
    residuals: np.ndarray    # (N,) balance defects, NaN where the solve failed
    errors: list             # per row, None or the exception its solve raised


# Every edge of the chain flips the parity of the number of excitations, the
# exchange 2 <-> 5 included. Chain positions hold the even states first:
# _ORDER[i] is the basis state at position i.
_ORDER = np.array(sorted(range(DIM), key=lambda state: bin(state).count("1") % 2))
_EVEN = DIM // 2
_POSITION = np.argsort(_ORDER)
_LOW, _HIGH = (int(_POSITION[state]) for state in SECTOR_PAIR)
# Each qubit flip (down, rate column 2k, when excited; up, 2k + 1, when
# ground) as source and target chain positions; qubit 1 is the top bit.
_SOURCE, _TARGET, _RATE = (np.array(column) for column in zip(*[
    (_POSITION[state], _POSITION[state ^ bit], 2 * k + (not state & bit))
    for k, bit in enumerate((4, 2, 1)) for state in range(DIM)]))


def _in_trees(n):
    """Index table (edge, tree, root) of the spanning trees of n states
    directed to each root: entry [e, t, r] is the flat index n i + j of the
    e-th edge i -> j of root r's t-th tree, which leaves the e-th state other
    than r. Each root has n^(n-2) trees (Cayley)."""
    table = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        trees = []
        for parents in itertools.product(range(n), repeat=n - 1):
            step = [*parents[:root], root, *parents[root:]]
            ends = step
            for _ in range(n - 2):
                ends = [step[i] for i in ends]
            if ends == [root] * n:     # every state reaches root: no cycle
                trees.append([n * i + step[i] for i in others])
        table.append(trees)
    return np.array(table).transpose(2, 1, 0)


_TREES = _in_trees(_EVEN)
# The exponent a zero rate is given, so that no tree through it sets a row's
# scale; three of them still fit an int32.
_ZERO_EXPONENT = np.int32(-(1 << 28))


def _tree_weights(censored):
    """Stationary weights (N, 4) of a stack of 4-state rate matrices
    (N, 4, 4), censored[:, i, j] the rate from i to j: each row is its
    stationary law times a factor in [2^-9, 1). By the Markov chain tree
    theorem (Leighton and Rivest, IEEE Trans. Inf. Theory 32, 733 (1986)),
    state r weighs the sum over the spanning trees directed to r of the
    product of their rates. The diagonal is not read.

    The sum makes no subtraction, so each probability has small relative
    error, as by GTH elimination. Each rate is split by frexp into a
    mantissa and a power of two, so no product under- or overflows, and
    each row's products are scaled by powers of two (ldexp, exact unless
    the result is subnormal) that put the row's sum in [2^-9, 1). Reductions run over the outer (edge,
    tree) axes, whose order does not depend on N, so a row solves bit for
    bit as on its own. A row with two or more closed classes has no tree of
    nonzero rates: its weights are all 0. With one, the states outside it
    weigh exactly 0.
    """
    n = len(censored)
    mantissas, exponents = np.frexp(censored.reshape(n, _EVEN * _EVEN).T)
    np.copyto(exponents, _ZERO_EXPONENT, where=mantissas == 0.0)
    # take, unlike fancy indexing, returns C order even for n = 1
    products = np.multiply.reduce(mantissas.take(_TREES, axis=0), axis=0)
    scales = np.add.reduce(exponents.take(_TREES, axis=0), axis=0, dtype=np.int32)
    # 2^-6 below the largest product, which is < 1: the 4 x 16 products sum
    # to < 1, so the odd step's inflow stays below the largest rate
    scales -= np.maximum.reduce(scales.reshape(_TREES[0].size, n), axis=0) + 6
    return np.add.reduce(np.ldexp(products, scales), axis=0).T


def _eliminate(generators):
    """Stationary laws (N, n) of a stack of rate matrices (N, n, n) by GTH
    elimination, which solves the closed class of _solve_reducible;
    generators[:, i, j] is the rate from i to j, and the diagonal is not
    read. A row that is not irreducible meets a zero pivot, which makes its
    law NaN, unless only the last pivot is 0 and the row has one closed
    class: then its law is still exact."""
    q = generators.copy()
    n = q.shape[-1]
    for k in range(n - 1, 0, -1):
        # Censor state k: its rates to the lower states sum to its pivot,
        # kept on the diagonal; divided by it they become the law of where
        # it goes, and every path through it becomes a direct rate.
        row = q[:, k:k + 1, :k]
        pivot = q[:, k:k + 1, k:k + 1]
        np.add.reduce(row, axis=2, out=pivot, keepdims=True)
        if k > 1:     # below, state 0 is left alone: nothing to update
            row /= pivot
            block = q[:, :k, :k]
            block += q[:, :k, k:k + 1] * row
    law = np.ones(q.shape[:2])
    for k in range(1, n):
        # law[:, :k] sums to 1, and state k's odds against those states are
        # their inflow to it over its pivot
        inflow = np.add.reduce(law[:, :k] * q[:, :k, k], axis=1, keepdims=True)
        pivot = q[:, k:k + 1, k]
        total = inflow + pivot
        head = law[:, :k]
        head *= pivot / total
        np.divide(inflow, total, out=law[:, k:k + 1])
    return law


def _solve_reducible(generator):
    """Stationary law of one chain (n, n) that is not irreducible, from which
    of its rates are exactly zero: the GTH law on its closed class and 0
    elsewhere. Raises MultiplicityError when it has two or more closed
    classes."""
    # a NaN rate is the exchange of a coupled pair with Gamma = delta = 0
    reach = (generator > 0.0) | np.isnan(generator) | np.eye(len(generator), dtype=bool)
    for _ in range(len(generator).bit_length()):
        reach = reach @ reach
    closed = np.unique(reach[(reach <= reach.T).all(axis=1)], axis=0)
    if len(closed) > 1:
        raise MultiplicityError(
            f"the rate chain has {len(closed)} closed classes: the steady state "
            "is not unique")
    members = np.flatnonzero(closed[0])
    law = np.zeros(len(generator))
    law[members] = _eliminate(generator[np.ix_(members, members)][None])[0]
    return law


def _invalid_state(exc):
    """A DensityMatrixError of a solved state as the solve's SteadyStateError."""
    if not isinstance(exc, DensityMatrixError):
        return exc
    error = SteadyStateError(f"direct solve produced an invalid state: {exc}")
    error.__cause__ = exc
    return error


def solve_coefficients(coefficients) -> SectorSolutions:
    """Steady states of a stack of sector_coefficients rows, which may come
    from different machines. The chain's odd states lead only to even ones,
    so they are censored in one step; the 4-state chain left on the even
    states is weighed by _tree_weights, and each odd state gets its inflow
    over its out-rate. A row that is then not finite (a zero or subnormal
    out-rate, or two closed classes) is classified by _solve_reducible.

    Each row is checked on its own, in this order: a unique steady state,
    the state invariants (in closed form, sector_state_errors) and the
    balance defect max |pi Q| of its chain over max(1, its largest rate). A
    row that fails one carries that exception in errors and leaves the other
    rows solved.
    """
    rates = coefficients[:, :2 * NUM_QUBITS]
    coupling, detuning = coefficients[:, -2], coefficients[:, -1]
    # the pair's summed out-rate Gamma counts each of the six rates once
    half_gamma = np.add.reduce(rates, axis=1) / 2.0
    h = np.hypot(half_gamma, detuning)
    errors = [None] * len(coefficients)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_h, gamma_h = coupling / h, half_gamma / h
        # Gamma (g/h)^2, in a form that does not overflow as h -> 0; NaN,
        # an edge of unknown rate, only where g > 0 and h = 0
        kappa = np.where(coupling > 0.0, 2.0 * coupling * g_h * gamma_h, 0.0)
        generators = np.zeros((len(coefficients), DIM, DIM))
        generators[:, _SOURCE, _TARGET] = rates[:, _RATE]
        generators[:, _LOW, _HIGH] = generators[:, _HIGH, _LOW] = kappa
        to_odd, to_even = generators[:, :_EVEN, _EVEN:], generators[:, _EVEN:, :_EVEN]
        exits = np.add.reduce(to_even, axis=2, keepdims=True)
        law = np.empty((len(coefficients), DIM))
        law[:, :_EVEN] = _tree_weights(to_odd @ (to_even / exits))
        # The inflow over an odd state's subnormal out-rate can overflow; its
        # row is then not finite and is solved by _solve_reducible, exactly
        # (test_sector.py::test_an_overflowing_odd_step_is_solved_exactly).
        with np.errstate(over="ignore"):
            np.divide(law[:, None, :_EVEN] @ to_odd, exits.transpose(0, 2, 1),
                      out=law[:, None, _EVEN:])
        law /= np.add.reduce(law, axis=1, keepdims=True)
        if not np.isfinite(law).all():
            # a zero or subnormal out-rate, or no tree of nonzero rates
            unsolved = ~np.isfinite(law).all(axis=1) & np.isfinite(coefficients).all(axis=1)
            for i in np.flatnonzero(unsolved).tolist():
                try:
                    law[i] = _solve_reducible(generators[i])
                except MultiplicityError as exc:
                    errors[i] = exc
                    law[i] = np.nan
        balance = (law[:, None, :] @ generators)[:, 0] - law * np.add.reduce(generators, axis=2)
        largest = np.maximum.reduce(generators.reshape(len(law), DIM * DIM), axis=1)
        residuals = np.maximum.reduce(np.abs(balance), axis=1) / np.maximum(largest, 1.0)
        x = np.empty((len(law), SECTOR_DIM))
        x[:, _ORDER] = law
        exchange = g_h * (law[:, _LOW] - law[:, _HIGH])
        x[:, DIM] = -exchange * (detuning / h)
        x[:, DIM + 1] = exchange * gamma_h
    for i, invalid in sector_state_errors(x).items():
        errors[i] = errors[i] or _invalid_state(invalid)
    for i in (residuals > TOL.steady_residual_direct).nonzero()[0].tolist():
        errors[i] = errors[i] or SteadyStateError(
            f"steady-state residual {residuals[i]:.3e} exceeds "
            f"{TOL.steady_residual_direct:.0e} for solver direct")
    return SectorSolutions(coordinates=x, residuals=residuals, errors=errors)


def solve_sectors(config: FridgeConfig, hot_temperatures=None,
                  hot_occupations=None) -> SectorSolutions:
    """Steady states of config with its hot bath at each of hot_temperatures,
    then pinned at each of hot_occupations (default: its own hot bath; see
    sector_coefficients), as one stacked solve. A row whose rates raise
    carries that error first (see solve_coefficients)."""
    coefficients, rate_errors = sector_coefficients(config, hot_temperatures, hot_occupations)
    solved = solve_coefficients(coefficients)
    errors = [rates or solve for rates, solve in zip(rate_errors, solved.errors)]
    return SectorSolutions(coordinates=solved.coordinates, residuals=solved.residuals,
                           errors=errors)
