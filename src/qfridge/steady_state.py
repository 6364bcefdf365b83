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
theorem), in plain floats. Like the elimination of Grassmann, Taksar and
Heyman (Oper. Res. 33, 1107 (1985)), the sum makes no subtraction, so each
probability comes out to small relative error (O'Cinneide, Numer. Math. 65,
109 (1993)). Where a step under- or overflows, a tree product included, the
same solve is made with every number split into a mantissa and an integer
exponent, and where an odd state is absorbing, the even states are censored
instead. The sector generator and the 64x64 oracles it is checked against
live in tests/oracles.py.
"""

import io
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import TOL
from .liouvillian import DIM, NUM_QUBITS, SECTOR_DIM, SECTOR_PAIR


class SteadyStateError(RuntimeError):
    """The steady-state solve failed to produce a valid state."""


class MultiplicityError(SteadyStateError):
    """The steady state is not unique: the rate chain has two or more closed
    classes, e.g. when g = 0 with some gamma_k = 0, or every rate is 0. It
    then has no spanning tree, or an odd and an even state are absorbing,
    so censoring neither parity solves it."""


@dataclass(frozen=True)
class SectorSolutions:
    """Steady states of a stack of coefficient rows, row by row (see
    solve_coefficients)."""

    coordinates: np.ndarray  # (N, SECTOR_DIM), the steady state where errors[i] is None
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
# The flips out of |g e g> (sign 1) and into it (sign -1), by the chain
# position of the state they leave and their rate column.
_FLIP_STATE, _FLIP_RATE, _FLIP_SIGN = (np.concatenate(pair) for pair in zip(
    (_SOURCE[_SOURCE == _LOW], _RATE[_SOURCE == _LOW], np.ones(NUM_QUBITS)),
    (_SOURCE[_TARGET == _LOW], _RATE[_TARGET == _LOW], -np.ones(NUM_QUBITS))))
# Each entry of the generator in chain order as a column of the row (down_1,
# up_1, ..., down_3, up_3, kappa, 0): a flip its rate, 2 <-> 5 the exchange
# kappa, and every other entry, the diagonal included, the 0.
_KAPPA = 2 * NUM_QUBITS
_ENTRY = np.full((DIM, DIM), _KAPPA + 1)
_ENTRY[_SOURCE, _TARGET] = _RATE
_ENTRY[_LOW, _HIGH] = _ENTRY[_HIGH, _LOW] = _KAPPA
# The sector coordinates by chain position: the populations, then two
# columns that the coherence overwrites.
_LAYOUT = np.concatenate([_POSITION, [0] * (SECTOR_DIM - DIM)])


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
# The exponent _split gives a zero, so far below any float's that no wide
# sum through it sets a scale.
_ZERO_EXPONENT = -(1 << 28)


def _split(x):
    """x as mantissas in [1/2, 1) and int64 exponents (frexp), a 0 with
    _ZERO_EXPONENT."""
    mantissas, exponents = np.frexp(x)
    exponents = exponents.astype(np.int64)
    zero = mantissas == 0.0
    if np.logical_or.reduce(zero, axis=None):
        exponents[zero] = _ZERO_EXPONENT
    return mantissas, exponents


def _wide_sum(mantissas, exponents):
    """The sum over axis 0 of the numbers mantissas * 2^exponents, as a
    mantissa and an exponent: each term is scaled by the largest exponent
    first, so the sum neither under- nor overflows."""
    top = np.maximum.reduce(exponents, axis=0)
    return np.add.reduce(np.ldexp(mantissas, exponents - top), axis=0), top


def _tree_weights(censored):
    """Stationary weights (N, 4) of a stack of 4-state rate matrices
    (N, 4, 4), censored[:, i, j] the rate from i to j: each row is its
    stationary law times a positive factor. The diagonal is not read.

    By the Markov chain tree theorem (Leighton and Rivest, IEEE Trans. Inf.
    Theory 32, 733 (1986)), state r weighs the sum over the trees directed
    to r of the product of their rates. The sum makes no subtraction, so
    each weight has small relative error wherever no product under- or
    overflows. Reductions run over the outer (edge, tree) axes, whose order
    does not depend on N, so a row solves bit for bit as on its own. A row
    with two or more closed classes has no tree of nonzero rates: its
    weights are all 0. With one, the states outside it weigh exactly 0.
    """
    # take, unlike fancy indexing, returns C order even for N = 1
    trees = censored.reshape(-1, _EVEN * _EVEN).T.take(_TREES, axis=0)
    return np.add.reduce(np.multiply.reduce(trees, axis=0), axis=0).T


def _censored_law(to_other, to_root):
    """Stationary laws (N, 8) of a stack of bipartite 8-state chains, its
    four root states first: to_other[:, i, j] (N, 4, 4) is the rate from
    root state i to other state j, and to_root[:, j, i] the rate back. The
    other states lead only to root states, so they are censored in one step;
    the 4-state chain left on the root states is weighed by _tree_weights,
    and each other state gets its inflow over its out-rate. Where no step
    under- or overflows, each probability has small relative error. A row
    is not finite where an other state's out-rate is 0, where its inflow
    overflows, or where the chain has no spanning tree.
    """
    exits = np.add.reduce(to_root, axis=2, keepdims=True)
    law = np.empty((len(to_other), DIM))
    law[:, :_EVEN] = _tree_weights(to_other @ (to_root / exits))
    np.divide(law[:, None, :_EVEN] @ to_other, exits.transpose(0, 2, 1),
              out=law[:, None, _EVEN:])
    law /= np.add.reduce(law, axis=1, keepdims=True)
    return law


def _wide_law(mantissas, exponents, root=0):
    """_censored_law's laws (N, 8) of a stack of chains given as mantissas
    and int64 exponents (N, 8, 8) of their rates, rooted at the four states
    from chain position root (0, the even ones, or _EVEN, the odd ones) and
    returned in chain order. Every sum is taken by _wide_sum, so no step
    under- or overflows. A row is not finite only where an other state's
    out-rate is 0, or where the chain has no spanning tree."""
    n = len(mantissas)
    roots, others = slice(root, root + _EVEN), slice(_EVEN - root, 2 * _EVEN - root)
    # [j, i, row]: the rate from root state i to other state j, and back
    rates_m, rates_e = (a[:, roots, others].transpose(2, 1, 0) for a in (mantissas, exponents))
    back_m, back_e = (a[:, others, roots].transpose(2, 1, 0) for a in (mantissas, exponents))
    exits_m, exits_e = _wide_sum(back_m, back_e)
    steps_m, steps_e = back_m / exits_m, back_e - exits_e
    # the censored rate i -> k sums, over j, the rate i -> j times the step j -> k
    censored_m, censored_e = _wide_sum(
        rates_m[:, :, None] * steps_m.transpose(1, 0, 2)[:, None],
        rates_e[:, :, None] + steps_e.transpose(1, 0, 2)[:, None])
    tree_m, tree_e = _split(censored_m.reshape(_EVEN * _EVEN, n))
    tree_e += censored_e.reshape(_EVEN * _EVEN, n)
    # _tree_weights' sum, each tree's product a mantissa and an exponent
    weights_m, weights_e = _wide_sum(np.multiply.reduce(tree_m.take(_TREES, axis=0), axis=0),
                                     np.add.reduce(tree_e.take(_TREES, axis=0), axis=0))
    inflow_m, inflow_e = _wide_sum(weights_m[:, None] * rates_m.transpose(1, 0, 2),
                                   weights_e[:, None] + rates_e.transpose(1, 0, 2))
    law_e = np.concatenate([weights_e, inflow_e - exits_e])
    law = np.ldexp(np.concatenate([weights_m, inflow_m / exits_m]),
                   law_e - np.maximum.reduce(law_e, axis=0)).T.copy()
    # summed along rows in C order, as by _censored_law, whatever N
    law /= np.add.reduce(law, axis=1, keepdims=True)
    return np.roll(law, root, axis=1)


def _closed_classes(generator):
    """Number of closed classes of one chain (n, n), from which of its rates
    are exactly zero."""
    # a NaN rate is the exchange of a coupled pair with Gamma = delta = 0
    reach = (generator > 0.0) | np.isnan(generator) | np.eye(len(generator), dtype=bool)
    for _ in range(len(generator).bit_length()):
        reach = reach @ reach
    return len(np.unique(reach[(reach <= reach.T).all(axis=1)], axis=0))


def _residuals(law, generators, unit):
    """max |pi Q| of each row's chain over unit (N,), its scale of rates:
    max(1, its largest rate)."""
    balance = (law[:, None, :] @ generators)[:, 0] - law * np.add.reduce(generators, axis=2)
    return np.maximum.reduce(np.abs(balance), axis=1) / unit


def solve_coefficients(coefficients, errors=None) -> SectorSolutions:
    """Steady states of a stack of sector_coefficients rows, which may come
    from different machines. The chain's odd states lead only to even ones,
    so they are censored in one step; the 4-state chain left on the even
    states is weighed by _tree_weights, and each odd state gets its inflow
    over its out-rate (_censored_law). Where a step of that under- or
    overflows, every row is solved again by _wide_law, in integer-exponent
    arithmetic from the rate row split into mantissas and exponents (with
    the parities swapped where an odd state is absorbing). A row with finite
    coefficients whose two laws differ by more than 2^-44 relative, or whose
    float h or defect is not finite, is solved wide: it takes the wide law,
    its ratios to h and the defect of the wide chain scaled by 2^-top (top
    its largest exponent), and MultiplicityError where the wide law is not
    finite and its chain has two or more closed classes.

    Each row is checked on its own, in this order: the error its rates
    raised (errors, as sector_coefficients gives them), a unique steady
    state and the balance defect max |pi Q| of its chain over max(1, its
    largest rate), <= TOL.steady_residual_direct, which a NaN defect fails
    too. A row that fails one carries that exception in errors.

    A solved row's state is a density matrix without a check of its own.
    Both laws sum products and quotients of rates with no subtraction, so
    every population is >= 0, and dividing the law by its sum makes the
    trace 1 to rounding. The coherence is the exact steady state's, whose
    |c|^2 <= p2 p5; in floats the pair block's smaller eigenvalue keeps to
    the absolute bound TOL.density_min_eigenvalue, as |c|^2 may pass p2 p5
    by rounding where p2 or p5 is subnormal.
    """
    rates = coefficients[:, :2 * NUM_QUBITS]
    coupling, detuning = coefficients[:, -2], coefficients[:, -1]
    errors = [None] * len(coefficients) if errors is None else list(errors)
    # numpy writes a line to events for each step that under- or overflows,
    # divides by zero or makes a NaN: only then can a row have lost digits
    events = io.StringIO()
    with np.errstate(all="log", call=events):
        # the pair's summed out-rate Gamma counts each of the six rates once;
        # halved first, Gamma/2 stays finite where Gamma would overflow
        half_gamma = np.add.reduce(rates * 0.5, axis=1)
        h = np.hypot(half_gamma, detuning)
        g_h, gamma_h, delta_h = coupling / h, half_gamma / h, detuning / h
        # The rate row of _ENTRY: the six rates, then Gamma (g/h)^2 in a form
        # that does not overflow as h -> 0 (NaN, an edge of unknown rate,
        # only where g > 0 and h = 0), then 0.
        row = coefficients.astype(float)
        row[:, _KAPPA] = 2.0 * coupling * g_h * gamma_h
        row[~(coupling > 0.0), _KAPPA] = row[:, _KAPPA + 1] = 0.0
        generators = row.take(_ENTRY, axis=1)
        law = _censored_law(generators[:, :_EVEN, _EVEN:], generators[:, _EVEN:, :_EVEN])
        lossy = events.tell()
        # each row's largest rate is among the eight of its rate row
        residuals = _residuals(law, generators, np.maximum(np.maximum.reduce(row, axis=1), 1.0))
        if lossy:
            # The rate row split once, with kappa taken from the mantissas
            # and exponents of Gamma/2, g and h, which are summed from the
            # split rates and so stay finite where the floats do not.
            row_m, row_e = _split(row)
            half_m, half_e = _wide_sum(row_m[:, :_KAPPA].T, row_e[:, :_KAPPA].T)
            half_e -= 1
            (delta_m, delta_e), (g_m, g_e) = _split(detuning), np.frexp(coupling)
            h_e = np.maximum(half_e, delta_e)
            h_m = np.hypot(np.ldexp(half_m, half_e - h_e), np.ldexp(delta_m, delta_e - h_e))
            row_m[:, _KAPPA], row_e[:, _KAPPA] = _split(
                np.where(coupling > 0.0, 2.0 * half_m * (g_m / h_m) ** 2, 0.0))
            row_e[:, _KAPPA] += half_e + 2 * (g_e - h_e)
            mantissas, exponents = row_m.take(_ENTRY, axis=1), row_e.take(_ENTRY, axis=1)
            wide_law = _wide_law(mantissas, exponents)
            # An odd state is absorbing, or the chain has no spanning tree.
            # Censoring the even states solves the first unless an even
            # state is absorbing too, and then the chain has two closed
            # classes.
            swap = ~np.isfinite(wide_law).all(axis=1)
            if swap.any():
                wide_law[swap] = _wide_law(mantissas[swap], exponents[swap], _EVEN)
            # the rows solved wide (the laws are compared to tiny below the
            # normal floats)
            wide = ~(np.abs(law - wide_law) <= 2.0 ** -44 * wide_law
                     + np.finfo(float).tiny).all(axis=1)
            wide |= ~np.isfinite(h) | ~np.isfinite(residuals)
            wide = np.flatnonzero(wide & np.isfinite(coefficients).all(axis=1))
            law[wide] = wide_law[wide]
            for ratio, m, e in ((g_h, g_m, g_e), (gamma_h, half_m, half_e),
                                (delta_h, delta_m, delta_e)):
                ratio[wide] = np.ldexp(m / h_m, e - h_e)[wide]
            for i in wide[~np.isfinite(law[wide]).all(axis=1)].tolist():
                law[i] = np.nan
                classes = _closed_classes(mantissas[i])
                if classes > 1:
                    errors[i] = MultiplicityError(
                        f"the rate chain has {classes} closed classes: the steady "
                        "state is not unique")
            # the defect of the wide chain, every rate scaled by 2^-top
            top = np.maximum.reduce(row_e[wide], axis=1)
            scaled = np.ldexp(row_m[wide], row_e[wide] - top[:, None])
            residuals[wide] = _residuals(law[wide], scaled.take(_ENTRY, axis=1), np.maximum(
                np.maximum.reduce(scaled, axis=1), np.ldexp(1.0, -top)))
        x = law.take(_LAYOUT, axis=1)
        exchange = g_h * (law[:, _LOW] - law[:, _HIGH])
        strong = g_h > 4096.0
        if np.logical_or.reduce(strong):
            # There p2 - p5 cancels, as kappa = Gamma (g/h)^2 dwarfs the other
            # out-rates of |g e g>, and leaves the coherence more than 2^-41
            # p2 off. The exchange flux kappa (p5 - p2) is their net outflow,
            # and g/h (p2 - p5) = -outflow / (Gamma g/h) is within a few ulps
            # of p2 / (g/h).
            outflow = np.add.reduce(law[:, _FLIP_STATE] * rates[:, _FLIP_RATE] * _FLIP_SIGN,
                                    axis=1)
            exchange[strong] = (-outflow / (2.0 * half_gamma * g_h))[strong]
        x[:, DIM] = -exchange * delta_h
        x[:, DIM + 1] = exchange * gamma_h
    passed = residuals <= TOL.steady_residual_direct
    if not np.logical_and.reduce(passed):
        for i in np.flatnonzero(~passed).tolist():
            errors[i] = errors[i] or SteadyStateError(
                f"steady-state residual {residuals[i]:.3e} exceeds "
                f"{TOL.steady_residual_direct:.0e} for solver direct")
    return SectorSolutions(coordinates=x, residuals=residuals, errors=errors)
