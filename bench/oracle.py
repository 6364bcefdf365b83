"""Independent steady-state oracle for the three-qubit refrigerator.

Shares nothing with qfridge's solver path: the local Lindblad generator is
built here with np.kron from the model as stated in PAPER.md, using only a
config's numbers and the bath occupation `qfridge.reservoirs.occupation`.
It vectorizes row by row (vec(A X B) = (A kron B^T) vec(X)), the opposite of
qfridge's column stacking, and takes the stationary state as the SVD null
vector instead of a constrained LU solve.
"""

import math

import numpy as np
from qfridge.reservoirs import occupation

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |g><e|, g = index 0
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


def _lift(single, k, n):
    """Single-qubit operator on qubit k (0-based, qubit 1 most significant)."""
    out = np.eye(1, dtype=complex)
    for j in range(n):
        out = np.kron(out, single if j == k else np.eye(2))
    return out


def generator(gaps, downs, ups, coupling=0.0):
    """Row-major vectorized generator of the local master equation."""
    n = len(gaps)
    eye = np.eye(2 ** n)
    h = sum(0.5 * e * _lift(SIGMA_Z, k, n) for k, e in enumerate(gaps))
    if coupling:
        lower = (_lift(SIGMA_MINUS, 0, n) @ _lift(SIGMA_MINUS.T, 1, n)
                 @ _lift(SIGMA_MINUS, 2, n))
        h = h + coupling * (lower + lower.conj().T)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for k in range(n):
        for c, rate in ((_lift(SIGMA_MINUS, k, n), downs[k]),
                        (_lift(SIGMA_MINUS.T, k, n), ups[k])):
            cdc = c.conj().T @ c
            gen += rate * (np.kron(c, c.conj())
                           - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return gen


def null_state(gen):
    """Unit-trace stationary state: right singular vector of the smallest value."""
    dim = math.isqrt(gen.shape[0])
    rho = np.linalg.svd(gen)[2][-1].conj().reshape(dim, dim)
    return rho / np.trace(rho)


def rates(config):
    """Per-qubit (down, up): gamma (1 +/- n) and gamma n."""
    downs, ups = [], []
    for spec, gap, gamma in zip(config.reservoirs, config.gaps, config.gammas):
        n = occupation(spec, gap)
        sign = 1.0 if spec.statistics.value == "bosonic" else -1.0
        downs.append(gamma * (1.0 + sign * n))
        ups.append(gamma * n)
    return downs, ups


def steady_state(config):
    downs, ups = rates(config)
    return null_state(generator(config.gaps, downs, ups, config.coupling))


def populations(rho):
    """(p_ground, p_excited) of qubit 1 from the 8x8 state."""
    p = np.diagonal(rho).real
    return float(p[:4].sum()), float(p[4:].sum())


def t1(config):
    pg, pe = populations(steady_state(config))
    return config.gaps[0] / math.log(pg / pe)


def gibbs(gap, temperature):
    """Closed-form qubit Gibbs state diag(p_g, p_e), either sign of T."""
    pe = 1.0 / (1.0 + math.exp(gap / temperature))
    return np.diag([1.0 - pe, pe])


def self_test(configs):
    """Largest deviation of the oracle from closed forms that need no solve.

    For each config: a lone qubit damped by each bath relaxes to that bath's
    Gibbs state, and at g = 0 the machine relaxes to the product of the
    three per-qubit Gibbs states.
    """
    worst = 0.0
    for config in configs:
        downs, ups = rates(config)
        temps = [spec.temperature for spec in config.reservoirs]
        product = np.eye(1)
        for k, (gap, t) in enumerate(zip(config.gaps, temps)):
            lone = null_state(generator([gap], [downs[k]], [ups[k]]))
            worst = max(worst, float(np.max(np.abs(lone - gibbs(gap, t)))))
            product = np.kron(product, gibbs(gap, t))
        decoupled = null_state(generator(config.gaps, downs, ups))
        worst = max(worst, float(np.max(np.abs(decoupled - product))))
    return worst
