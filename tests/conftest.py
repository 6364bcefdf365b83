import numpy as np
import pytest

from qfridge import (
    DensityMatrix,
    FridgeConfig,
    ReservoirSpec,
    Role,
    Statistics,
    default_config,
)
from tests.oracles import sector_states, solve_sectors


def random_valid_config(rng, resonant=False):
    """Sample a valid machine configuration with moderate rates.

    Temperatures and rates are kept in ranges where relaxation times stay
    bounded, so propagation-based cross checks terminate quickly.
    """
    e1 = rng.uniform(0.5, 2.0)
    e3 = rng.uniform(0.5, 4.0)
    e2 = e1 + e3 if resonant else max(0.3, e1 + e3 + rng.uniform(-0.8, 0.8))
    gammas = tuple(rng.uniform(0.4, 1.5, size=3))
    coupling = rng.uniform(0.2, 1.5)

    def reservoir(role):
        if rng.random() < 0.5:
            return ReservoirSpec(Statistics.BOSONIC, rng.uniform(0.4, 8.0), role)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return ReservoirSpec(Statistics.FERMIONIC, sign * rng.uniform(0.4, 8.0), role)

    return FridgeConfig(
        gaps=(e1, e2, e3),
        gammas=gammas,
        reservoirs=(reservoir(Role.COLD), reservoir(Role.ROOM), reservoir(Role.HOT)),
        coupling=coupling,
    )


def sector_solution(config):
    """The one-row sector solve of config as (DensityMatrix, residual), or
    the row's failure raised; DensityMatrix re-checks the state."""
    solved = solve_sectors(config)
    if solved.errors[0] is not None:
        raise solved.errors[0]
    return DensityMatrix(sector_states(solved.coordinates)[0]), float(solved.residuals[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def reference_config():
    """Gaps (1, 5, 4), unit rates, baths at (1, 2, 10), unit coupling."""
    return default_config(tc=1.0, tr=2.0, th=10.0, coupling=1.0)


def exact_rates(spec, gap, gamma, mpmath):
    """(down, up) = gamma (1 +/- n), gamma n as mpmath numbers, with n the
    pinned occupation or the occupation at the bath's temperature, formed
    at the working precision from the bath's numbers, not from any float
    rate. A thermal fermionic bath's 1 - n is 1 / (exp(-E/T) + 1), so no
    digit cancels however close n is to 1. Both are 0 at gamma = 0."""
    if gamma == 0.0:
        return mpmath.mpf(0), mpmath.mpf(0)
    n, x = spec.occupation_override, mpmath.mpf(gap) / mpmath.mpf(spec.temperature)
    if n is None and spec.statistics is Statistics.FERMIONIC:
        return mpmath.mpf(gamma) / (mpmath.exp(-x) + 1), mpmath.mpf(gamma) / (mpmath.exp(x) + 1)
    if n is not None:
        n = mpmath.mpf(n)
    else:
        n = 1 / mpmath.expm1(x)
    sign = 1 if spec.statistics is Statistics.BOSONIC else -1
    return mpmath.mpf(gamma) * (1 + sign * n), mpmath.mpf(gamma) * n


def exact_qubit1_populations(config, dps=60):
    """(p_ground, p_excited) of qubit 1 in the steady state, solved in mpmath
    from rates formed at `dps` digits (exact_rates), at `dps` digits more
    than the decimal exponent span of the nonzero rates: a solve at `dps`
    alone loses every digit of a population that span below the others.

    Independent of qfridge's generators and rates: it applies the Lindblad
    equation term by term to each population and to rho[2, 5] and
    rho[5, 2], checks that the images stay in that sector, and solves the
    sector with the trace constraint. Skips the calling test when mpmath is
    missing.
    """
    mpmath = pytest.importorskip("mpmath")

    with mpmath.workdps(dps):
        rates = [exact_rates(spec, gap, gamma, mpmath)
                 for spec, gap, gamma in zip(config.reservoirs, config.gaps, config.gammas)]
        exponents = [int(mpmath.floor(mpmath.log10(rate))) for pair in rates for rate in pair
                     if rate]
        span = max(exponents) - min(exponents) if exponents else 0
    with mpmath.workdps(dps + span):
        zero, one = mpmath.mpf(0), mpmath.mpf(1)

        def lift(single, k):
            out = np.array([[one]], dtype=object)
            for j in range(3):
                out = np.kron(out, np.array(single if j == k else np.eye(2, dtype=int),
                                            dtype=object))
            return out

        lower = np.array([[0, 1], [0, 0]])
        hamiltonian = sum(lift(np.diag([-1, 1]), k) * (mpmath.mpf(gap) / 2)
                          for k, gap in enumerate(config.gaps))
        exchange = lift(lower, 0).dot(lift(lower.T, 1)).dot(lift(lower, 2))
        hamiltonian = hamiltonian + mpmath.mpf(config.coupling) * (exchange + exchange.T)
        jumps = []
        for k, (down, up) in enumerate(rates):
            jumps += [(down, lift(lower, k)), (up, lift(lower.T, k))]

        def lindblad(rho):
            out = -1j * (hamiltonian.dot(rho) - rho.dot(hamiltonian))
            for rate, c in jumps:
                cdc = c.T.dot(c)
                out = out + rate * (c.dot(rho).dot(c.T) - (cdc.dot(rho) + rho.dot(cdc)) / 2)
            return out

        coordinates = [(i, i) for i in range(8)] + [(2, 5), (5, 2)]
        system = mpmath.matrix(10, 10)
        for column, (a, b) in enumerate(coordinates):
            basis = np.full((8, 8), zero, dtype=object)
            basis[a, b] = one
            image = lindblad(basis)
            for row, (i, j) in enumerate(coordinates):
                system[row, column] = image[i, j]
                image[i, j] = zero
            assert all(v == 0 for v in image.flat), "the sector is not invariant"
        for column in range(10):
            system[0, column] = one if column < 8 else zero
        x = mpmath.lu_solve(system, mpmath.matrix([one] + [zero] * 9))
        return (mpmath.re(sum(x[i] for i in range(4))),
                mpmath.re(sum(x[i] for i in range(4, 8))))
