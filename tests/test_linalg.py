import numpy as np
import pytest

from qfridge.linalg import TOL, LinalgError, SingularMatrixError, solve_linear
from tests.oracles import kron, max_abs

I2 = np.eye(2, dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e|
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)   # |e><g|


def test_kron_identity():
    np.testing.assert_array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal_expansion():
    # diag(1, -1) kron I2 expands to diag(1, 1, -1, -1)
    np.testing.assert_array_equal(
        kron(np.diag([1.0, -1.0]).astype(complex), I2),
        np.diag([1.0, 1.0, -1.0, -1.0]),
    )


def test_kron_lower_raise_maps_eg_to_ge():
    # Hand expansion: (|g><e|) kron (|e><g|) sends |e,g> (index 2) to |g,e>
    # (index 1), so the 4x4 product has a single unit entry at (1, 2).
    m = kron(LOWER, RAISE)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 1.0
    np.testing.assert_array_equal(m, expected)
    basis_eg = np.zeros(4, dtype=complex)
    basis_eg[2] = 1.0
    out = m @ basis_eg
    np.testing.assert_array_equal(out, expected[:, 2])


def test_kron_dimensions_and_entries(rng):
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    m = kron(a, b)
    assert m.shape == (6, 6)
    for i, j, k, l in [(0, 0, 0, 0), (1, 2, 2, 1), (0, 1, 1, 0)]:
        assert m[i * 3 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l], rel=1e-15)


def test_kron_associative_exact_on_integer_entries(rng):
    # With integer-valued entries all products are exact, so associativity
    # holds entrywise with no tolerance at all.
    a, b, c = (
        (rng.integers(-3, 4, size=(2, 2)) + 1j * rng.integers(-3, 4, size=(2, 2)))
        for _ in range(3)
    )
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_kron_rejects_nonfinite():
    with pytest.raises(LinalgError):
        kron(np.array([[np.nan, 0], [0, 1]]), I2)


def _solve_one(a, b):
    """solve_linear on the stack of one system: x, or its failure raised."""
    x, errors = solve_linear(np.asarray(a)[None], np.asarray(b)[None])
    if errors[0] is not None:
        raise errors[0]
    return x[0]


def test_solve_identity():
    b = np.array([1.0 + 2j, -3.0, 0.5j])
    np.testing.assert_array_equal(_solve_one(np.eye(3, dtype=complex), b), b)


def test_solve_diagonal():
    x = _solve_one(np.diag([2.0, 4.0]).astype(complex), np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)


def test_solve_recovers_known_solution_64(rng):
    # b is constructed from a chosen x*, so recovery is checked against an
    # input that never passed through the solver.
    n = 64
    a = np.eye(n) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    x_star = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = _solve_one(a, a @ x_star)
    assert max_abs(x - x_star) <= 1e-8


def test_solve_residual_contract(rng):
    for _ in range(10):
        n = 16
        a = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = _solve_one(a, b)
        assert max_abs(a @ x - b) <= 1e-10 * (1.0 + max_abs(b))


def test_solve_singular_carries_smallest_singular_value():
    for a in (np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex),   # rank 1
              np.array([[1.0, 2.0], [2.0, 4.0]]),                  # real, rank 1
              np.zeros((3, 3))):
        with pytest.raises(SingularMatrixError) as excinfo:
            _solve_one(a, np.ones(len(a)))
        assert excinfo.value.sigma_min <= TOL.singular_value * excinfo.value.scale


def test_solve_real_system_stays_real(rng):
    a = np.eye(10) + 0.3 * rng.normal(size=(10, 10))
    x_star = rng.normal(size=10)
    x = _solve_one(a, a @ x_star)
    assert x.dtype == np.float64
    assert max_abs(x - x_star) <= 1e-12


def test_solve_rejects_nonfinite_and_mismatched_shapes():
    with pytest.raises(LinalgError):
        _solve_one(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(LinalgError):
        _solve_one(np.eye(2), np.ones(3))
    with pytest.raises(LinalgError):
        _solve_one(np.ones((2, 3)), np.ones(2))
    with pytest.raises(LinalgError):       # stacks only
        solve_linear(np.eye(2), np.ones(2))
