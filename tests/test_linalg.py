import numpy as np
import pytest

from qfridge.linalg import LinalgError
from tests.oracles import kron

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
