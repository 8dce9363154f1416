import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_hermitian
from coherent_readout.linalg import hermiticity_and_min_eigenvalue


def min_eigenvalue(m):
    return hermiticity_and_min_eigenvalue(m)[1]


def char_poly_roots(m):
    # Independent oracle: Faddeev-LeVerrier coefficients, companion-matrix roots.
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        mk = m @ (mk + c * np.eye(n))
        c = -np.trace(mk) / k
        coeffs[k] = c
    return np.roots(coeffs)


def test_is_hermitian():
    assert hermiticity_and_min_eigenvalue(np.array([[0, -1j], [1j, 0]]))[0] == 0.0
    assert hermiticity_and_min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))[0] == 1.0
    assert hermiticity_and_min_eigenvalue(np.array([[1.0, 1e-12], [0.0, 1.0]]))[0] == 1e-12


def test_hermitian_part_fixes_asymmetry():
    # The eigenvalue is that of the Hermitian part [[1, 1], [1, 3]].
    hermiticity, w_min = hermiticity_and_min_eigenvalue(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert hermiticity == 2.0
    assert w_min == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-14)


@given(k=st.integers(1, 4), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stack_takes_worst_over_its_matrices(k, dim, seed):
    stack = np.array([random_complex(dim, seed + i) for i in range(k)])
    each = [hermiticity_and_min_eigenvalue(m) for m in stack]
    hermiticity, w_min = hermiticity_and_min_eigenvalue(stack)
    assert hermiticity == max(h for h, _ in each)
    assert w_min == pytest.approx(min(w for _, w in each), abs=1e-12)


def test_hermitian_part_does_not_overflow():
    # (m + m^dag)/2 overflows to inf here and its eigenvalues come out NaN.
    hermiticity, w_min = hermiticity_and_min_eigenvalue(np.diag([1e308, -1e308]))
    assert hermiticity == 0.0
    assert w_min == -1e308


def test_hermiticity_defect_overflows_without_warning():
    # m - m^dag overflows to inf; RuntimeWarnings are errors in this suite.
    hermiticity, w_min = hermiticity_and_min_eigenvalue(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    assert hermiticity == np.inf
    assert w_min == 0.0


def test_min_eigenvalue_identity():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue(np.diag([1.0, 0.3])) == pytest.approx(0.3, abs=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_min_eigenvalue_matches_characteristic_polynomial(seed):
    m = random_hermitian(4, seed)
    roots = char_poly_roots(m)
    assert np.max(np.abs(roots.imag)) < 1e-8  # Hermitian: all roots real
    assert min_eigenvalue(m) == pytest.approx(roots.real.min(), abs=1e-10)


@given(
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_min_eigenvalue_shift_covariance(dim, seed, shift):
    m = random_hermitian(dim, seed)
    base = min_eigenvalue(m)
    shifted = min_eigenvalue(m + shift * np.eye(dim))
    assert shifted == pytest.approx(base + shift, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_eigh_jacobi_matches_lapack(dim, seed):
    # The name dates from the hand-written Jacobi eigensolver that LAPACK
    # replaced; it is kept so results compare across versions. The general
    # (non-Hermitian) LAPACK driver is an independent route.
    m = random_hermitian(dim, seed)
    assert abs(min_eigenvalue(m) - np.linalg.eigvals(m).real.min()) < 1e-11


def test_eigh_jacobi_eigenpairs():
    # Named, like the test above, after the eigensolver LAPACK replaced.
    m = random_hermitian(5, 77)
    w = min_eigenvalue(m)
    # m - w I is singular: its smallest right-singular vector is an eigenvector.
    _, _, vh = np.linalg.svd(m - w * np.eye(5))
    v = vh[-1].conj()
    assert np.max(np.abs(m @ v - w * v)) < 1e-11
