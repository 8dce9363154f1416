import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_hermitian
from coherent_readout.linalg import (
    hermitian_part,
    hs_inner,
    is_hermitian,
    kron,
    min_eigenvalue_hermitian,
    unvec,
    vec,
)


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


def test_hs_inner_identity():
    assert hs_inner(np.eye(2), np.eye(2)) == 2.0 + 0.0j


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_matrix_unit_orthonormality():
    n = 3
    units = {}
    for i in range(n):
        for j in range(n):
            u = np.zeros((n, n), dtype=complex)
            u[i, j] = 1.0
            units[(i, j)] = u
    for a, ua in units.items():
        for b, ub in units.items():
            assert hs_inner(ua, ub) == (1.0 if a == b else 0.0)


@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_hs_inner_self_is_nonnegative_real(dim, seed):
    b = random_complex(dim, seed)
    val = hs_inner(b, b)
    assert val.imag == 0.0
    assert val.real >= 0.0


def test_is_hermitian():
    assert is_hermitian(np.array([[0, -1j], [1j, 0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_hermitian(np.array([[1.0, 1e-12], [0.0, 1.0]]), tol=1e-10)


def test_hermitian_part_fixes_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = hermitian_part(m)
    assert is_hermitian(h, tol=0.0)
    assert h[0, 1] == 1.0


def test_min_eigenvalue_identity():
    assert min_eigenvalue_hermitian(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue_hermitian(np.diag([1.0, 0.3])) == pytest.approx(0.3, abs=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_min_eigenvalue_matches_characteristic_polynomial(seed):
    m = random_hermitian(4, seed)
    roots = char_poly_roots(m)
    assert np.max(np.abs(roots.imag)) < 1e-8  # Hermitian: all roots real
    assert min_eigenvalue_hermitian(m) == pytest.approx(roots.real.min(), abs=1e-10)


@given(
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_min_eigenvalue_shift_covariance(dim, seed, shift):
    m = random_hermitian(dim, seed)
    base = min_eigenvalue_hermitian(m)
    shifted = min_eigenvalue_hermitian(m + shift * np.eye(dim))
    assert shifted == pytest.approx(base + shift, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_eigh_jacobi_matches_lapack(dim, seed):
    # The name dates from the hand-written Jacobi eigensolver that LAPACK
    # replaced; it is kept so results compare across versions. The general
    # (non-Hermitian) LAPACK driver is an independent route.
    m = random_hermitian(dim, seed)
    assert abs(min_eigenvalue_hermitian(m) - np.linalg.eigvals(m).real.min()) < 1e-11


def test_eigh_jacobi_eigenpairs():
    # Named, like the test above, after the eigensolver LAPACK replaced.
    m = random_hermitian(5, 77)
    w = min_eigenvalue_hermitian(m)
    # m - w I is singular: its smallest right-singular vector is an eigenvector.
    _, _, vh = np.linalg.svd(m - w * np.eye(5))
    v = vh[-1].conj()
    assert np.max(np.abs(m @ v - w * v)) < 1e-11


def test_vec_is_column_stacked():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])


def test_unvec_rejects_wrong_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(3), 2)


@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_vec_unvec_roundtrip_exact(dim, seed):
    m = random_complex(dim, seed)
    assert np.array_equal(unvec(vec(m), dim), m)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = kron(a, b)
    # index convention: out[i*2 + k, j*2 + l] = a[i, j] * b[k, l]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert out[i * 2 + k, j * 2 + l] == a[i, j] * b[k, l]


@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vec_intertwines_kron(dim, seed):
    # The identity vec(A X B) = (B^T kron A) vec(X) underpins the
    # superoperator construction; pin it for the column-stacked vec.
    a = random_complex(dim, seed)
    x = random_complex(dim, seed + 1)
    b = random_complex(dim, seed + 2)
    lhs = vec(a @ x @ b)
    rhs = kron(b.T, a) @ vec(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))
