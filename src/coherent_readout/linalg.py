"""Dense complex linear algebra shared across the package.

Everything operates on plain numpy arrays (complex128, square, dense).
Matrices here are small: the package targets desk-scale problems, N <= 64.
Hermitian eigenproblems go to LAPACK through numpy.linalg.
"""

from __future__ import annotations

import numpy as np

# Default absolute tolerances: physical constraints (positivity, trace
# preservation, completeness) versus exact structural identities.
ATOL_PHYSICAL = 1e-10
ATOL_STRUCTURAL = 1e-12


def as_square_array(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    return a


def as_square_stack(ms, name: str = "matrices") -> np.ndarray:
    """ms as one K x N x N complex array with K, N >= 1 (no copy if it already is one).

    Rejects empty, ragged or non-square input.
    """
    try:
        a = np.asarray(ms, dtype=complex)
    except ValueError as exc:
        raise ValueError(f"{name} do not form one array: {exc}") from None
    if a.ndim != 3 or 0 in a.shape or a.shape[1] != a.shape[2]:
        raise ValueError(f"{name} must be a non-empty stack of square matrices, got shape {a.shape}")
    return a


def hs_inner(b, d) -> complex:
    """Hilbert-Schmidt inner product Tr(b^dag d)."""
    b = np.asarray(b, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if b.shape != d.shape:
        raise ValueError(f"shape mismatch: {b.shape} vs {d.shape}")
    return complex(np.vdot(b, d))


def is_hermitian(m, tol: float = ATOL_PHYSICAL) -> bool:
    a = as_square_array(m)
    if a.size == 0:
        return True
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def hermitian_part(m) -> np.ndarray:
    a = as_square_array(m)
    return (a + a.conj().T) / 2.0


def kron(a, b) -> np.ndarray:
    """Kronecker product, subsystem a on the left (most significant)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def vec(m) -> np.ndarray:
    """Column-stacked vectorization: entry (r, c) lands at index c*N + r."""
    return as_square_array(m).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    """Inverse of vec for a dim x dim matrix."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.size != dim * dim:
        raise ValueError(f"expected a flat vector of length {dim * dim}, got shape {a.shape}")
    return a.reshape((dim, dim), order="F")


def min_eigenvalue_hermitian(m) -> float:
    """Smallest eigenvalue of the Hermitian part of m."""
    return float(np.linalg.eigvalsh(hermitian_part(m))[0])
