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


def hermiticity_and_min_eigenvalue(m) -> tuple[float, float]:
    """Worst entry of |m - m^dag| and smallest eigenvalue of the Hermitian part.

    m is one N x N matrix or a K x N x N stack, already checked for shape
    (as_square_array, as_square_stack); both numbers are taken over the
    whole stack. The Hermitian part is formed as m/2 + m^dag/2, which stays
    finite for every finite m, so the eigenvalue measures entries up to the
    edge of the float range instead of turning into NaN.
    """
    a = np.asarray(m, dtype=complex)
    a_dag = a.conj().swapaxes(-1, -2)
    hermiticity = float(np.abs(a - a_dag).max())
    return hermiticity, float(np.linalg.eigvalsh(a / 2.0 + a_dag / 2.0).min())


def identity_defect(s: np.ndarray) -> float:
    """Worst entry of |s - I| for a square matrix s of its caller's own, which it overwrites.

    Subtracting 1 from the diagonal in place gives the numbers of s - I
    without building I.
    """
    s.flat[:: s.shape[0] + 1] -= 1.0
    return float(np.abs(s).max())


def vec(m) -> np.ndarray:
    """Column-stacked vectorization: entry (r, c) lands at index c*N + r."""
    return as_square_array(m).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    """Inverse of vec for a dim x dim matrix."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.size != dim * dim:
        raise ValueError(f"expected a flat vector of length {dim * dim}, got shape {a.shape}")
    return a.reshape((dim, dim), order="F")
