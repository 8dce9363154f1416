"""Density matrices and their real coordinate decomposition.

A valid N x N density matrix splits into N real populations
x_l = <l|rho|l> and N(N-1) real coherence coordinates packing the upper
triangle: for each pair l < r in lexicographic order, the entry
c_lr = <l|rho|r> contributes (Re c_lr, Im c_lr) consecutively. That layout
is shared by the readout model's coherence-response matrix and the
mitigation solver, so it is defined once here: split_matrix is its one
reader and assemble_matrix its one writer, and the one judge of its
N(N-1) shape. Both take a matrix or a stack, and both work on one cached
pair of flat indices into the row-major N*N entries: l*N + r for the upper
triangle and r*N + l for the mirrored lower one. split_matrix gathers the
upper entries in one step; assemble_matrix scatters them, and their
conjugates, in one step each.

DensityMatrix measures hermiticity on its input and judges the trace and
positivity on the input's Hermitian part, which is what it keeps; so its
matrix mirrors its upper triangle exactly, and decompose and reconstruct are
exact inverses on it. Positivity is decided as linalg does: the Cholesky
gate accepts a state, and only a matrix it declines pays for its smallest
eigenvalue.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import (
    ATOL_PHYSICAL,
    Frozen,
    as_square_array,
    cholesky_gate,
    hermiticity_and_part,
)


@lru_cache(maxsize=None)
def _upper_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices l*dim + r of the pairs l < r, lexicographic, and r*dim + l of their
    mirrors; read-only, shared."""
    rows, cols = np.triu_indices(dim, 1)
    upper = rows * dim + cols
    lower = cols * dim + rows
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


class DensityMatrix(Frozen):
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    matrix is the Hermitian part of a copy of the input, held read-only, so
    it equals its conjugate transpose bit for bit; an exactly Hermitian
    input is stored unchanged. Its trace is judged, and its positivity
    accepted by linalg.cholesky_gate; only a matrix the gate declines has
    its smallest eigenvalue computed, which rejects it or not.
    """

    __slots__ = __match_args__ = ("matrix",)

    def __init__(self, matrix):
        a = as_square_array(matrix, name="density matrix").copy()
        hermiticity, h = hermiticity_and_part(a)
        self._set(matrix=h)
        if not hermiticity <= ATOL_PHYSICAL:
            # A NaN or inf always lands here: a - a^dag meets it as NaN,
            # inf or inf - inf. So only a failed matrix pays for the scan.
            if not np.isfinite(a).all():
                raise ValueError("density matrix contains non-finite entries")
            raise ValueError(f"density matrix is not Hermitian within {ATOL_PHYSICAL:.0e}")
        with np.errstate(over="ignore"):  # an overflowing trace is inf, rejected below
            trace = complex(h.trace())
        if not abs(trace - 1.0) <= ATOL_PHYSICAL:
            raise ValueError(f"density matrix trace {trace!r} is not 1 within {ATOL_PHYSICAL:.0e}")
        if cholesky_gate(h, ATOL_PHYSICAL):
            return
        w_min = float(np.linalg.eigvalsh(h)[0])
        if not w_min >= -ATOL_PHYSICAL:
            raise ValueError(f"density matrix has negative eigenvalue {w_min:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class StateDecomposition(Frozen):
    """Real coordinates of a state: populations x and packed coherences y.

    Held as read-only copies, and accepted only if they encode a DensityMatrix.
    """

    __slots__ = __match_args__ = ("populations", "coherences")

    def __init__(self, populations, coherences):
        x = np.array(populations, dtype=float)
        y = np.array(coherences, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("populations must be a non-empty 1-d real vector")
        DensityMatrix(assemble_matrix(x, y))
        self._set(populations=x, coherences=y)

    @property
    def dim(self) -> int:
        return self.populations.size


def split_matrix(m) -> tuple[np.ndarray, np.ndarray]:
    """Populations x and packed coherences y of a Hermitian matrix; no physicality checks.

    m is a complex array whose last two axes are N x N; leading axes are
    kept, so a stack of K matrices gives K x N and K x N(N-1) arrays.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square in its last two axes, got shape {a.shape}")
    n = a.shape[-1]
    # take gathers into a new C-contiguous array, whose float view is
    # exactly the (Re, Im) interleaving.
    upper = a.reshape(a.shape[:-2] + (n * n,)).take(_upper_index(n)[0], axis=-1)
    return a.diagonal(0, -2, -1).real.copy(), upper.view(float)


def assemble_matrix(x, y) -> np.ndarray:
    """Inverse of split_matrix; Hermitian by construction.

    Leading axes of x (..., N) and y (..., N(N-1)) are kept: K rows give
    K x N x N. This is the one check of the coordinate layout's shape, so
    StateDecomposition and ReadoutModel reject mismatched coordinates here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"populations must have at least one level, got shape {x.shape}")
    n = x.shape[-1]
    expected = x.shape[:-1] + (n * (n - 1),)
    if y.shape != expected:
        raise ValueError(f"coherences must have shape {expected} (N(N-1) per row), got {y.shape}")
    c = np.ascontiguousarray(y).view(complex)
    upper, lower = _upper_index(n)
    m = np.zeros(x.shape[:-1] + (n * n,), dtype=complex)
    m[..., :: n + 1] = x
    m[..., upper] = c
    m[..., lower] = c.conj()
    return m.reshape(x.shape[:-1] + (n, n))


def decompose(rho) -> StateDecomposition:
    """Coordinates of a valid density matrix; rejects unphysical input."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    x, y = split_matrix(rho.matrix)
    return object.__new__(StateDecomposition)._set(populations=x, coherences=y)


def reconstruct(decomp: StateDecomposition) -> np.ndarray:
    """Matrix form of a decomposition. Exact inverse of decompose.

    reconstruct(decompose(rho)) is rho.matrix bit for bit, since a
    DensityMatrix holds an exactly Hermitian matrix. Hermitian by
    construction; positivity is not implied for arbitrary coordinates, so
    the return value is a plain array.
    """
    return assemble_matrix(decomp.populations, decomp.coherences)


def random_density(n_qubits: int, seed) -> DensityMatrix:
    """Full-rank random state on n qubits: G G^dag / Tr(G G^dag), Gaussian G."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 2**n_qubits
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)
