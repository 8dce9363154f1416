"""Density matrices and their real coordinate decomposition.

A valid N x N density matrix splits into N real populations
x_l = <l|rho|l> and N(N-1) real coherence coordinates packing the upper
triangle: for each pair l < r in lexicographic order, the entry
c_lr = <l|rho|r> contributes (Re c_lr, Im c_lr) consecutively. That layout
is shared by the readout model's coherence-response matrix and the
mitigation solver, so it is defined once here, as one cached pair of flat
indices into the row-major N*N entries: l*N + r for the upper triangle and
r*N + l for the mirrored lower one. Packing gathers the upper entries of a
flattened matrix (or stack) in one step; assembling scatters them, and their
conjugates, in one step each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ATOL_PHYSICAL, as_square_array, hermiticity_and_min_eigenvalue


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


def pack_coherences(m) -> np.ndarray:
    """Upper-triangle entries of m as interleaved (Re, Im) coordinates.

    m is a complex array whose last two axes are N x N; leading axes are
    kept, so a stack of K matrices gives a K x N(N-1) array.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    upper = _upper_index(n)[0]
    # The float view of a C-contiguous complex128 array is exactly the
    # (Re, Im) interleaving. The gather need not come out C-contiguous (for
    # a stack it does not), so it is made so first.
    flat = m.reshape(m.shape[:-2] + (n * n,))
    return np.ascontiguousarray(flat[..., upper]).view(float)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        a = as_square_array(self.matrix, name="density matrix")
        object.__setattr__(self, "matrix", a)
        if not np.isfinite(a).all():
            raise ValueError("density matrix contains non-finite entries")
        hermiticity, w_min = hermiticity_and_min_eigenvalue(a)
        if not hermiticity <= ATOL_PHYSICAL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        trace = complex(a.trace())
        if not abs(trace - 1.0) <= ATOL_PHYSICAL:
            raise ValueError(f"density matrix trace {trace!r} is not 1 within 1e-10")
        if not w_min >= -ATOL_PHYSICAL:
            raise ValueError(f"density matrix has negative eigenvalue {w_min:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateDecomposition:
    """Real coordinates of a state: populations x and packed coherences y."""

    populations: np.ndarray
    coherences: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.populations, dtype=float)
        y = np.asarray(self.coherences, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("populations must be a non-empty 1-d real vector")
        n = x.size
        if y.ndim != 1 or y.size != n * (n - 1):
            raise ValueError(
                f"coherence vector must have length N(N-1) = {n * (n - 1)}, got {y.size}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("state coordinates contain non-finite entries")
        if abs(x.sum() - 1.0) > ATOL_PHYSICAL:
            raise ValueError(f"populations must sum to 1, got {x.sum()!r}")
        if x.min() < -ATOL_PHYSICAL:
            raise ValueError(f"negative population {x.min():.3e}")
        object.__setattr__(self, "populations", x)
        object.__setattr__(self, "coherences", y)

    @property
    def dim(self) -> int:
        return self.populations.size


def split_matrix(m) -> tuple[np.ndarray, np.ndarray]:
    """Raw coordinate extraction from a Hermitian matrix; no physicality checks."""
    a = as_square_array(m)
    return a.diagonal().real.copy(), pack_coherences(a)


def assemble_matrix(x, y) -> np.ndarray:
    """Inverse of split_matrix and pack_coherences; Hermitian by construction.

    Leading axes of x (..., N) and y (..., N(N-1)) are kept: K rows give K x N x N.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    return StateDecomposition(populations=x, coherences=y)


def reconstruct(decomp: StateDecomposition) -> np.ndarray:
    """Matrix form of a decomposition. Exact inverse of decompose.

    Hermitian by construction; positivity is not implied for arbitrary
    coordinates, so the return value is a plain array.
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
