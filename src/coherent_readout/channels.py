"""Kraus-operator representation of pre-measurement noise channels.

A channel E acts as E(rho) = sum_a E_a rho E_a^dag with the trace-preserving
completeness condition sum_a E_a^dag E_a = I. The module provides validated
channel construction, Schroedinger- and Heisenberg-picture application, the
standard single-qubit noise zoo, tensor/composition combinators, and the
column-stacked superoperator matrix, from which povm.kernel_diag_defect
reads the kernel as an independent cross-check of the readout model.

A KrausChannel holds its operators as one read-only K x N x N complex array
indexed [a, i, j], laid out and validated by its constructor; every function
here works on that stack as a whole.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import (
    ATOL_PHYSICAL,
    ATOL_STRUCTURAL,
    Frozen,
    as_square_array,
    as_square_stack,
    identity_defect,
)

# I, X, Y, Z
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULIS.flags.writeable = False


def _gram(ops: np.ndarray) -> np.ndarray:
    """sum_a E_a^dag E_a of a K x N x N stack; non-finite entries raise ValueError."""
    if not np.isfinite(ops).all():
        raise ValueError("Kraus operators contain non-finite entries")
    # Entries near the float range overflow to inf or NaN, a defect that fails.
    with np.errstate(over="ignore", invalid="ignore"):
        return (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a_i, b_j) for every pair, a-major: a K_a K_b x NM x NM stack."""
    n = a.shape[1] * b.shape[1]
    return np.einsum("aij,bkl->abikjl", a, b).reshape(-1, n, n)


class CptpReport(Frozen):
    __slots__ = __match_args__ = ("defect", "passed")

    def __init__(self, defect: float, passed: bool):
        self._set(defect=defect, passed=passed)


def validate_cptp(ops: np.ndarray | Sequence[np.ndarray]) -> CptpReport:
    """Check the completeness condition sum_a E_a^dag E_a = I at ATOL_PHYSICAL.

    ops is a K x N x N stack or a sequence of N x N arrays; the defect is
    the max-entry norm of sum_a E_a^dag E_a - I. Non-finite entries raise
    ValueError, as in KrausChannel.
    """
    defect = identity_defect(_gram(as_square_stack(ops, name="Kraus operators")))
    return CptpReport(defect=defect, passed=defect <= ATOL_PHYSICAL)


class KrausChannel(Frozen):
    """A CPTP channel given by its Kraus operators; validated on construction.

    kraus_ops may be given as any sequence of N x N arrays; it is stored as a
    read-only K x N x N complex copy, so later changes to the caller's arrays
    do not reach the channel. dim is the stack's N; the argument is only
    checked against it.
    """

    __slots__ = __match_args__ = ("dim", "kraus_ops")

    def __init__(self, dim: int, kraus_ops: np.ndarray | Sequence[np.ndarray]):
        ops = as_square_stack(kraus_ops, name="Kraus operators").copy()
        self._set(dim=ops.shape[1], kraus_ops=ops)
        # The stack's shape is checked, so this is validate_cptp's defect, and its
        # non-finite check, without the re-check of the shape.
        defect = identity_defect(_gram(ops))
        if ops.shape[1] != dim:
            raise ValueError(f"Kraus operators have dimension {ops.shape[1]}, expected {dim}")
        if not defect <= ATOL_PHYSICAL:
            raise ValueError(
                f"Kraus operators violate trace preservation: "
                f"defect {defect:.3e} exceeds {ATOL_PHYSICAL:.1e}"
            )


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Schroedinger picture: E(rho) = sum_a E_a rho E_a^dag."""
    a = as_square_array(rho, name="rho")
    if a.shape[0] != ch.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {a.shape[0]}")
    ops = ch.kraus_ops
    return (ops @ a @ ops.conj().swapaxes(1, 2)).sum(axis=0)


def adjoint_apply(ch: KrausChannel, m) -> np.ndarray:
    """Heisenberg picture: E^dag(m) = sum_a E_a^dag m E_a."""
    a = as_square_array(m)
    if a.shape[0] != ch.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, operator {a.shape[0]}")
    ops = ch.kraus_ops
    return (ops.conj().swapaxes(1, 2) @ a @ ops).sum(axis=0)


def identity(dim: int = 2) -> KrausChannel:
    """The noiseless channel on a dim-level system."""
    return KrausChannel(dim, (np.eye(dim, dtype=complex),))


def dephasing(lam: float) -> KrausChannel:
    """Uniform suppression of single-qubit off-diagonal elements by lam.

    Acts entrywise as rho_01 -> lam * rho_01 with populations untouched.
    Kraus operators: sqrt((1+lam)/2) I and sqrt((1-lam)/2) Z, lam in [0, 1].
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing parameter must lie in [0, 1], got {lam}")
    return KrausChannel(
        2,
        (np.sqrt((1.0 + lam) / 2.0) * PAULIS[0], np.sqrt((1.0 - lam) / 2.0) * PAULIS[3]),
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Single-qubit energy relaxation |1> -> |0> with probability gamma.

    Kraus operators: E_0 = |0><0| + sqrt(1-gamma) |1><1|, E_1 = sqrt(gamma) |0><1|.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping probability must lie in [0, 1], got {gamma}")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(2, (e0, e1))


def rotation_y(theta: float) -> KrausChannel:
    """Coherent single-qubit rotation about the y axis, one unitary Kraus operator.

    U = [[cos(theta/2), sin(theta/2)], [-sin(theta/2), cos(theta/2)]], oriented
    so the effective measurement operators acquire off-diagonal entries
    +sin(theta)/2 and the channel maps |1> toward +|0> for small theta.
    """
    if not -np.inf < theta < np.inf:
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    u = np.array([[c, s], [-s, c]], dtype=complex)
    return KrausChannel(2, (u,))


def pauli_channel(probs: Sequence[float]) -> KrausChannel:
    """Random-Pauli noise: apply the i-th n-qubit Pauli string with probability probs[i].

    Strings are ordered I, X, Y, Z per qubit, lexicographic across qubits with
    the first qubit most significant; probs must have length 4**n and sum to 1.
    Zero-probability terms are dropped.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a non-empty 1-d sequence")
    n = int(round(np.log(p.size) / np.log(4)))
    if 4**n != p.size:
        raise ValueError(f"probs must have length 4**n, got {p.size}")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
        total = p.sum()
    if not abs(total - 1.0) <= ATOL_STRUCTURAL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")

    strings = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        strings = _kron_pairs(strings, PAULIS)
    keep = p > 0.0
    return KrausChannel(2**n, np.sqrt(p[keep])[:, None, None] * strings[keep])


def tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Independent noise on two subsystems, a on the left (most significant)."""
    return KrausChannel(a.dim * b.dim, _kron_pairs(a.kraus_ops, b.kraus_ops))


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Sequential application: (outer o inner)(rho) = outer(inner(rho))."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    ops = outer.kraus_ops[:, None] @ inner.kraus_ops[None, :]
    return KrausChannel(outer.dim, ops.reshape(-1, outer.dim, outer.dim))


def superoperator(ch: KrausChannel) -> np.ndarray:
    """Column-stacking superoperator H = sum_a conj(E_a) (x) E_a.

    Satisfies vec(E(rho)) = H @ vec(rho), where vec stacks the columns of an
    N x N matrix (entry (r, c) lands at index c*N + r; in numpy
    m.reshape(-1, order="F")). Column l + rN of H is therefore vec(E(|l><r|)):
    a full linear-map representation independent of any measurement model.
    """
    ops = ch.kraus_ops
    n2 = ch.dim * ch.dim
    return np.einsum("aij,akl->ikjl", ops.conj(), ops).reshape(n2, n2)


def random_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Random CPTP channel: i.i.d. complex Gaussian operators, right-normalized.

    The raw operators G_a are rescaled by S^{-1/2} with S = sum_a G_a^dag G_a,
    which enforces completeness exactly (up to roundoff). Deterministic per seed.
    """
    if dim < 1:
        raise ValueError("need a dimension of at least one")
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_kraus, dim, dim)) + 1j * rng.standard_normal((n_kraus, dim, dim))
    w, v = np.linalg.eigh(_gram(raw))
    if w[0] <= 0.0:
        raise ValueError("degenerate sample: normalizer is singular")
    s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel(dim, raw @ s_inv_sqrt)
