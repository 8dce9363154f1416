"""Kraus-operator representation of pre-measurement noise channels.

A channel E acts as E(rho) = sum_a E_a rho E_a^dag with the trace-preserving
completeness condition sum_a E_a^dag E_a = I. The module provides validated
channel construction, Schroedinger- and Heisenberg-picture application, the
standard single-qubit noise zoo, tensor/composition combinators, and the
column-stacked superoperator matrix used as an independent cross-check of
the readout model.

A KrausChannel holds its operators as one read-only K x N x N complex array
indexed [a, i, j], laid out and validated by its constructor; every function
here works on that stack as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import ATOL_PHYSICAL, ATOL_STRUCTURAL, as_square_array, as_square_stack, identity_defect

_ID2 = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.array([_ID2, _PAULI_X, _PAULI_Y, _PAULI_Z])
PAULIS.flags.writeable = False


def _gram(ops: np.ndarray) -> np.ndarray:
    """sum_a E_a^dag E_a of a K x N x N stack."""
    # Entries near the float range overflow to inf or NaN, a defect that fails.
    with np.errstate(over="ignore", invalid="ignore"):
        return (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a_i, b_j) for every pair, a-major: a K_a K_b x NM x NM stack."""
    n = a.shape[1] * b.shape[1]
    return np.einsum("aij,bkl->abikjl", a, b).reshape(-1, n, n)


def cptp_defect(ops: np.ndarray | Sequence[np.ndarray]) -> float:
    """Max-entry norm of sum_a E_a^dag E_a - I.

    ops is a K x N x N stack or a sequence of N x N arrays.
    """
    return identity_defect(_gram(as_square_stack(ops, name="Kraus operators")))


@dataclass(frozen=True)
class CptpReport:
    defect: float
    passed: bool


def validate_cptp(ops: np.ndarray | Sequence[np.ndarray]) -> CptpReport:
    """Check the completeness condition sum_a E_a^dag E_a = I at ATOL_PHYSICAL."""
    defect = cptp_defect(ops)
    return CptpReport(defect=defect, passed=defect <= ATOL_PHYSICAL)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP channel given by its Kraus operators; validated on construction.

    kraus_ops may be given as any sequence of N x N arrays; it is stored as a
    read-only K x N x N complex copy, so later changes to the caller's arrays
    do not reach the channel.
    """

    dim: int
    kraus_ops: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"channel dimension must be >= 1, got {self.dim}")
        ops = as_square_stack(self.kraus_ops, name="Kraus operators").copy()
        ops.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operators contain non-finite entries")
        if ops.shape[1] != self.dim:
            raise ValueError(f"Kraus operators have dimension {ops.shape[1]}, expected {self.dim}")
        report = validate_cptp(ops)
        if not report.passed:
            raise ValueError(
                f"Kraus operators violate trace preservation: "
                f"defect {report.defect:.3e} exceeds {ATOL_PHYSICAL:.1e}"
            )


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Schroedinger picture: E(rho) = sum_a E_a rho E_a^dag."""
    a = as_square_array(rho, name="rho")
    if a.shape[0] != ch.dim:
        raise ValueError(f"state dimension {a.shape[0]} does not match channel dim {ch.dim}")
    ops = ch.kraus_ops
    return (ops @ a @ ops.conj().swapaxes(1, 2)).sum(axis=0)


def adjoint_apply(ch: KrausChannel, m) -> np.ndarray:
    """Heisenberg picture: E^dag(m) = sum_a E_a^dag m E_a."""
    a = as_square_array(m)
    if a.shape[0] != ch.dim:
        raise ValueError(f"operator dimension {a.shape[0]} does not match channel dim {ch.dim}")
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
        (np.sqrt((1.0 + lam) / 2.0) * _ID2, np.sqrt((1.0 - lam) / 2.0) * _PAULI_Z),
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
    if abs(p.sum() - 1.0) > ATOL_STRUCTURAL:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")

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

    Satisfies vec(E(rho)) = H @ vec(rho) for the column-stacked vec, giving a
    full linear-map representation independent of any measurement model.
    """
    ops = ch.kraus_ops
    n2 = ch.dim * ch.dim
    return np.einsum("aij,akl->ikjl", ops.conj(), ops).reshape(n2, n2)


def random_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Random CPTP channel: i.i.d. complex Gaussian operators, right-normalized.

    The raw operators G_a are rescaled by S^{-1/2} with S = sum_a G_a^dag G_a,
    which enforces completeness exactly (up to roundoff). Deterministic per seed.
    """
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_kraus, dim, dim)) + 1j * rng.standard_normal((n_kraus, dim, dim))
    w, v = np.linalg.eigh(_gram(raw))
    if w[0] <= 0.0:
        raise ValueError("degenerate sample: normalizer is singular")
    s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel(dim, raw @ s_inv_sqrt)
