"""Kraus-operator representation of pre-measurement noise channels.

A channel E acts as E(rho) = sum_a E_a rho E_a^dag with the trace-preserving
completeness condition sum_a E_a^dag E_a = I. The module provides validated
channel construction, Schroedinger- and Heisenberg-picture application, the
standard single-qubit noise zoo, tensor/composition combinators, and the
column-stacked superoperator matrix used as an independent cross-check of
the readout model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import ATOL_PHYSICAL, as_square_array, kron

_ID2 = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (_ID2, _PAULI_X, _PAULI_Y, _PAULI_Z)


def _coerce_ops(ops, dim: int) -> tuple[np.ndarray, ...]:
    coerced = []
    for i, op in enumerate(ops):
        a = as_square_array(op, name=f"Kraus operator {i}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"Kraus operator {i} contains non-finite entries")
        if a.shape[0] != dim:
            raise ValueError(
                f"Kraus operator {i} has dimension {a.shape[0]}, expected {dim}"
            )
        coerced.append(a)
    return tuple(coerced)


def cptp_defect(ops: Sequence[np.ndarray]) -> float:
    """Max-entry norm of sum_a E_a^dag E_a - I."""
    ops = list(ops)
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    dim = as_square_array(ops[0]).shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for op in ops:
        a = as_square_array(op)
        if a.shape[0] != dim:
            raise ValueError("Kraus operators have mismatched dimensions")
        total += a.conj().T @ a
    return float(np.max(np.abs(total - np.eye(dim))))


@dataclass(frozen=True)
class CptpReport:
    defect: float
    tol: float
    passed: bool


def validate_cptp(ops: Sequence[np.ndarray], tol: float = ATOL_PHYSICAL) -> CptpReport:
    """Check the completeness condition sum_a E_a^dag E_a = I at tolerance tol."""
    defect = cptp_defect(ops)
    return CptpReport(defect=defect, tol=tol, passed=defect <= tol)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP channel given by its Kraus operators; validated on construction."""

    dim: int
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"channel dimension must be >= 1, got {self.dim}")
        ops = _coerce_ops(self.kraus_ops, self.dim)
        object.__setattr__(self, "kraus_ops", ops)
        report = validate_cptp(ops)
        if not report.passed:
            raise ValueError(
                f"Kraus operators violate trace preservation: "
                f"defect {report.defect:.3e} exceeds {report.tol:.1e}"
            )


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Schroedinger picture: E(rho) = sum_a E_a rho E_a^dag."""
    a = as_square_array(rho, name="rho")
    if a.shape[0] != ch.dim:
        raise ValueError(f"state dimension {a.shape[0]} does not match channel dim {ch.dim}")
    out = np.zeros_like(a)
    for op in ch.kraus_ops:
        out += op @ a @ op.conj().T
    return out


def adjoint_apply(ch: KrausChannel, m) -> np.ndarray:
    """Heisenberg picture: E^dag(m) = sum_a E_a^dag m E_a."""
    a = as_square_array(m)
    if a.shape[0] != ch.dim:
        raise ValueError(f"operator dimension {a.shape[0]} does not match channel dim {ch.dim}")
    out = np.zeros_like(a)
    for op in ch.kraus_ops:
        out += op.conj().T @ a @ op
    return out


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


def pauli_channel(probs: Sequence[float], n_qubits: int | None = None) -> KrausChannel:
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
    if n_qubits is not None and n_qubits != n:
        raise ValueError(f"probs length {p.size} does not match n_qubits={n_qubits}")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")

    strings = [np.array([[1.0]], dtype=complex)]
    for _ in range(n):
        strings = [kron(s, sigma) for s in strings for sigma in PAULIS]
    ops = tuple(np.sqrt(pi) * s for pi, s in zip(p, strings) if pi > 0.0)
    return KrausChannel(2**n, ops)


def tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Independent noise on two subsystems, a on the left (most significant)."""
    ops = tuple(kron(ea, eb) for ea in a.kraus_ops for eb in b.kraus_ops)
    return KrausChannel(a.dim * b.dim, ops)


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Sequential application: (outer o inner)(rho) = outer(inner(rho))."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    ops = tuple(eo @ ei for eo in outer.kraus_ops for ei in inner.kraus_ops)
    return KrausChannel(outer.dim, ops)


def superoperator(ch: KrausChannel) -> np.ndarray:
    """Column-stacking superoperator H = sum_a conj(E_a) (x) E_a.

    Satisfies vec(E(rho)) = H @ vec(rho) for the column-stacked vec, giving a
    full linear-map representation independent of any measurement model.
    """
    n2 = ch.dim * ch.dim
    h = np.zeros((n2, n2), dtype=complex)
    for op in ch.kraus_ops:
        h += kron(op.conj(), op)
    return h


def random_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Random CPTP channel: i.i.d. complex Gaussian operators, right-normalized.

    The raw operators G_a are rescaled by S^{-1/2} with S = sum_a G_a^dag G_a,
    which enforces completeness exactly (up to roundoff). Deterministic per seed.
    """
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_kraus, dim, dim)) + 1j * rng.standard_normal((n_kraus, dim, dim))
    s = np.zeros((dim, dim), dtype=complex)
    for g in raw:
        s += g.conj().T @ g
    w, v = np.linalg.eigh(s)
    if w[0] <= 0.0:
        raise ValueError("degenerate sample: normalizer is singular")
    s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel(dim, tuple(g @ s_inv_sqrt for g in raw))
