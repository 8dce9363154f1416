"""Coherence-sensitive linear readout model z = A x + C y.

A is the classical assignment matrix, A[k, l] = <l|F_k|l>: the probability
of reporting outcome k when the device holds basis state l. C extends the
model to coherent input: column pair p of C holds, for the state-coordinate
pair (Re c_lr, Im c_lr), the responses 2*Re<l|F_k|r> and 2*Im<l|F_k|r>.
The factor 2 absorbs the two conjugate off-diagonal terms of Tr(F_k rho),
so the identity z_k = Tr(F_k rho) = (A x + C y)_k holds literally in the
coordinates of states.StateDecomposition.

oracle_probabilities reproduces z as the Born rule on E(rho), the channel
applied to the state in the Schroedinger picture, without touching the POVM
coefficient path (the Heisenberg picture), which pins every sign and
ordering convention above. closed_form_zoo lists the built-in channels
whose (A, C) is known in closed form.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, amplitude_damping, apply, dephasing, rotation_y
from .linalg import ATOL_PHYSICAL, Frozen
from .povm import Povm
from .states import DensityMatrix, StateDecomposition, assemble_matrix, split_matrix


class ReadoutModel(Frozen):
    """Assignment matrix (N x N) and coherence response (N x N(N-1)).

    Row k of the assignment matrix and of half the coherence response are
    the diagonal and the packed upper triangle of a POVM element F_k. The
    pair is accepted only if the F_k rebuilt from them form a Povm, so that
    z = A x + C y is a probability distribution for every state; extract
    reads the pair off a Povm that already passed, and skips that check.
    Both are held as read-only copies.
    """

    __slots__ = __match_args__ = ("assignment", "coherence")

    def __init__(self, assignment, coherence):
        a = np.array(assignment, dtype=float)
        c = np.array(coherence, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"assignment matrix must be square, got shape {a.shape}")
        Povm(a.shape[0], assemble_matrix(a, c / 2.0))
        self._set(assignment=a, coherence=c)

    @property
    def dim(self) -> int:
        return self.assignment.shape[0]


def extract(p: Povm) -> ReadoutModel:
    """Read the model coefficients off the POVM elements.

    Row k of A and of C / 2 are the populations and coherences that
    split_matrix reads off F_k. p was validated when it was built, so the
    model skips the rebuild and second validation that ReadoutModel(A, C)
    runs on coefficients of unknown origin. Its elements are exactly
    Hermitian, so their diagonals are real and assemble_matrix(A, C / 2)
    rebuilds them bit for bit.
    """
    x, y = split_matrix(p.elements)
    return object.__new__(ReadoutModel)._set(assignment=x, coherence=2.0 * y)


def forward(model: ReadoutModel, decomp: StateDecomposition) -> np.ndarray:
    """Predicted outcome distribution z = A x + C y."""
    if decomp.dim != model.dim:
        raise ValueError(f"dimension mismatch: model {model.dim}, state {decomp.dim}")
    return model.assignment @ decomp.populations + model.coherence @ decomp.coherences


def classical_forward(model: ReadoutModel, x) -> np.ndarray:
    """Assignment-only prediction z = A x, ignoring coherence entirely."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"population vector must have shape ({model.dim},)")
    with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
        total = x.sum()
    if not abs(total - 1.0) <= ATOL_PHYSICAL:
        raise ValueError(f"populations must sum to 1, got {total!r}")
    return model.assignment @ x


def oracle_probabilities(ch: KrausChannel, rho) -> np.ndarray:
    """Outcome distribution by the Born rule on the channel's output: diag of E(rho).

    E(rho) = sum_a E_a rho E_a^dag is applied to the state itself, so this
    is independent of the POVM/coefficient route; used to cross-check forward().
    apply judges the state's dimension against the channel's.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return apply(ch, rho.matrix).diagonal().real.copy()


def nonclassicality(model: ReadoutModel, norm: str = "max") -> float:
    """Size of the coherence response; zero iff the readout is classical."""
    if norm == "max":
        return float(np.max(np.abs(model.coherence))) if model.coherence.size else 0.0
    if norm == "frobenius":
        return float(np.linalg.norm(model.coherence))
    raise ValueError(f"unknown norm {norm!r}, expected 'max' or 'frobenius'")


def closed_form_zoo() -> list[tuple[str, float, KrausChannel, np.ndarray, np.ndarray]]:
    """Built-in channels with their closed-form models: (name, parameter, channel, A, C)."""
    cases = []
    for lam in (0.0, 0.5, 1.0):
        cases.append(("dephasing", lam, dephasing(lam), np.eye(2), np.zeros((2, 2))))
    for gamma in (0.0, 0.3, 1.0):
        a = np.array([[1.0, gamma], [0.0, 1.0 - gamma]])
        cases.append(("amplitude_damping", gamma, amplitude_damping(gamma), a, np.zeros((2, 2))))
    for theta in (0.0, 0.3, np.pi / 2, np.pi):
        c2 = np.cos(theta / 2.0) ** 2
        s2 = np.sin(theta / 2.0) ** 2
        a = np.array([[c2, s2], [s2, c2]])
        c = np.array([[np.sin(theta), 0.0], [-np.sin(theta), 0.0]])
        cases.append(("rotation_y", theta, rotation_y(theta), a, c))
    return cases
