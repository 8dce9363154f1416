"""Effective measurement operators of a noisy computational-basis readout.

Measuring in the computational basis after a channel E is the same as
measuring the POVM F_k = E^dag(|k><k|) on the noiseless state. The
operator-valued kernel K(s, t) = E(|s><t|) tracks where each matrix unit
goes; its diagonal elements <k|K(l, r)|k| for l != r are exactly the terms a
purely classical assignment-matrix model cannot represent.

effective_povm is the one builder of the elements and validate_povm the one
validator of the POVM axioms (hermiticity, positivity, completeness): Povm
keeps its report and raises from it, and channel-validate prints it. A Povm
holds its elements as one read-only N x N x N complex array indexed
[k, i, j], laid out by its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, apply
from .linalg import ATOL_PHYSICAL, as_square_stack, hermiticity_and_min_eigenvalue, identity_defect


@dataclass(frozen=True)
class PovmReport:
    hermiticity_defect: float
    positivity_defect: float
    completeness_defect: float
    passed: bool


def validate_povm(elements) -> PovmReport:
    """Worst hermiticity, positivity and completeness defects of a stack of elements.

    elements is a K x N x N stack (or a sequence of N x N arrays). The
    positivity defect is the most negative eigenvalue of any element's
    Hermitian part, clipped at zero; completeness is measured against I.
    All three pass at ATOL_PHYSICAL; a NaN defect fails.
    """
    f = as_square_stack(elements, name="POVM elements")
    if not np.isfinite(f).all():
        raise ValueError("POVM elements contain non-finite entries")
    hermiticity, w_min = hermiticity_and_min_eigenvalue(f)
    positivity = 0.0 if w_min >= 0.0 else -w_min
    completeness = identity_defect(f.sum(axis=0))
    return PovmReport(
        hermiticity_defect=hermiticity,
        positivity_defect=positivity,
        completeness_defect=completeness,
        passed=all(d <= ATOL_PHYSICAL for d in (hermiticity, positivity, completeness)),
    )


@dataclass(frozen=True)
class Povm:
    """Validated POVM: Hermitian, positive semidefinite elements summing to I.

    elements may be given as any sequence of N x N arrays; it is stored as a
    read-only N x N x N complex copy, so later changes to the caller's arrays
    do not reach the POVM. report is the validate_povm result it passed.
    """

    dim: int
    elements: np.ndarray
    report: PovmReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = as_square_stack(self.elements, name="POVM elements").copy()
        elems.flags.writeable = False
        object.__setattr__(self, "elements", elems)
        if elems.shape[0] != self.dim:
            raise ValueError(
                f"expected {self.dim} POVM elements for a {self.dim}-outcome readout, "
                f"got {elems.shape[0]}"
            )
        if elems.shape[1] != self.dim:
            raise ValueError(f"POVM elements have dimension {elems.shape[1]}, expected {self.dim}")
        report = validate_povm(elems)
        object.__setattr__(self, "report", report)
        for axiom, defect in (
            ("hermiticity", report.hermiticity_defect),
            ("positivity", report.positivity_defect),
            ("completeness", report.completeness_defect),
        ):
            if not defect <= ATOL_PHYSICAL:
                raise ValueError(
                    f"POVM {axiom} violated: defect {defect:.3e} exceeds {ATOL_PHYSICAL:.1e}"
                )


def effective_povm(ch: KrausChannel) -> Povm:
    """POVM equivalent to basis measurement after the channel: F_k = E^dag(|k><k|).

    Entrywise F_k[i, j] = sum_a conj(E_a[k, i]) E_a[k, j], for all k at once.
    """
    ops = ch.kraus_ops
    return Povm(dim=ch.dim, elements=np.einsum("aki,akj->kij", ops.conj(), ops))


def kernel(ch: KrausChannel, s: int, t: int) -> np.ndarray:
    """Image of the matrix unit |s><t| under the channel. Computed on demand."""
    if not (0 <= s < ch.dim and 0 <= t < ch.dim):
        raise ValueError(f"kernel indices ({s}, {t}) out of range for dim {ch.dim}")
    unit = np.zeros((ch.dim, ch.dim), dtype=complex)
    unit[s, t] = 1.0
    return apply(ch, unit)


def kernel_diag_defect(ch: KrausChannel) -> float:
    """max over k and l != r of |<k| E(|l><r|) |k>|; zero iff the readout is classical."""
    worst = 0.0
    for l in range(ch.dim):
        for r in range(ch.dim):
            if l == r:
                continue
            worst = max(worst, float(np.max(np.abs(kernel(ch, l, r).diagonal()))))
    return worst


def offdiag_defect(p: Povm) -> float:
    """Largest off-diagonal magnitude across all POVM elements."""
    offdiag = p.elements[:, ~np.eye(p.dim, dtype=bool)]
    return float(np.max(np.abs(offdiag), initial=0.0))
