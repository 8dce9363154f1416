"""Effective measurement operators of a noisy computational-basis readout.

Measuring in the computational basis after a channel E is the same as
measuring the POVM F_k = E^dag(|k><k|) on the noiseless state. The
operator-valued kernel K(s, t) = E(|s><t|) tracks where each matrix unit
goes; its diagonal elements <k|K(l, r)|k> for l != r are exactly the terms a
purely classical assignment-matrix model cannot represent. The kernel is the
channel's superoperator read column by column, and kernel_diag_defect reads
all those diagonal elements off it at once, apart from the POVM route.

effective_povm is the one builder of the elements and validate_povm the one
validator of the POVM axioms (hermiticity, positivity, completeness), which
measures every defect, positivity by the smallest eigenvalue of the stack.
Hermiticity is measured on the input; positivity and completeness on its
Hermitian part. Povm accepts a stack that passes the hermiticity and
completeness checks and linalg.cholesky_gate without it; anything else goes
to validate_povm, which raises. A Povm keeps no report: channel-validate
runs validate_povm on its elements for the defects it prints. A Povm holds
its elements as one read-only N x N x N complex array indexed [k, i, j],
laid out by its constructor: the Hermitian part of its input, the stack
positivity and completeness were judged on, so every stored element is
exactly Hermitian and every module downstream reads the same matrices.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, apply, superoperator
from .linalg import (
    ATOL_PHYSICAL,
    Frozen,
    as_square_stack,
    cholesky_gate,
    hermiticity_and_part,
    identity_defect,
)


class PovmReport(Frozen):
    __slots__ = __match_args__ = (
        "hermiticity_defect",
        "positivity_defect",
        "completeness_defect",
        "passed",
    )

    def __init__(
        self,
        hermiticity_defect: float,
        positivity_defect: float,
        completeness_defect: float,
        passed: bool,
    ):
        self._set(
            hermiticity_defect=hermiticity_defect,
            positivity_defect=positivity_defect,
            completeness_defect=completeness_defect,
            passed=passed,
        )


def _completeness_defect(f: np.ndarray) -> float:
    """Worst entry of |sum_k F_k - I| for a stack f of finite elements."""
    with np.errstate(over="ignore"):  # an overflowing sum is an inf defect, which fails
        return identity_defect(f.sum(axis=0))


def validate_povm(elements) -> PovmReport:
    """Worst hermiticity, positivity and completeness defects of a stack of elements.

    elements is a K x N x N stack, or a sequence of N x N arrays, whose
    shape its caller checked (as Povm does with as_square_stack). The
    positivity defect is the most negative eigenvalue of any element's
    Hermitian part, clipped at zero; completeness is the Hermitian parts'
    sum measured against I.
    All three pass at ATOL_PHYSICAL; a NaN defect fails.
    """
    f = np.asarray(elements, dtype=complex)
    if not np.isfinite(f).all():
        raise ValueError("POVM elements contain non-finite entries")
    hermiticity, h = hermiticity_and_part(f)
    w_min = float(np.linalg.eigvalsh(h).min())
    positivity = 0.0 if w_min >= 0.0 else -w_min
    completeness = _completeness_defect(h)
    return PovmReport(
        hermiticity_defect=hermiticity,
        positivity_defect=positivity,
        completeness_defect=completeness,
        passed=all(d <= ATOL_PHYSICAL for d in (hermiticity, positivity, completeness)),
    )


class Povm(Frozen):
    """Validated POVM: Hermitian, positive semidefinite elements summing to I.

    elements may be given as any sequence of N x N arrays; the Hermitian
    part of a copy of them is stored, read-only, as one N x N x N complex
    array, so later changes to the caller's arrays do not reach the POVM
    and each stored element equals its conjugate transpose bit for bit. An
    exactly Hermitian input is its own Hermitian part and is stored
    unchanged. dim is the stack's N; the argument is only checked against
    it. A stack that passes the hermiticity and completeness checks and the
    Cholesky gate is accepted; any other goes to validate_povm, whose
    report raises (non-finite entries always fail the hermiticity check, so
    validate_povm names them).
    """

    __slots__ = __match_args__ = ("dim", "elements")

    def __init__(self, dim: int, elements):
        elems = as_square_stack(elements, name="POVM elements").copy()
        if elems.shape[0] != dim:
            raise ValueError(
                f"expected {dim} POVM elements for a {dim}-outcome readout, "
                f"got {elems.shape[0]}"
            )
        if elems.shape[1] != dim:
            raise ValueError(f"POVM elements have dimension {elems.shape[1]}, expected {dim}")
        hermiticity, h = hermiticity_and_part(elems)
        self._set(dim=h.shape[1], elements=h)
        if (
            hermiticity <= ATOL_PHYSICAL
            and _completeness_defect(h) <= ATOL_PHYSICAL
            and cholesky_gate(h, ATOL_PHYSICAL)
        ):
            return
        report = validate_povm(elems)
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
    """max over k and l != r of |<k| E(|l><r|) |k>|; zero iff the readout is classical.

    Column l + rN of the superoperator is vec(K(l, r)). Its entries
    <k|K(l, r)|k> sit in rows k(N + 1), the diagonal positions under either
    stacking, and the columns with l != r are the off-diagonal units.
    """
    n = ch.dim
    diagonals = superoperator(ch)[:: n + 1, ~np.eye(n, dtype=bool).reshape(-1)]
    return float(np.max(np.abs(diagonals), initial=0.0))


def offdiag_defect(p: Povm) -> float:
    """Largest off-diagonal magnitude across all POVM elements."""
    offdiag = p.elements[:, ~np.eye(p.dim, dtype=bool)]
    return float(np.max(np.abs(offdiag), initial=0.0))
