"""Dense complex linear algebra shared across the package.

Everything operates on plain numpy arrays (complex128, square, dense).
Matrices here are small: the package targets desk-scale problems, N <= 64.
Hermitian eigenproblems go to LAPACK through numpy.linalg. Positivity is
decided in two steps: cholesky_gate accepts a Hermitian matrix (or stack)
whose Cholesky factorization after a shift by tol succeeds, at a fraction of
the cost of an eigensolve, and only what it declines goes on to the
smallest eigenvalue, which alone rejects and measures the defect. Frozen,
the base of the package's value types, lives here because every module
imports this one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Default absolute tolerances: physical constraints (positivity, trace
# preservation, completeness) versus exact structural identities.
ATOL_PHYSICAL = 1e-10
ATOL_STRUCTURAL = 1e-12


class Frozen:
    """Base of the package's value types: immutable, printed and compared by field.

    A subclass names its constructor fields in __match_args__ and all its
    attributes in __slots__, and sets them in its own __init__ through
    _set; attributes outside __match_args__ are left out of repr, == and
    hash. Array fields compare with np.array_equal, and hash works only
    where no field is an array.
    """

    __slots__ = ()
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **fields):
        """Set each field past the __setattr__ guard and return self.

        Array fields must be the object's own, not a caller's: they are made
        read-only in place. object.__new__(cls)._set(...) builds a cls from
        values derived from an object that already passed validation.
        """
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        return self

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._fields(), other._fields())
        )

    def __hash__(self) -> int:
        return hash(self._fields())

    # Arrays that pickling and copying made are the new object's own, so
    # _set makes them read-only too.
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        self._set(**state)


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


def hermiticity_and_part(m) -> tuple[float, np.ndarray]:
    """Worst entry of |m - m^dag| and the Hermitian part of m.

    m is one N x N matrix or a K x N x N stack, already checked for shape
    (as_square_array, as_square_stack); the defect is taken over the whole
    stack. The difference m - m^dag can overflow, or meet inf - inf; its inf
    or NaN is a defect every caller rejects, so neither warns. An exactly
    Hermitian m is its own Hermitian part and is returned as it is;
    otherwise the part is formed as m/2 + m^dag/2, which stays finite for
    every finite m.
    """
    a = np.asarray(m, dtype=complex)
    a_dag = a.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        hermiticity = float(np.abs(a - a_dag).max())
        return hermiticity, a if hermiticity == 0.0 else a / 2.0 + a_dag / 2.0


@lru_cache(maxsize=None)
def _shift(n: int, tol: float) -> np.ndarray:
    """tol * I of size n; read-only, shared."""
    shift = tol * np.eye(n)
    shift.flags.writeable = False
    return shift


def cholesky_gate(h: np.ndarray, tol: float) -> bool:
    """True if every matrix of the Hermitian h (N x N or K x N x N) has no eigenvalue below -tol.

    An accept-only test: it passes when the Cholesky factorization of
    h + tol I succeeds for the whole stack and gives a finite factor, which
    happens exactly when the smallest eigenvalue exceeds -tol, up to
    rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 10). A False proves nothing: callers then take the smallest
    eigenvalue, which alone rejects and reports the defect. Only the lower
    triangle of h is read, so h must be exactly Hermitian, as
    hermiticity_and_part returns it. NaN and inf are declined, and so is a
    matrix whose factorization overflows near the float range.
    """
    shifted = h + _shift(h.shape[-1], tol) if tol else h
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def identity_defect(s: np.ndarray) -> float:
    """Worst entry of |s - I| for a square matrix s of its caller's own, which it overwrites.

    Subtracting 1 from the diagonal in place gives the numbers of s - I
    without building I.
    """
    s.flat[:: s.shape[0] + 1] -= 1.0
    return float(np.abs(s).max())

