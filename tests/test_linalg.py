import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_hermitian
from coherent_readout import cli, povm
from coherent_readout.channels import KrausChannel, random_channel
from coherent_readout.formats import channel_to_obj
from coherent_readout.linalg import ATOL_PHYSICAL, cholesky_gate, hermiticity_and_part
from coherent_readout.povm import Povm, effective_povm, validate_povm
from coherent_readout.readout import extract, forward
from coherent_readout.solver import MitigationProblem, mitigate
from coherent_readout.states import DensityMatrix, decompose, random_density


def min_eigenvalue(m):
    """Smallest eigenvalue of the Hermitian part of m, a matrix or a stack.

    validate_povm's positivity defect is this value negated and clipped at
    zero; the eigen step is repeated here only to recover a positive
    minimum, and the defect must match it bit for bit.
    """
    stack = np.asarray(m, dtype=complex).reshape(-1, *np.shape(m)[-2:])
    w_min = float(np.linalg.eigvalsh(hermiticity_and_part(stack)[1]).min())
    assert validate_povm(stack).positivity_defect == (0.0 if w_min >= 0.0 else -w_min)
    return w_min


def char_poly_roots(m):
    # Independent oracle: Faddeev-LeVerrier coefficients, companion-matrix roots.
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        mk = m @ (mk + c * np.eye(n))
        c = -np.trace(mk) / k
        coeffs[k] = c
    return np.roots(coeffs)


def test_is_hermitian():
    assert hermiticity_and_part(np.array([[0, -1j], [1j, 0]]))[0] == 0.0
    assert hermiticity_and_part(np.array([[0.0, 1.0], [0.0, 0.0]]))[0] == 1.0
    assert hermiticity_and_part(np.array([[1.0, 1e-12], [0.0, 1.0]]))[0] == 1e-12


def test_hermitian_part_fixes_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    hermiticity, h = hermiticity_and_part(m)
    assert hermiticity == 2.0
    assert np.array_equal(h, [[1.0, 1.0], [1.0, 3.0]])
    # Positivity is measured on the Hermitian part [[1, 1], [1, 3]].
    assert validate_povm(-m[None]).positivity_defect == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-14)


@given(k=st.integers(1, 4), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stack_takes_worst_over_its_matrices(k, dim, seed):
    stack = np.array([random_complex(dim, seed + i) for i in range(k)])
    hermiticity, h = hermiticity_and_part(stack)
    assert hermiticity == max(hermiticity_and_part(m)[0] for m in stack)
    assert np.array_equal(h, [hermiticity_and_part(m)[1] for m in stack])
    assert min_eigenvalue(stack) == pytest.approx(min(min_eigenvalue(m) for m in stack), abs=1e-12)


def test_hermitian_part_does_not_overflow():
    # (m + m^dag)/2 overflows to inf here and its eigenvalues come out NaN.
    m = np.diag([1e308, -1e308])
    hermiticity, h = hermiticity_and_part(m)
    assert hermiticity == 0.0
    assert np.array_equal(h, m)
    assert validate_povm(m[None]).positivity_defect == 1e308


def test_hermiticity_defect_overflows_without_warning():
    # m - m^dag overflows to inf; RuntimeWarnings are errors in this suite.
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    hermiticity, h = hermiticity_and_part(m)
    assert hermiticity == np.inf
    assert np.array_equal(h, np.zeros((2, 2)))
    assert validate_povm(m[None]).hermiticity_defect == np.inf


def test_min_eigenvalue_identity():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue(np.diag([1.0, 0.3])) == pytest.approx(0.3, abs=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_min_eigenvalue_matches_characteristic_polynomial(seed):
    m = random_hermitian(4, seed)
    roots = char_poly_roots(m)
    assert np.max(np.abs(roots.imag)) < 1e-8  # Hermitian: all roots real
    assert min_eigenvalue(m) == pytest.approx(roots.real.min(), abs=1e-10)


@given(
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_min_eigenvalue_shift_covariance(dim, seed, shift):
    m = random_hermitian(dim, seed)
    base = min_eigenvalue(m)
    shifted = min_eigenvalue(m + shift * np.eye(dim))
    assert shifted == pytest.approx(base + shift, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_eigh_jacobi_matches_lapack(dim, seed):
    # The name dates from the hand-written Jacobi eigensolver that LAPACK
    # replaced; it is kept so results compare across versions. The general
    # (non-Hermitian) LAPACK driver is an independent route.
    m = random_hermitian(dim, seed)
    assert abs(min_eigenvalue(m) - np.linalg.eigvals(m).real.min()) < 1e-11


def test_eigh_jacobi_eigenpairs():
    # Named, like the test above, after the eigensolver LAPACK replaced.
    m = random_hermitian(5, 77)
    w = min_eigenvalue(m)
    # m - w I is singular: its smallest right-singular vector is an eigenvector.
    _, _, vh = np.linalg.svd(m - w * np.eye(5))
    v = vh[-1].conj()
    assert np.max(np.abs(m @ v - w * v)) < 1e-11


# ------------------------------------------------------------ cholesky gate


def hermitian_stack(rng, dim, k, w_min):
    """k exactly Hermitian dim x dim matrices in random order, one of them with smallest
    eigenvalue w_min and the others with spectra in [0.05, 1]."""
    out = []
    for i in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w = rng.uniform(0.1, 1.0, dim)
        w[0] = w_min if i == 0 else rng.uniform(0.05, 0.1)
        h = (q * w) @ q.conj().T
        out.append((h + h.conj().T) / 2.0)
    return np.array(out)[rng.permutation(k)]


@pytest.mark.parametrize("tol", [1e-10, 0.0])
def test_cholesky_gate_agrees_with_eigvalsh(tol):
    # w_min = -tol (1 -/+ margin) on the accepting/declining side, from
    # 1e-4 of tol out to 1e3 of it (of 1e-10 where tol is 0). Closer in, at
    # 1e-6 (about 1e-16 absolute), the two disagree where rounding limits
    # eigvalsh itself.
    rng = np.random.default_rng(int(tol == 0.0))
    scale = tol or 1e-10
    for dim in (2, 3, 4, 6, 8, 12, 16, 24, 32):
        for margin in (1e-4, 1e-2, 1.0, 1e3):
            for side in (1, -1):
                for _ in range(4):
                    h = hermitian_stack(rng, dim, 3, -tol + side * margin * scale)
                    by_eigvalsh = bool(np.linalg.eigvalsh(h).min() > -tol)
                    assert cholesky_gate(h, tol) is by_eigvalsh is (side > 0), (dim, margin, side)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tol", [1e-10, 0.0])
def test_cholesky_gate_declines_non_finite(bad, tol):
    # eigvalsh returns -0.0 for diag(NaN, 1); the gate declines it.
    assert not cholesky_gate(np.diag([bad, 1.0]).astype(complex), tol)
    off = np.array([[1.0, bad], [bad, 1.0]], dtype=complex)
    assert not cholesky_gate(np.array([np.eye(2), off]), tol)


@pytest.mark.parametrize(
    "h",
    [
        np.diag([1e308, -1e308]),
        np.array([[1.0, 1e308], [1e308, 1.0]]),
        np.full((2, 2), 1e308),  # rank one: a zero pivot, as the shift is absorbed
        np.full((3, 3), 1e308),  # the factor's running sums overflow
    ],
    ids=["negative", "off-diagonal", "zero-pivot", "overflow"],
)
def test_cholesky_gate_declines_entries_near_the_float_range(h):
    # Declining costs only an eigensolve; no RuntimeWarning (errors in this suite).
    assert not cholesky_gate(h.astype(complex), ATOL_PHYSICAL)


def test_cholesky_gate_is_no_magnitude_filter():
    assert cholesky_gate(np.diag([1.7e308, 1e308]).astype(complex), ATOL_PHYSICAL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cholesky_gate_accepts_a_rank_deficient_povm(seed):
    # Each F_k of a 3-qubit channel with 4 Kraus operators has rank at most 4
    # of 8, so half its spectrum is zero up to rounding; the shift by the
    # tolerance lets the factorization through, as in every 3-qubit chain.
    elements = effective_povm(random_channel(8, 4, seed)).elements
    w = np.linalg.eigvalsh(elements)
    assert np.abs(w[:, :4]).max() < 1e-14
    assert cholesky_gate(elements, ATOL_PHYSICAL)


# --------------------------------------------- eigensolves along the chain


@pytest.fixture
def eigensolves(monkeypatch):
    """Count np.linalg.eigh and eigvalsh calls made from here on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_consistent_chain_runs_no_eigensolve(seed, eigensolves):
    ops = random_channel(8, 4, seed).kraus_ops  # random_channel itself runs one
    rho = random_density(3, seed + 1).matrix
    eigensolves.clear()
    model = extract(effective_povm(KrausChannel(8, ops)))
    z = forward(model, decompose(rho))
    res = mitigate(MitigationProblem(model, z))
    assert res.iterations == 0 and res.residual <= 1e-12
    assert not eigensolves


def test_rejection_runs_one_eigensolve_and_keeps_its_message(eigensolves):
    # The gate declines; the eigensolve rejects, with the message it always gave.
    with pytest.raises(ValueError) as err:
        DensityMatrix(np.diag([1.2, -0.2]))
    assert str(err.value) == "density matrix has negative eigenvalue -2.000e-01"
    assert len(eigensolves) == 1
    e0 = np.diag([-0.2, 0.5]).astype(complex)
    with pytest.raises(ValueError) as err:
        Povm(2, (e0, np.eye(2) - e0))
    assert str(err.value) == "POVM positivity violated: defect 2.000e-01 exceeds 1.0e-10"
    assert len(eigensolves) == 2
    with pytest.raises(ValueError) as err:
        Povm(2, (0.5 * np.eye(2), 0.6 * np.eye(2)))
    assert str(err.value) == "POVM completeness violated: defect 1.000e-01 exceeds 1.0e-10"
    assert len(eigensolves) == 3


def test_channel_validate_reports_from_one_validation(capsys, write_json, monkeypatch, eigensolves):
    # Povm accepts through the gate; channel-validate runs validate_povm, one
    # validate_povm call and its one eigensolve.
    calls = []
    original = povm.validate_povm

    def counting(elements):
        calls.append(1)
        return original(elements)

    path = write_json("ch.json", channel_to_obj(random_channel(8, 4, seed=5)))
    monkeypatch.setattr(povm, "validate_povm", counting)
    eigensolves.clear()
    assert cli.main(["channel-validate", "--channel", path]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert len(eigensolves) == 1
