import numpy as np
import pytest

from conftest import almost_hermitian_with_a_state_below
from coherent_readout import channels, povm
from coherent_readout.channels import (
    amplitude_damping,
    dephasing,
    identity,
    pauli_channel,
    random_channel,
    rotation_y,
)
from coherent_readout.linalg import as_square_stack


def unit(dim, i, j):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def test_identity_povm_is_basis_projectors():
    p = povm.effective_povm(identity(2))
    assert np.array_equal(p.elements[0], np.diag([1.0, 0.0]))
    assert np.array_equal(p.elements[1], np.diag([0.0, 1.0]))


def test_amplitude_damping_povm():
    p = povm.effective_povm(amplitude_damping(0.3))
    assert np.max(np.abs(p.elements[0] - np.diag([1.0, 0.3]))) < 1e-15
    assert np.max(np.abs(p.elements[1] - np.diag([0.0, 0.7]))) < 1e-15


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, 2.5])
def test_rotation_povm_closed_form(theta):
    p = povm.effective_povm(rotation_y(theta))
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    half_sin = np.sin(theta) / 2.0
    f0 = np.array([[c2, half_sin], [half_sin, s2]])
    f1 = np.array([[s2, -half_sin], [-half_sin, c2]])
    assert np.max(np.abs(p.elements[0] - f0)) < 1e-12
    assert np.max(np.abs(p.elements[1] - f1)) < 1e-12


def test_povm_rejects_wrong_element_count():
    with pytest.raises(ValueError, match="expected 2"):
        povm.Povm(2, (np.eye(2),))


@pytest.mark.parametrize(
    "elements",
    [[np.eye(2), np.zeros((3, 3))], [np.eye(3), np.zeros((3, 3))], []],
    ids=["ragged", "wrong-dimension", "empty"],
)
def test_povm_rejects_malformed_stack(elements):
    with pytest.raises(ValueError):
        povm.Povm(2, elements)


def test_povm_holds_a_read_only_copy():
    e0 = np.diag([1.0, 0.3]).astype(complex)
    expected = np.array([e0, np.eye(2) - e0])
    p = povm.Povm(2, [e0, np.eye(2) - e0])
    assert p.elements.shape == (2, 2, 2) and p.elements.dtype == complex
    e0[1, 1] = 0.5
    assert np.array_equal(p.elements, expected)
    with pytest.raises(ValueError, match="read-only"):
        povm.effective_povm(amplitude_damping(0.3)).elements[0][0, 0] = 2.0


def test_povm_holds_the_hermitian_part_of_its_elements():
    # Effective POVMs are exactly Hermitian and are stored as built.
    for dim in (2, 4, 8):
        ops = random_channel(dim, 3, seed=dim).kraus_ops
        built = np.einsum("aki,akj->kij", ops.conj(), ops)
        assert np.array_equal(povm.Povm(dim, built).elements, built)
    # Within the 1e-10 tolerance, but not Hermitian: the mirror is off by 6e-11.
    e0 = np.array([[0.5, 0.1], [0.1 + 6e-11, 0.5]])
    p = povm.Povm(2, [e0, np.eye(2) - e0])
    assert np.array_equal(p.elements, p.elements.conj().swapaxes(1, 2))
    assert np.array_equal(p.elements[0], [[0.5, 0.1 + 3e-11], [0.1 + 3e-11, 0.5]])


def test_each_construction_lays_out_its_stack_once(monkeypatch):
    calls = []

    def counting(ms, name="matrices"):
        calls.append(name)
        return as_square_stack(ms, name)

    monkeypatch.setattr(channels, "as_square_stack", counting)
    monkeypatch.setattr(povm, "as_square_stack", counting)
    povm.effective_povm(random_channel(4, 3, seed=7))
    assert calls == ["Kraus operators", "POVM elements"]


def basis_with_imaginary_corner():
    """|k><k| + 0.5e-10j |0><0|; they sum to I + 2e-10j |0><0|, their Hermitian parts to I."""
    return [np.diag(e_k) + 0.5e-10j * unit(4, 0, 0) for e_k in np.eye(4)]


def test_povm_rejects_broken_completeness():
    with pytest.raises(ValueError, match="completeness"):
        povm.Povm(2, (np.eye(2), np.eye(2)))
    # Completeness is judged on the Hermitian parts, which are what is kept.
    p = povm.Povm(4, basis_with_imaginary_corner())
    assert np.array_equal(p.elements, p.elements.conj().swapaxes(1, 2))
    assert np.array_equal(p.elements, [np.diag(e_k) for e_k in np.eye(4)])


def test_povm_rejects_nonhermitian_element():
    e0 = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="hermiticity"):
        povm.Povm(2, (e0, np.eye(2) - e0))


def test_povm_rejects_negative_element():
    e0 = np.diag([-0.2, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="positivity"):
        povm.Povm(2, (e0, np.eye(2) - e0))


def test_validate_povm_reports_each_defect():
    e0 = np.array([[0.5, 0.3], [0.0, -0.1]], dtype=complex)
    report = povm.validate_povm([e0, 0.5 * np.eye(2)])
    assert report.hermiticity_defect == pytest.approx(0.3)
    assert report.positivity_defect == pytest.approx(np.sqrt(0.3**2 + 0.15**2) - 0.2)
    assert report.completeness_defect == pytest.approx(0.6)
    assert not report.passed
    assert povm.validate_povm(povm.effective_povm(identity(2)).elements).passed
    report = povm.validate_povm(basis_with_imaginary_corner())
    assert report.hermiticity_defect == pytest.approx(1e-10)
    assert report.completeness_defect == 0.0
    assert report.passed


def test_validate_povm_measures_defects_near_overflow():
    # Forming (F + F^dag)/2 overflows to inf here, and the NaN eigenvalues
    # that followed used to clip to a positivity defect of 0.0.
    e0 = np.diag([1e308, -1e308])
    report = povm.validate_povm([e0, np.eye(2) - e0])
    assert report.positivity_defect >= 1e308
    assert not report.passed
    with pytest.raises(ValueError, match="positivity"):
        povm.Povm(2, [e0, np.eye(2) - e0])


def test_validate_povm_rejects_an_overflowing_sum_without_warning():
    # sum_k F_k overflows to inf; RuntimeWarnings are errors in this suite.
    report = povm.validate_povm([np.diag([1e308, 0]), np.diag([1e308, 1])])
    assert report.completeness_defect == np.inf
    assert not report.passed


def test_povm_positivity_is_judged_on_the_hermitian_parts():
    # As for DensityMatrix: the lower triangles of these elements are positive.
    f = almost_hermitian_with_a_state_below()
    elements = [f, np.eye(8) - f] + [np.zeros((8, 8))] * 6
    with pytest.raises(ValueError, match="positivity violated: defect 3.15"):
        povm.Povm(8, elements)


def test_povm_rejects_an_unmeasurable_defect(monkeypatch):
    # A stack the Cholesky gate declines goes to validate_povm, and a NaN
    # defect in its report fails like any other.
    nan_report = povm.PovmReport(np.nan, 0.0, 0.0, passed=False)
    monkeypatch.setattr(povm, "cholesky_gate", lambda h, tol: False)
    monkeypatch.setattr(povm, "validate_povm", lambda elements: nan_report)
    with pytest.raises(ValueError, match="hermiticity"):
        povm.Povm(2, np.eye(2)[:, None] * np.eye(2))


def test_povm_keeps_no_report():
    # The report is computed on demand from the elements, which a Povm holds alone.
    p = povm.effective_povm(rotation_y(0.3))
    assert povm.Povm.__slots__ == ("dim", "elements")
    assert povm.validate_povm(p.elements).passed
    assert "report" not in repr(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_povm_rejects_non_finite(bad):
    e0 = np.diag([bad, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="non-finite"):
        povm.validate_povm([e0, np.eye(2) - e0])
    with pytest.raises(ValueError, match="non-finite"):
        povm.Povm(2, (e0, np.eye(2) - e0))


def test_kernel_identity_channel_returns_units():
    ch = identity(2)
    for s in range(2):
        for t in range(2):
            assert np.array_equal(povm.kernel(ch, s, t), unit(2, s, t))


@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
def test_kernel_dephasing_scales_unit(lam):
    out = povm.kernel(dephasing(lam), 0, 1)
    assert np.max(np.abs(out - lam * unit(2, 0, 1))) < 1e-15


def test_kernel_amplitude_damping_population_transfer():
    out = povm.kernel(amplitude_damping(0.3), 1, 1)
    assert np.max(np.abs(out - np.diag([0.3, 0.7]))) < 1e-15


def test_kernel_rejects_bad_indices():
    with pytest.raises(ValueError):
        povm.kernel(identity(2), 0, 2)
    with pytest.raises(ValueError):
        povm.kernel(identity(2), -1, 0)


def test_kernel_diag_defect_classical_channels():
    assert povm.kernel_diag_defect(dephasing(0.5)) == 0.0
    assert povm.kernel_diag_defect(amplitude_damping(0.3)) == 0.0
    probs = np.random.default_rng(5).dirichlet(np.ones(16))
    assert povm.kernel_diag_defect(pauli_channel(probs)) == 0.0
    assert povm.kernel_diag_defect(identity(1)) == 0.0  # no l != r pair at all


def kernel_diag_defect_by_units(ch):
    """The defect from one kernel() call per matrix unit |l><r|, l != r."""
    return max(
        float(np.max(np.abs(povm.kernel(ch, l, r).diagonal())))
        for l in range(ch.dim)
        for r in range(ch.dim)
        if l != r
    )


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("n_kraus", [1, 2, 3, 4])
def test_kernel_diag_defect_matches_unit_by_unit_kernel(n_qubits, n_kraus):
    for seed in range(3):
        ch = random_channel(2**n_qubits, n_kraus, seed=100 * n_qubits + 10 * n_kraus + seed)
        assert abs(povm.kernel_diag_defect(ch) - kernel_diag_defect_by_units(ch)) <= 1e-15


@pytest.mark.parametrize("theta", [0.3, 1.0, np.pi / 2, 3.0])
def test_kernel_diag_defect_rotation(theta):
    defect = povm.kernel_diag_defect(rotation_y(theta))
    assert defect == pytest.approx(abs(np.sin(theta)) / 2.0, abs=1e-12)


def test_offdiag_defect_identity_zero():
    assert povm.offdiag_defect(povm.effective_povm(identity(2))) == 0.0


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.8])
def test_offdiag_defect_rotation(theta):
    p = povm.effective_povm(rotation_y(theta))
    assert povm.offdiag_defect(p) == pytest.approx(abs(np.sin(theta)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_pauli_povm_is_diagonal(seed):
    probs = np.random.default_rng(seed).dirichlet(np.ones(16))
    p = povm.effective_povm(pauli_channel(probs))
    assert povm.offdiag_defect(p) < 1e-12


@pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (4, 2), (4, 3), (8, 4)])
def test_kernel_diagonal_matches_povm_entry(dim, seed):
    # <k| E(|l><r|) |k> = <r| F_k |l>: Heisenberg/Schroedinger consistency.
    ch = random_channel(dim, 3, seed)
    p = povm.effective_povm(ch)
    for l in range(dim):
        for r in range(dim):
            if l == r:
                continue
            k_img = povm.kernel(ch, l, r)
            for k in range(dim):
                assert abs(k_img[k, k] - p.elements[k][r, l]) < 1e-12


@pytest.mark.parametrize("dim,seed", [(2, 10), (4, 11), (8, 12)])
def test_defect_measures_agree(dim, seed):
    ch = random_channel(dim, 4, seed)
    p = povm.effective_povm(ch)
    assert povm.kernel_diag_defect(ch) == pytest.approx(povm.offdiag_defect(p), abs=1e-12)


@pytest.mark.parametrize("dim,seed", [(2, 20), (4, 21), (8, 22)])
def test_povm_completeness_sums(dim, seed):
    ch = random_channel(dim, 3, seed)
    p = povm.effective_povm(ch)
    total = sum(p.elements)
    assert np.max(np.abs(total - np.eye(dim))) < 1e-12
    # The batched builder against the per-outcome Heisenberg-picture route.
    for k, element in enumerate(p.elements):
        assert np.max(np.abs(element - channels.adjoint_apply(ch, unit(dim, k, k)))) < 1e-14
    stack = np.array(p.elements)
    assert np.max(np.abs(stack - stack.conj().swapaxes(1, 2))) < 1e-14


def test_effective_povm_of_composite_channel():
    # For a product channel the POVM factorizes; cross-check against the
    # direct Heisenberg-picture computation.
    ch_a = amplitude_damping(0.3)
    ch_b = identity(2)
    joint = channels.tensor(ch_a, ch_b)
    p = povm.effective_povm(joint)
    p_a = povm.effective_povm(ch_a)
    p_b = povm.effective_povm(ch_b)
    for j in range(2):
        for k in range(2):
            expected = np.kron(p_a.elements[j], p_b.elements[k])
            direct = channels.adjoint_apply(joint, unit(4, 2 * j + k, 2 * j + k))
            assert np.max(np.abs(p.elements[2 * j + k] - expected)) < 1e-14
            assert np.max(np.abs(p.elements[2 * j + k] - direct)) < 1e-14
