"""Model extraction and the forward map, cross-checked against the oracle.

The oracle applies the channel to the state and reads the Born-rule
diagonal; it never touches the POVM coefficient path, so agreement between
forward() and oracle_probabilities() pins the column layout and every sign
convention in the coherence response at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherent_readout.channels import (
    KrausChannel,
    amplitude_damping,
    dephasing,
    identity,
    pauli_channel,
    random_channel,
    rotation_y,
    superoperator,
)
from coherent_readout import povm
from coherent_readout.povm import Povm, effective_povm
from coherent_readout.readout import (
    ReadoutModel,
    classical_forward,
    closed_form_zoo,
    extract,
    forward,
    nonclassicality,
    oracle_probabilities,
)
from coherent_readout.states import (
    DensityMatrix,
    StateDecomposition,
    assemble_matrix,
    decompose,
    random_density,
)


def model_of(ch):
    return extract(effective_povm(ch))


# ---------------------------------------------------------------- extraction


def test_identity_model():
    m = model_of(identity(2))
    assert np.array_equal(m.assignment, np.eye(2))
    assert np.all(m.coherence == 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_dephasing_model_is_classical_identity(lam):
    m = model_of(dephasing(lam))
    assert np.max(np.abs(m.assignment - np.eye(2))) < 1e-15
    assert np.all(m.coherence == 0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_amplitude_damping_model(gamma):
    m = model_of(amplitude_damping(gamma))
    expected = np.array([[1.0, gamma], [0.0, 1.0 - gamma]])
    assert np.max(np.abs(m.assignment - expected)) < 1e-15
    assert np.all(m.coherence == 0.0)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi, 2.9])
def test_rotation_model_closed_form(theta):
    m = model_of(rotation_y(theta))
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    sin = np.sin(theta)
    assert np.max(np.abs(m.assignment - [[c2, s2], [s2, c2]])) < 1e-15
    assert np.max(np.abs(m.coherence - [[sin, 0.0], [-sin, 0.0]])) < 1e-15


def test_assignment_column_is_basis_state_response():
    # Column l of the assignment matrix must equal the outcome distribution
    # of the basis state |l><l| pushed through the channel.
    ch = random_channel(4, 3, seed=77)
    m = model_of(ch)
    for l in range(4):
        basis = np.zeros((4, 4), dtype=complex)
        basis[l, l] = 1.0
        z = oracle_probabilities(ch, basis)
        assert np.max(np.abs(m.assignment[:, l] - z)) < 1e-13


def test_extract_accepts_a_povm_within_the_hermiticity_tolerance():
    # Hermiticity defects up to 8e-11 pass the POVM gate. The Povm keeps the
    # Hermitian part of its elements, so their diagonals are real, extract
    # reads them as they are, and its coefficients rebuild the elements.
    f0 = np.array([[0.5 + 4e-11j, 0.0], [0.0, 0.5]])
    f1 = np.eye(2) - f0
    f = np.array([np.eye(3), np.diag([1.0 + 2e-11j, 1, 1]), np.diag([1, 1.0 + 4e-11j, 1])]) / 3.0
    for p in (Povm(dim=2, elements=(f0, f1)), Povm(dim=3, elements=f)):
        m = extract(p)
        assert np.array_equal(assemble_matrix(m.assignment, m.coherence / 2.0), p.elements)
        assert np.array_equal(m.assignment, np.full((p.dim, p.dim), 1.0 / p.dim))
        assert not m.coherence.any()


# ------------------------------------------------------------- model checks


def test_model_rejects_nonsquare_assignment():
    with pytest.raises(ValueError, match="square"):
        ReadoutModel(assignment=np.ones((2, 3)) / 2.0, coherence=np.zeros((2, 2)))


def test_model_rejects_wrong_coherence_shape():
    with pytest.raises(ValueError, match="shape"):
        ReadoutModel(assignment=np.eye(2), coherence=np.zeros((2, 3)))


def test_model_rejects_bad_column_sums():
    a = np.array([[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="POVM completeness"):
        ReadoutModel(assignment=a, coherence=np.zeros((2, 2)))


def test_model_rejects_out_of_range_entries():
    a = np.array([[1.5, 0.0], [-0.5, 1.0]])
    with pytest.raises(ValueError, match="POVM positivity"):
        ReadoutModel(assignment=a, coherence=np.zeros((2, 2)))


def test_model_rejects_nonzero_coherence_column_sum():
    c = np.array([[0.3, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="POVM positivity"):
        ReadoutModel(assignment=np.eye(2), coherence=c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_entries(bad):
    a = np.eye(2)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ReadoutModel(assignment=a, coherence=np.zeros((2, 2)))
    c = np.zeros((2, 2))
    c[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ReadoutModel(assignment=np.eye(2), coherence=c)


# Valid column sums and A in [0, 1], yet F_0 = [[1, 2.5], [2.5, 0]] has eigenvalue -2.05.
NON_POVM_MODEL = {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [[5.0, 0.0], [-5.0, 0.0]]}


def test_model_rejects_coefficients_of_no_povm():
    with pytest.raises(ValueError, match="POVM positivity"):
        ReadoutModel(assignment=NON_POVM_MODEL["A"], coherence=NON_POVM_MODEL["C"])


@pytest.mark.parametrize(
    "ch",
    [random_channel(2**n, 3, seed=90 + n) for n in range(1, 6)] + [case[2] for case in closed_form_zoo()],
)
def test_model_rebuilds_the_povm_it_was_read_from(ch):
    # assemble_matrix inverts the extraction bit for bit, so the model that
    # extract builds without a second check encodes exactly the POVM that
    # effective_povm validated, and the checked constructor accepts it too.
    p = effective_povm(ch)
    m = extract(p)
    assert np.array_equal(assemble_matrix(m.assignment, m.coherence / 2.0), p.elements)
    rebuilt = ReadoutModel(assignment=m.assignment, coherence=m.coherence)
    assert np.array_equal(rebuilt.assignment, m.assignment)
    assert np.array_equal(rebuilt.coherence, m.coherence)


def test_extract_validates_the_povm_once(monkeypatch):
    # Positivity is checked by the Cholesky gate, once per Povm built: extract
    # reads the model off a validated Povm, while ReadoutModel(A, C) rebuilds
    # and checks it. A valid POVM never reaches validate_povm.
    calls = []
    original = povm.cholesky_gate

    def counting(h, tol):
        calls.append(1)
        return original(h, tol)

    ch = random_channel(4, 3, seed=95)
    monkeypatch.setattr(povm, "cholesky_gate", counting)
    monkeypatch.setattr(povm, "validate_povm", lambda f: pytest.fail("validate_povm called"))
    m = extract(effective_povm(ch))
    assert len(calls) == 1
    ReadoutModel(assignment=m.assignment, coherence=m.coherence)
    assert len(calls) == 2


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]))
@settings(max_examples=30, deadline=None)
def test_extracted_models_satisfy_column_constraints(seed, dim):
    m = model_of(random_channel(dim, 3, seed=seed))
    assert np.max(np.abs(m.assignment.sum(axis=0) - 1.0)) < 1e-10
    assert np.max(np.abs(m.coherence.sum(axis=0))) < 1e-10


# ------------------------------------------------------------------ forward


def test_forward_rotation_on_plus_state():
    theta = 0.3
    m = model_of(rotation_y(theta))
    plus = decompose(np.full((2, 2), 0.5, dtype=complex))
    z = forward(m, plus)
    assert abs(z[0] - (0.5 + 0.5 * np.sin(theta))) < 1e-14
    assert abs(z[1] - (0.5 - 0.5 * np.sin(theta))) < 1e-14


def test_forward_sign_pin_x_rotation_on_y_eigenstate():
    # +Y eigenstate has a purely imaginary upper off-diagonal (-i/2), so this
    # setup is sensitive only to the imaginary coherence columns. Flipping
    # their sign convention flips z and breaks agreement with the oracle.
    theta = 0.7
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u = np.array([[c, -1j * s], [-1j * s, c]])
    ch = KrausChannel(dim=2, kraus_ops=(u,))
    rho = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    z = forward(model_of(ch), decompose(rho))
    assert abs(z[0] - (0.5 + 0.5 * np.sin(theta))) < 1e-14
    assert np.max(np.abs(z - oracle_probabilities(ch, rho))) < 1e-14


def test_forward_matches_the_oracle_on_a_state_within_the_hermiticity_tolerance():
    # rho[1, 0] is 8e-11 off the mirror of rho[0, 1]; decompose reads the upper
    # triangle and the oracle the whole matrix, so both must see its Hermitian part.
    rho = DensityMatrix([[0.5, 0.5], [0.5 + 8e-11, 0.5]])
    ch = rotation_y(0.7)
    z = forward(model_of(ch), decompose(rho))
    assert np.max(np.abs(z - oracle_probabilities(ch, rho))) <= 1e-15


def test_forward_rejects_dimension_mismatch():
    m = model_of(identity(2))
    state = decompose(random_density(2, 5).matrix)
    with pytest.raises(ValueError, match="mismatch"):
        forward(m, state)


def test_dephasing_forward_ignores_coherence():
    m = model_of(dephasing(0.7))
    x = np.array([0.4, 0.6])
    z_with = forward(m, StateDecomposition(populations=x, coherences=np.array([0.3, -0.2])))
    z_without = forward(m, StateDecomposition(populations=x, coherences=np.zeros(2)))
    assert np.array_equal(z_with, z_without)
    assert np.array_equal(z_with, x)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_qubits=st.integers(1, 3),
    n_kraus=st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_forward_matches_the_oracle(seed, n_qubits, n_kraus):
    dim = 2**n_qubits
    ch = random_channel(dim, n_kraus, seed=seed)
    rho = random_density(n_qubits, seed + 1)
    z = forward(model_of(ch), decompose(rho))
    assert np.max(np.abs(z - oracle_probabilities(ch, rho))) < 1e-12


def test_forward_distribution_is_normalized():
    ch = random_channel(4, 4, seed=11)
    z = forward(model_of(ch), decompose(random_density(2, 12).matrix))
    assert abs(z.sum() - 1.0) < 1e-12
    assert z.min() > -1e-12


# -------------------------------------------------------- classical forward


def test_classical_forward_identity_passthrough():
    m = model_of(identity(2))
    x = np.array([0.25, 0.75])
    assert np.array_equal(classical_forward(m, x), x)


def test_classical_forward_amplitude_damping():
    m = model_of(amplitude_damping(0.3))
    z = classical_forward(m, np.array([0.0, 1.0]))
    assert np.max(np.abs(z - [0.3, 0.7])) < 1e-15


def test_classical_forward_rejects_unnormalized():
    m = model_of(identity(2))
    with pytest.raises(ValueError, match="sum to 1"):
        classical_forward(m, np.array([0.5, 0.6]))


def test_classical_forward_rejects_wrong_shape():
    m = model_of(identity(2))
    with pytest.raises(ValueError, match="shape"):
        classical_forward(m, np.array([1.0, 0.0, 0.0]))


# ------------------------------------------------------------------- oracle


def test_oracle_identity_reads_populations():
    rho = random_density(2, 3)
    z = oracle_probabilities(identity(4), rho)
    assert np.max(np.abs(z - rho.matrix.diagonal().real)) < 1e-15


def test_oracle_full_damping_concentrates_on_ground():
    z = oracle_probabilities(amplitude_damping(1.0), random_density(1, 9))
    assert np.max(np.abs(z - [1.0, 0.0])) < 1e-15


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("n_kraus", [1, 2, 4])
def test_oracle_matches_superoperator_diagonal(n_qubits, n_kraus):
    # vec(E(rho)) = H vec(rho) with column-stacked vec; the diagonal of
    # E(rho) sits at indices k(N + 1).
    dim = 2**n_qubits
    for seed in range(3):
        ch = random_channel(dim, n_kraus, seed=50 * n_qubits + 5 * n_kraus + seed)
        rho = random_density(n_qubits, seed + 7)
        via_h = (superoperator(ch) @ rho.matrix.reshape(-1, order="F"))[:: dim + 1].real
        assert np.max(np.abs(oracle_probabilities(ch, rho) - via_h)) <= 1e-15


def test_oracle_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        oracle_probabilities(identity(2), random_density(2, 0))


def test_oracle_rejects_unphysical_state():
    bad = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ValueError):
        oracle_probabilities(identity(2), bad)


# --------------------------------------------------------- nonclassicality


def test_nonclassicality_zero_for_dephasing():
    m = model_of(dephasing(0.4))
    assert nonclassicality(m) == 0.0
    assert nonclassicality(m, norm="frobenius") == 0.0


def test_nonclassicality_rotation_values():
    theta = 0.3
    m = model_of(rotation_y(theta))
    assert abs(nonclassicality(m, norm="max") - np.sin(theta)) < 1e-15
    assert abs(nonclassicality(m, norm="frobenius") - np.sqrt(2.0) * np.sin(theta)) < 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pauli_channels_are_classical(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(16))
    m = model_of(pauli_channel(probs))
    assert nonclassicality(m) <= 1e-12


def test_nonclassicality_rejects_unknown_norm():
    m = model_of(identity(2))
    with pytest.raises(ValueError, match="norm"):
        nonclassicality(m, norm="spectral")
