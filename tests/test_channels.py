import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_hermitian
from coherent_readout import channels
from coherent_readout.povm import Povm
from coherent_readout.readout import ReadoutModel
from coherent_readout.solver import MitigationProblem
from coherent_readout.states import DensityMatrix, StateDecomposition, random_density


def test_validate_identity_is_exact():
    report = channels.validate_cptp([np.eye(2)])
    assert report.defect == 0.0
    assert report.passed


def test_validate_scaled_identity_fails():
    report = channels.validate_cptp([0.5 * np.eye(2)])
    assert report.defect == pytest.approx(0.75, abs=1e-15)
    assert not report.passed


def test_validate_rejects_empty():
    with pytest.raises(ValueError):
        channels.validate_cptp([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_channel_constructor_rejects_non_finite(bad):
    op = np.eye(2, dtype=complex)
    op[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        channels.KrausChannel(2, (op,))
    with pytest.raises(ValueError, match="non-finite"):
        channels.KrausChannel(2, (np.eye(2), np.full((2, 2), bad)))


def test_overflowing_gram_is_rejected_without_warning():
    # sum_a E_a^dag E_a overflows to inf; RuntimeWarnings are errors in this suite.
    ops = [[[1e200, 0], [0, 1]]]
    assert channels.validate_cptp(ops).defect == np.inf
    with pytest.raises(ValueError, match="trace preservation"):
        channels.KrausChannel(2, ops)


def test_channel_constructor_rejects_violations():
    with pytest.raises(ValueError, match="trace preservation"):
        channels.KrausChannel(2, (0.9 * np.eye(2),))
    with pytest.raises(ValueError):
        channels.KrausChannel(2, (np.eye(3),))
    with pytest.raises(ValueError):
        channels.KrausChannel(0, ())


@pytest.mark.parametrize(
    "ops",
    [[], [np.eye(2), np.eye(3)], [np.eye(2)[0]], np.eye(2)],
    ids=["empty", "ragged", "not-square", "bare-matrix"],
)
def test_channel_constructor_rejects_malformed_stack(ops):
    with pytest.raises(ValueError):
        channels.KrausChannel(2, ops)


def test_channel_holds_a_read_only_copy():
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.7)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]], dtype=complex)
    ch = channels.KrausChannel(2, [e0, e1])
    assert ch.kraus_ops.shape == (2, 2, 2) and ch.kraus_ops.dtype == complex
    e0[0, 0] = 5.0
    assert np.array_equal(ch.kraus_ops, channels.amplitude_damping(0.3).kraus_ops)
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus_ops[0][0, 0] = 2.0


@pytest.mark.parametrize(
    "cls, dim, stack, text",
    [
        (channels.KrausChannel, 2.0, [np.eye(2)], "KrausChannel(dim=2, kraus_ops="),
        (Povm, True, [[[1.0]]], "Povm(dim=1, elements="),
    ],
    ids=["KrausChannel", "Povm"],
)
def test_dim_is_the_stacks_own(cls, dim, stack, text):
    value = cls(dim, stack)
    assert type(value.dim) is int and value.dim == len(stack[0])
    assert repr(value).startswith(text)


def test_dim_argument_is_checked_against_the_stack():
    with pytest.raises(ValueError, match="dimension 2, expected 0"):
        channels.KrausChannel(0, [np.eye(2)])
    with pytest.raises(ValueError, match="expected 3 POVM elements"):
        Povm(3, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def damping_model():
    return ReadoutModel(np.array([[1.0, 0.3], [0.0, 0.7]]), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: (DensityMatrix, {"matrix": np.eye(2, dtype=complex) / 2}),
        lambda: (StateDecomposition, {"populations": np.array([0.5, 0.5]), "coherences": np.zeros(2)}),
        lambda: (ReadoutModel, {"assignment": np.array([[1.0, 0.3], [0.0, 0.7]]), "coherence": np.zeros((2, 2))}),
        lambda: (MitigationProblem, {"model": damping_model(), "z_observed": np.array([0.5, 0.5])}),
    ],
    ids=["DensityMatrix", "StateDecomposition", "ReadoutModel", "MitigationProblem"],
)
def test_validated_values_hold_read_only_copies(build):
    cls, fields = build()
    value = cls(**fields)
    for name, given in fields.items():
        if not isinstance(given, np.ndarray):
            continue
        expected = given.copy()
        given[0] = 5.0
        held = getattr(value, name)
        assert np.array_equal(held, expected)
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 5.0


def test_apply_identity():
    rho = random_density(1, 5).matrix
    assert np.array_equal(channels.apply(channels.identity(2), rho), rho)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
def test_apply_dephasing_scales_offdiagonals(lam):
    rho = random_density(1, 11).matrix
    out = channels.apply(channels.dephasing(lam), rho)
    expected = np.array(
        [[rho[0, 0], lam * rho[0, 1]], [lam * rho[1, 0], rho[1, 1]]]
    )
    assert np.max(np.abs(out - expected)) < 1e-15


def test_apply_amplitude_damping_full_decay():
    one = np.diag([0.0, 1.0]).astype(complex)
    out = channels.apply(channels.amplitude_damping(1.0), one)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) == 0.0


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        channels.apply(channels.identity(2), np.eye(4))


@given(dim_exp=st.integers(1, 3), n_kraus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_apply_preserves_trace_and_hermiticity(dim_exp, n_kraus, seed):
    ch = channels.random_channel(2**dim_exp, n_kraus, seed)
    rho = random_density(dim_exp, seed + 1).matrix
    out = channels.apply(ch, rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_adjoint_apply_is_unital_on_identity(seed):
    ch = channels.random_channel(4, 3, seed)
    out = channels.adjoint_apply(ch, np.eye(4))
    assert np.max(np.abs(out - np.eye(4))) < 1e-12


def test_adjoint_apply_amplitude_damping_projectors():
    ch = channels.amplitude_damping(0.3)
    f0 = channels.adjoint_apply(ch, np.diag([1.0, 0.0]).astype(complex))
    f1 = channels.adjoint_apply(ch, np.diag([0.0, 1.0]).astype(complex))
    assert np.max(np.abs(f0 - np.diag([1.0, 0.3]))) < 1e-15
    assert np.max(np.abs(f1 - np.diag([0.0, 0.7]))) < 1e-15


@given(dim_exp=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_heisenberg_schroedinger_duality(dim_exp, seed):
    # Tr(M E(rho)) = Tr(E^dag(M) rho) for every observable M.
    dim = 2**dim_exp
    ch = channels.random_channel(dim, 3, seed)
    rho = random_density(dim_exp, seed + 1).matrix
    m = random_hermitian(dim, seed + 2)
    lhs = np.trace(m @ channels.apply(ch, rho))
    rhs = np.trace(channels.adjoint_apply(ch, m) @ rho)
    assert abs(lhs - rhs) < 1e-11


@pytest.mark.parametrize("bad", [-0.1, 1.0001, 2.0])
def test_dephasing_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        channels.dephasing(bad)


def test_dephasing_endpoints():
    rho = random_density(1, 3).matrix
    assert np.max(np.abs(channels.apply(channels.dephasing(1.0), rho) - rho)) < 1e-15
    out = channels.apply(channels.dephasing(0.0), rho)
    assert abs(out[0, 1]) < 1e-16
    assert np.max(np.abs(np.diag(out) - np.diag(rho))) < 1e-15


@pytest.mark.parametrize("bad", [-0.5, 1.5])
def test_amplitude_damping_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        channels.amplitude_damping(bad)


def test_rotation_y_matrix():
    assert np.array_equal(channels.rotation_y(0.0).kraus_ops[0], np.eye(2))
    u = channels.rotation_y(np.pi).kraus_ops[0]
    assert np.max(np.abs(u - np.array([[0.0, 1.0], [-1.0, 0.0]]))) < 1e-15
    u = channels.rotation_y(0.7).kraus_ops[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15


def test_pauli_identity_weight_only():
    ch = channels.pauli_channel([1.0, 0.0, 0.0, 0.0])
    assert len(ch.kraus_ops) == 1
    rho = random_density(1, 9).matrix
    assert np.array_equal(channels.apply(ch, rho), rho)


def test_pauli_bit_flip():
    ch = channels.pauli_channel([0.0, 1.0, 0.0, 0.0])
    out = channels.apply(ch, np.diag([1.0, 0.0]).astype(complex))
    assert np.max(np.abs(out - np.diag([0.0, 1.0]))) == 0.0


def test_pauli_string_ordering_first_qubit_most_significant():
    # Index 4 in base 4 is (1, 0): X on the first qubit, identity on the second.
    probs = np.zeros(16)
    probs[4] = 1.0
    ch = channels.pauli_channel(probs)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    out = channels.apply(ch, rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0  # |10><10|
    assert np.array_equal(out, expected)


def test_pauli_rejects_bad_input():
    with pytest.raises(ValueError):
        channels.pauli_channel([0.5, 0.5, 0.0])  # not 4**n entries
    with pytest.raises(ValueError):
        channels.pauli_channel([0.7, 0.2, 0.0, 0.0])  # sum != 1
    with pytest.raises(ValueError):
        channels.pauli_channel([1.2, -0.2, 0.0, 0.0])  # negative


@pytest.mark.parametrize("seed", range(4))
def test_pauli_two_qubit_is_cptp(seed):
    probs = np.random.default_rng(seed).dirichlet(np.ones(16))
    ch = channels.pauli_channel(probs)
    assert ch.dim == 4
    assert channels.validate_cptp(ch.kraus_ops).defect < 1e-12


def test_tensor_of_identities_is_identity():
    ch = channels.tensor(channels.identity(2), channels.identity(2))
    assert ch.dim == 4
    rho = random_density(2, 21).matrix
    assert np.max(np.abs(channels.apply(ch, rho) - rho)) < 1e-15


def test_tensor_kraus_count_and_validity():
    ch = channels.tensor(channels.amplitude_damping(0.3), channels.dephasing(0.5))
    assert len(ch.kraus_ops) == 4
    assert channels.validate_cptp(ch.kraus_ops).defect < 1e-15


def test_tensor_acts_independently():
    a = channels.amplitude_damping(0.4)
    b = channels.dephasing(0.2)
    rho_a = random_density(1, 31).matrix
    rho_b = random_density(1, 32).matrix
    joint = channels.apply(channels.tensor(a, b), np.kron(rho_a, rho_b))
    split = np.kron(channels.apply(a, rho_a), channels.apply(b, rho_b))
    assert np.max(np.abs(joint - split)) < 1e-14


def test_compose_with_identity_is_neutral():
    ch = channels.random_channel(2, 3, 55)
    rho = random_density(1, 56).matrix
    out = channels.apply(channels.compose(channels.identity(2), ch), rho)
    assert np.max(np.abs(out - channels.apply(ch, rho))) < 1e-14


def test_compose_applies_inner_first():
    # amplitude damping then total dephasing: populations damped, coherence gone
    seq = channels.compose(channels.dephasing(0.0), channels.amplitude_damping(0.3))
    rho = random_density(1, 57).matrix
    out = channels.apply(seq, rho)
    inner = channels.apply(channels.amplitude_damping(0.3), rho)
    assert abs(out[0, 0] - inner[0, 0]) < 1e-15
    assert abs(out[0, 1]) < 1e-15


def test_compose_rotations_add_angles():
    a, b = 0.4, 0.9
    seq = channels.compose(channels.rotation_y(b), channels.rotation_y(a))
    rho = random_density(1, 58).matrix
    lhs = channels.apply(seq, rho)
    rhs = channels.apply(channels.rotation_y(a + b), rho)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("lam1,lam2", [(0.3, 0.6), (1.0, 0.5), (0.0, 0.8)])
def test_compose_dephasing_multiplies_rates(lam1, lam2):
    seq = channels.compose(channels.dephasing(lam1), channels.dephasing(lam2))
    rho = random_density(1, 59).matrix
    out = channels.apply(seq, rho)
    expected = channels.apply(channels.dephasing(lam1 * lam2), rho)
    assert np.max(np.abs(out - expected)) < 1e-15


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        channels.compose(channels.identity(2), channels.identity(4))


def test_superoperator_identity():
    assert np.array_equal(channels.superoperator(channels.identity(2)), np.eye(4))


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_superoperator_dephasing_is_diagonal(lam):
    h = channels.superoperator(channels.dephasing(lam))
    assert np.max(np.abs(h - np.diag([1.0, lam, lam, 1.0]))) < 1e-15


@given(dim_exp=st.integers(1, 2), n_kraus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_superoperator_reproduces_apply(dim_exp, n_kraus, seed):
    # vec stacks columns: entry (r, c) of a matrix lands at index c*N + r.
    dim = 2**dim_exp
    ch = channels.random_channel(dim, n_kraus, seed)
    rho = random_density(dim_exp, seed + 1).matrix
    direct = channels.apply(ch, rho)
    via_h = (channels.superoperator(ch) @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")
    assert np.max(np.abs(direct - via_h)) < 1e-12


@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vec_intertwines_kron(dim, seed):
    # The identity vec(A X B) = (B^T kron A) vec(X) underpins the
    # superoperator construction; pin it for the column-stacked vec.
    a = random_complex(dim, seed)
    x = random_complex(dim, seed + 1)
    b = random_complex(dim, seed + 2)
    lhs = (a @ x @ b).reshape(-1, order="F")
    rhs = np.kron(b.T, a) @ x.reshape(-1, order="F")
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


@pytest.mark.parametrize("dim,n_kraus", [(2, 1), (2, 5), (4, 3), (8, 2)])
def test_random_channel_is_cptp(dim, n_kraus):
    ch = channels.random_channel(dim, n_kraus, 99)
    assert ch.dim == dim
    assert len(ch.kraus_ops) == n_kraus
    assert channels.validate_cptp(ch.kraus_ops).defect < 1e-12


def test_random_channel_deterministic_per_seed():
    a = channels.random_channel(4, 3, 1)
    b = channels.random_channel(4, 3, 1)
    c = channels.random_channel(4, 3, 2)
    for op_a, op_b in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(op_a, op_b)
    assert not np.array_equal(a.kraus_ops[0], c.kraus_ops[0])


def test_random_channel_rejects_zero_operators():
    with pytest.raises(ValueError):
        channels.random_channel(2, 0, 1)


def test_random_channel_rejects_zero_dimension():
    with pytest.raises(ValueError, match="^need a dimension of at least one$"):
        channels.random_channel(0, 2, 0)
