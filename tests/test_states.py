import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherent_readout.states import (
    DensityMatrix,
    StateDecomposition,
    assemble_matrix,
    decompose,
    pack_coherences,
    random_density,
    reconstruct,
    split_matrix,
)


def coherence_pairs(dim):
    return list(zip(*np.triu_indices(dim, 1)))


def test_coherence_pairs_order():
    assert coherence_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    for dim in (2, 3, 8):
        # Entry (l, r) holds l + i r, so the packed coordinates spell out the pairs.
        m = np.add.outer(np.arange(dim), 1j * np.arange(dim))
        assert pack_coherences(m).reshape(-1, 2).tolist() == [[l, r] for l, r in coherence_pairs(dim)]


def hermitian_from_upper_by_loop(m):
    """Oracle: real diagonal and upper triangle of m, mirrored entry by entry."""
    h = np.zeros(m.shape, dtype=complex)
    for l in range(m.shape[0]):
        h[l, l] = m[l, l].real
    for l, r in coherence_pairs(m.shape[0]):
        h[l, r] = m[l, r]
        h[r, l] = m[l, r].conjugate()
    return h


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_layout_round_trips_on_stacks_einsum_output_and_transposed_views(dim):
    rng = np.random.default_rng(dim)
    ops = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
    einsum_out = np.einsum("aki,akj->kij", ops.conj(), ops)
    transposed = ops.transpose(0, 2, 1)
    nested = ops.reshape(3, 1, dim, dim).repeat(2, axis=1)
    for m in (einsum_out, transposed, nested, einsum_out[0], transposed[2]):
        x = np.diagonal(m, axis1=-2, axis2=-1).real
        y = pack_coherences(m)
        assert y.shape == m.shape[:-2] + (dim * (dim - 1),)
        assembled = assemble_matrix(x, y)
        rows = m.reshape(-1, dim, dim)
        for got, one in zip(assembled.reshape(-1, dim, dim), rows):
            assert np.array_equal(got, hermitian_from_upper_by_loop(one))
        assert np.array_equal(pack_coherences(assembled), y)
        # Coordinates given as a transposed (column-major) array assemble alike.
        assert np.array_equal(assemble_matrix(np.asfortranarray(x), np.asfortranarray(y)), assembled)


def test_decompose_basis_state():
    d = decompose(np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(d.populations, [1.0, 0.0])
    assert np.array_equal(d.coherences, [0.0, 0.0])


def test_decompose_plus_state():
    d = decompose(np.full((2, 2), 0.5, dtype=complex))
    assert np.array_equal(d.populations, [0.5, 0.5])
    assert np.array_equal(d.coherences, [0.5, 0.0])


def test_decompose_y_eigenstate():
    rho = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    d = decompose(rho)
    assert np.array_equal(d.populations, [0.5, 0.5])
    assert np.array_equal(d.coherences, [0.0, -0.5])


def test_split_matrix_pair_layout():
    # distinct entries expose the (0,1), (0,2), (1,2) ordering with
    # interleaved real/imaginary parts
    m = np.array(
        [
            [0.5, 0.1 + 0.2j, 0.03 - 0.04j],
            [0.1 - 0.2j, 0.3, 0.05 + 0.06j],
            [0.03 + 0.04j, 0.05 - 0.06j, 0.2],
        ]
    )
    x, y = split_matrix(m)
    assert np.array_equal(x, [0.5, 0.3, 0.2])
    assert np.array_equal(y, [0.1, 0.2, 0.03, -0.04, 0.05, 0.06])


@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_exact(n, seed):
    # One pass may shave a ~1e-17 imaginary residue off the diagonal; after
    # that the representation is canonical and the cycle is bit-exact.
    rho = random_density(n, seed)
    rec = reconstruct(decompose(rho))
    assert np.max(np.abs(rec - rho.matrix)) < 1e-15
    assert np.array_equal(reconstruct(decompose(rec)), rec)
    d = decompose(rho)
    d2 = decompose(rec)
    assert np.array_equal(d.populations, d2.populations)
    assert np.array_equal(d.coherences, d2.coherences)


def test_reconstruct_matches_operator_basis_expansion():
    rho = random_density(2, 123)
    d = decompose(rho)
    n = d.dim
    pairs = coherence_pairs(n)
    total = np.zeros((n, n), dtype=complex)
    for l in range(n):
        basis = np.zeros((n, n), dtype=complex)
        basis[l, l] = 1.0
        total += d.populations[l] * basis
    for i, (l, r) in enumerate(pairs):
        sym = np.zeros((n, n), dtype=complex)
        sym[l, r] = 1.0
        sym[r, l] = 1.0
        antisym = np.zeros((n, n), dtype=complex)
        antisym[l, r] = 1j
        antisym[r, l] = -1j
        total += d.coherences[2 * i] * sym + d.coherences[2 * i + 1] * antisym
    assert np.array_equal(total, reconstruct(d))


def test_pure_state_saturates_coherence_bound():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    d = decompose(np.outer(psi, psi.conj()))
    for i, (l, r) in enumerate(coherence_pairs(4)):
        mag2 = d.coherences[2 * i] ** 2 + d.coherences[2 * i + 1] ** 2
        assert mag2 == pytest.approx(d.populations[l] * d.populations[r], abs=1e-12)


@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_coherence_minor_bound(n, seed):
    d = decompose(random_density(n, seed))
    for i, (l, r) in enumerate(coherence_pairs(2**n)):
        mag2 = d.coherences[2 * i] ** 2 + d.coherences[2 * i + 1] ** 2
        assert mag2 <= d.populations[l] * d.populations[r] + 1e-10


def test_density_matrix_rejects_nonhermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[0.5, bad], [bad, 0.5]]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_decompose_rejects_unphysical():
    with pytest.raises(ValueError):
        decompose(np.diag([1.2, -0.2]))


def test_state_decomposition_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        StateDecomposition(np.array([0.6, 0.6]), np.zeros(2))
    with pytest.raises(ValueError, match="negative population"):
        StateDecomposition(np.array([1.2, -0.2]), np.zeros(2))
    with pytest.raises(ValueError, match="N\\(N-1\\)"):
        StateDecomposition(np.array([0.5, 0.5]), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_decomposition_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        StateDecomposition(np.array([bad, 0.5]), np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        StateDecomposition(np.array([0.5, 0.5]), np.array([0.0, bad]))


def test_reconstruct_dimension_check():
    # The dimension comes from the decomposition itself; raw coordinates of
    # mismatched lengths are rejected by assemble_matrix.
    for n in (1, 2):
        assert reconstruct(decompose(random_density(n, 1))).shape == (2**n, 2**n)
    with pytest.raises(ValueError, match="N\\(N-1\\)"):
        assemble_matrix([0.5, 0.5], [0.0, 0.0, 0.0])


def test_assemble_matrix_is_hermitian_for_raw_coordinates():
    m = assemble_matrix([0.9, 0.4], [2.0, -3.0])  # not a state, still Hermitian
    assert np.array_equal(m, m.conj().T)
    assert m[0, 1] == 2.0 - 3.0j


def test_random_density_properties():
    rho = random_density(2, 42)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    again = random_density(2, 42)
    other = random_density(2, 43)
    assert np.array_equal(rho.matrix, again.matrix)
    assert not np.array_equal(rho.matrix, other.matrix)
    with pytest.raises(ValueError):
        random_density(0, 1)
