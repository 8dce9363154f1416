"""Projected-gradient mitigation and the classical baseline inverter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherent_readout.channels import (
    amplitude_damping,
    identity,
    random_channel,
    rotation_y,
)
from coherent_readout.povm import effective_povm
from coherent_readout.readout import ReadoutModel, extract, forward
from coherent_readout.solver import (
    MitigationProblem,
    MitigationResult,
    SolverOptions,
    assemble_b,
    classical_invert,
    mitigate,
    project_to_density_set,
    project_to_simplex,
)
from coherent_readout.states import (
    DensityMatrix,
    assemble_matrix,
    decompose,
    random_density,
)


def model_of(ch):
    return extract(effective_povm(ch))


def consistent_problem(seed):
    """Random channel and state with z generated by the model itself."""
    n = 1 + (seed % 2)
    rng = np.random.default_rng(seed)
    ch = random_channel(2**n, int(rng.integers(2, 6)), seed=seed + 3)
    model = model_of(ch)
    truth = decompose(random_density(n, seed + 11).matrix)
    z = forward(model, truth)
    return MitigationProblem(model=model, z_observed=z), truth


# ---------------------------------------------------------------- assembly


def test_assemble_b_identity_layout():
    b = assemble_b(model_of(identity(2)))
    assert np.array_equal(b, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def test_assemble_b_reproduces_forward():
    ch = random_channel(4, 3, seed=21)
    model = model_of(ch)
    d = decompose(random_density(2, 22).matrix)
    v = np.concatenate([d.populations, d.coherences])
    assert np.max(np.abs(assemble_b(model) @ v - forward(model, d))) < 1e-15


# ------------------------------------------------------- simplex projection


def test_simplex_projection_clips_to_vertex():
    assert np.array_equal(project_to_simplex([1.2, -0.2]), [1.0, 0.0])


def test_simplex_projection_shifts_interior_point():
    assert np.max(np.abs(project_to_simplex([0.8, 0.4]) - [0.7, 0.3])) < 1e-15


@given(
    u=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
    qseed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_simplex_projection_is_feasible_and_optimal(u, qseed):
    u = np.asarray(u)
    p = project_to_simplex(u)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-12
    # Variational inequality: no simplex point is closer to u than p.
    q = np.random.default_rng(qseed).dirichlet(np.ones(u.size))
    assert (u - p) @ (q - p) <= 1e-10


def test_simplex_projection_fixes_simplex_points():
    v = np.array([0.2, 0.5, 0.3])
    assert np.max(np.abs(project_to_simplex(v) - v)) < 1e-15


# ------------------------------------------------------- density projection


def test_density_projection_clips_negative_population():
    x, y = project_to_density_set(np.array([1.5, -0.5]), np.zeros(2))
    assert np.max(np.abs(x - [1.0, 0.0])) < 1e-14
    assert np.max(np.abs(y)) < 1e-14


def test_density_projection_tames_excess_coherence():
    # [[0.5, 0.9], [0.9, 0.5]] has a negative eigenvalue; clipping leaves the
    # pure plus state.
    x, y = project_to_density_set(np.array([0.5, 0.5]), np.array([0.9, 0.0]))
    assert np.max(np.abs(x - [0.5, 0.5])) < 1e-13
    assert np.max(np.abs(y - [0.5, 0.0])) < 1e-13


def test_density_projection_leaves_valid_states_alone():
    d = decompose(random_density(2, 40).matrix)
    x, y = project_to_density_set(d.populations, d.coherences)
    assert np.max(np.abs(x - d.populations)) < 1e-12
    assert np.max(np.abs(y - d.coherences)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_density_projection_is_idempotent_and_valid(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    y = rng.standard_normal(12)
    if np.sum(np.maximum(np.linalg.eigvalsh(assemble_matrix(x, y)), 0.0)) <= 0.0:
        return  # nothing to project onto
    x1, y1 = project_to_density_set(x, y)
    DensityMatrix(assemble_matrix(x1, y1))
    x2, y2 = project_to_density_set(x1, y1)
    assert np.max(np.abs(x2 - x1)) < 1e-12
    assert np.max(np.abs(y2 - y1)) < 1e-12


def test_density_projection_rejects_negative_definite_input():
    with pytest.raises(ValueError, match="degenerate"):
        project_to_density_set(np.array([-0.5, -0.5]), np.zeros(2))


# ------------------------------------------------------------------ options


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"max_iterations": 0}, "max_iterations"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"residual_tol": float("nan")}, "residual_tol"),
        ({"residual_tol": 0.0}, "residual_tol"),
    ],
)
def test_options_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverOptions(**kwargs)


def test_problem_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        MitigationProblem(model=model_of(identity(2)), z_observed=np.array([1.0, 0.0, 0.0]))


def test_problem_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        MitigationProblem(model=model_of(identity(2)), z_observed=np.array([np.nan, 1.0]))


# ----------------------------------------------------------------- mitigate


def test_identity_problem_converges_in_one_step():
    problem = MitigationProblem(model=model_of(identity(2)), z_observed=np.array([1.0, 0.0]))
    res = mitigate(problem)
    assert res.converged
    assert res.iterations == 1
    assert res.residual < 1e-15
    assert np.max(np.abs(res.x_hat - [1.0, 0.0])) < 1e-15
    assert np.max(np.abs(res.y_hat)) < 1e-15
    assert np.array_equal(res.v_hat, np.concatenate([res.x_hat, res.y_hat]))


@pytest.mark.parametrize("seed", [5000, 5001, 5002, 5003, 5004, 5005])
def test_consistent_problems_reach_tolerance(seed):
    problem, _ = consistent_problem(seed)
    res = mitigate(problem, SolverOptions(residual_tol=1e-9))
    assert res.converged
    assert res.residual <= 1e-8
    # The answer must itself be a valid state.
    DensityMatrix(assemble_matrix(res.x_hat, res.y_hat))


@pytest.mark.parametrize("seed, n_kraus", [(205, 3), (543, 2), (679, 2), (1041, 3)])
def test_consistent_one_qubit_problems_do_not_stall(seed, n_kraus):
    # A step that weighs each coherence coordinate once, while the spectral
    # projection weighs it twice (Frobenius norm), has fixed points that are
    # not minimisers; these problems stopped there at residuals of 1e-2.
    model = model_of(random_channel(2, n_kraus, seed=seed))
    z = forward(model, decompose(random_density(1, seed=seed + 100000)))
    res = mitigate(MitigationProblem(model=model, z_observed=z))
    assert res.residual <= 1e-9


def test_residual_history_tracks_best_iterate():
    problem, _ = consistent_problem(5002)
    res = mitigate(problem)
    assert res.residual_history[0] >= res.residual
    assert min(res.residual_history) == res.residual
    diffs = np.diff(res.residual_history)
    assert diffs.max() <= 1e-12  # raw descent, small slack for roundoff


def test_iteration_cap_reported_as_not_converged():
    problem, _ = consistent_problem(5001)
    res = mitigate(problem, SolverOptions(max_iterations=1, residual_tol=1e-15))
    assert not res.converged
    assert res.iterations == 1


def test_mitigate_handles_coherent_observation():
    theta = 0.5
    model = model_of(rotation_y(theta))
    z = np.array([0.5 + 0.5 * np.sin(theta), 0.5 - 0.5 * np.sin(theta)])
    res = mitigate(MitigationProblem(model=model, z_observed=z))
    assert res.converged
    assert res.residual <= 1e-8
    predicted = model.assignment @ res.x_hat + model.coherence @ res.y_hat
    assert np.max(np.abs(predicted - z)) <= 1e-7


# --------------------------------------------------------- classical invert


def test_classical_invert_identity():
    x = classical_invert(model_of(identity(2)), np.array([0.3, 0.7]))
    assert np.max(np.abs(x - [0.3, 0.7])) < 1e-14


def test_classical_invert_amplitude_damping():
    model = model_of(amplitude_damping(0.3))
    z = model.assignment @ np.array([0.0, 1.0])
    x = classical_invert(model, z)
    assert np.max(np.abs(x - [0.0, 1.0])) < 1e-12


def test_classical_invert_rejects_singular_assignment():
    model = ReadoutModel(
        assignment=np.full((2, 2), 0.5), coherence=np.zeros((2, 2))
    )
    with pytest.raises(ValueError, match="singular"):
        classical_invert(model, np.array([0.5, 0.5]))


def test_classical_invert_output_is_on_simplex():
    model = model_of(amplitude_damping(0.6))
    x = classical_invert(model, np.array([0.1, 0.9]))
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) < 1e-12


@given(gamma=st.floats(0.05, 0.9), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_diagonal_models_agree_with_classical_route(gamma, seed):
    # For a diagonal model the constrained solver and the direct inverse
    # must land on the same populations. Strong damping used to park the
    # descent at a non-optimal fixed point of the old rescaling projection,
    # so keep the full gamma range covered.
    model = model_of(amplitude_damping(gamma))
    x_true = np.random.default_rng(seed).dirichlet(np.ones(2))
    z = model.assignment @ x_true
    res = mitigate(MitigationProblem(model=model, z_observed=z))
    assert res.residual <= 1e-8
    assert np.max(np.abs(res.x_hat - classical_invert(model, z))) <= 1e-6


def test_coherence_blind_inversion_fails_where_mitigation_succeeds():
    # Rotation readout of the plus state: the full model explains z exactly
    # while the assignment-only route misattributes the coherence term to
    # populations and lands far from the true ones.
    theta = 0.5
    model = model_of(rotation_y(theta))
    truth = decompose(np.full((2, 2), 0.5, dtype=complex))
    z = forward(model, truth)

    x_classical = classical_invert(model, z)
    assert np.max(np.abs(x_classical - truth.populations)) > 0.2

    res = mitigate(MitigationProblem(model=model, z_observed=z))
    assert res.converged and res.residual <= 1e-8
