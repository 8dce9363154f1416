"""Projected-gradient mitigation and the classical baseline inverter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherent_readout import solver
from coherent_readout.channels import (
    amplitude_damping,
    identity,
    random_channel,
    rotation_y,
    tensor,
)
from coherent_readout.povm import effective_povm
from coherent_readout.readout import ReadoutModel, closed_form_zoo, extract, forward
from coherent_readout.solver import (
    MitigationProblem,
    MitigationResult,
    SolverOptions,
    _largest_eigenvalue,
    _start,
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


def consistent_channel_and_state(seed):
    """The random channel and state behind consistent_problem(seed)."""
    n = 1 + (seed % 2)
    rng = np.random.default_rng(seed)
    return random_channel(2**n, int(rng.integers(2, 6)), seed=seed + 3), random_density(n, seed + 11)


def consistent_problem(seed):
    """Random channel and state with z generated by the model itself."""
    ch, rho = consistent_channel_and_state(seed)
    model = model_of(ch)
    truth = decompose(rho.matrix)
    z = forward(model, truth)
    return MitigationProblem(model=model, z_observed=z), truth


def three_qubit_channel_and_state(seed):
    return random_channel(8, 2 + seed % 3, seed=seed), random_density(3, seed + 1)


def damping_shot_problem(seed):
    """Two-qubit amplitude damping (gamma in [0.5, 0.9]) with z from 200-500 shots of a
    near-pure state, which no physical state explains exactly. Returns the problem and
    the generating state's residual."""
    rng = np.random.default_rng(seed)
    g1, g2 = rng.uniform(0.5, 0.9, 2)
    model = model_of(tensor(amplitude_damping(g1), amplitude_damping(g2)))
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    p = forward(model, decompose(0.98 * np.outer(psi, psi.conj()) + 0.005 * np.eye(4)))
    shots = int(rng.integers(200, 501))
    z = rng.multinomial(shots, p / p.sum()) / shots
    return MitigationProblem(model=model, z_observed=z), float(np.linalg.norm(z - p))


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


@pytest.mark.parametrize(
    "u, expected",
    [([1e150, 1e150], [0.5, 0.5]), ([1e150, -1e150], [1.0, 0.0]), ([1e308, -1e308], [1.0, 0.0])],
)
def test_simplex_projection_of_huge_entries(u, expected):
    # The sums of the threshold search used to cancel here, leaving no
    # feasible index (IndexError) or a zero vector. The overflow of the
    # last case is judged by the feasibility test, so it warns no more.
    assert np.array_equal(project_to_simplex(u), expected)


def simplex_by_gathers(u):
    """Oracle: the same threshold search, with two boolean gathers."""
    u = np.asarray(u, dtype=float)
    u = u - np.max(u)
    srt = np.sort(u)[::-1]
    css = np.cumsum(srt)
    idx = np.arange(1, u.size + 1)
    feasible = srt + (1.0 - css) / idx > 0.0
    k = idx[feasible][-1]
    tau = (1.0 - css[feasible][-1]) / k
    return np.maximum(u + tau, 0.0)


def test_simplex_projection_is_bit_identical_to_the_gather_formula():
    rng = np.random.default_rng(808)
    for trial in range(3000):
        size = int(rng.integers(1, 33))
        kind = trial % 4
        if kind == 0:  # magnitudes across the float range
            u = rng.standard_normal(size) * 10.0 ** rng.uniform(-300, 300)
        elif kind == 1:  # ties
            u = rng.integers(-3, 4, size) / 4.0
        elif kind == 2:  # all negative
            u = -np.abs(rng.standard_normal(size)) * 10.0 ** rng.uniform(-5, 5)
        else:  # spans near and beyond the float range
            u = rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 1.0, size) * 1.7e308
        with np.errstate(over="ignore", invalid="ignore"):
            expected = simplex_by_gathers(u)
        assert project_to_simplex(u).tobytes() == expected.tobytes(), u


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


def test_density_projection_of_negative_definite_input():
    # The simplex projection of the spectrum is the Euclidean projection onto
    # the density set for every Hermitian matrix, negative definite included.
    for x, expected in [([-1.0, -2.0], [1.0, 0.0]), ([-0.5, -0.5], [0.5, 0.5]),
                        ([-3.0, -1e-300], [0.0, 1.0])]:
        x1, y1 = project_to_density_set(np.array(x), np.zeros(2))
        assert np.max(np.abs(x1 - expected)) <= 1e-15
        assert np.max(np.abs(y1)) <= 1e-15


def test_density_projection_of_the_zero_matrix_is_maximally_mixed():
    x, y = project_to_density_set(np.zeros(4), np.zeros(12))
    assert np.max(np.abs(x - 0.25)) < 1e-15
    assert np.max(np.abs(y)) < 1e-15


# ------------------------------------------------------------------ options


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"max_iterations": 0}, "max_iterations"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"residual_tol": float("nan")}, "residual_tol"),
        ({"residual_tol": 0.0}, "residual_tol"),
        ({"residual_tol": float("inf")}, "residual_tol"),
    ],
)
def test_options_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverOptions(**kwargs)


def test_problem_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        MitigationProblem(model=model_of(identity(2)), z_observed=np.array([1.0, 0.0, 0.0]))


def test_overflowing_distribution_is_rejected():
    # Finite, but the residual of the maximally mixed start already overflows.
    problem = MitigationProblem(model=model_of(identity(2)), z_observed=np.array([1e308, 0.5]))
    with pytest.raises(ValueError, match="out of range"):
        mitigate(problem)


def test_problem_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        MitigationProblem(model=model_of(identity(2)), z_observed=np.array([np.nan, 1.0]))


# ----------------------------------------------------------------- mitigate


def test_identity_problem_converges_in_one_step():
    # The one step is the closed-form start: |0><0| is the consistent state
    # nearest I/2, so no iteration runs.
    problem = MitigationProblem(model=model_of(identity(2)), z_observed=np.array([1.0, 0.0]))
    res = mitigate(problem)
    assert res.converged
    assert res.iterations == 0
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


@pytest.mark.parametrize(
    "problem",
    [consistent_problem(5002)[0], damping_shot_problem(3)[0], damping_shot_problem(7)[0]],
    ids=["consistent-5002", "shots-3", "shots-7"],
)
def test_residual_history_tracks_best_iterate(problem):
    res = mitigate(problem)
    assert res.residual_history[0] >= res.residual
    assert min(res.residual_history) == res.residual
    diffs = np.diff(res.residual_history)
    # Raw descent, small slack for roundoff; a problem solved at the start
    # has a one-entry history.
    assert np.all(diffs <= 1e-12)


@pytest.mark.parametrize("seed", [3, 7])
def test_rejected_steps_count_as_iterations(seed):
    # The history holds the start and each accepted residual; a step that would
    # raise the residual is rejected, so the history is shorter than the
    # iteration count, and the cap still bounds every projected step.
    problem, _ = damping_shot_problem(seed)
    res = mitigate(problem)
    assert res.converged
    assert len(res.residual_history) < res.iterations + 1
    # Every cap below the uncapped count stops the same run early.
    for k in (res.iterations // 3, res.iterations // 2, res.iterations - 1):
        capped = mitigate(problem, SolverOptions(max_iterations=k))
        assert capped.iterations <= k
        assert not capped.converged
    assert len(capped.residual_history) < capped.iterations + 1


@pytest.mark.parametrize("seed", [0, 4, 6, 13, 21, 28])
def test_finite_shot_damping_problems_stop_before_the_cap(seed):
    # No state explains these data exactly, so the solver must stop at a
    # stationary point well before the iteration cap.
    problem, generating_residual = damping_shot_problem(seed)
    res = mitigate(problem)
    assert res.converged
    assert res.iterations < SolverOptions().max_iterations
    assert res.residual <= generating_residual
    DensityMatrix(assemble_matrix(res.x_hat, res.y_hat))


def test_iteration_cap_reported_as_not_converged():
    problem, _ = damping_shot_problem(3)
    res = mitigate(problem, SolverOptions(max_iterations=1, residual_tol=1e-15))
    assert not res.converged
    assert res.iterations == 1


@pytest.mark.parametrize(
    "make, seed",
    [(consistent_channel_and_state, s) for s in range(5000, 5006)]
    + [(three_qubit_channel_and_state, s) for s in (60, 61, 62, 63)],
)
def test_consistent_data_are_solved_at_the_start(make, seed):
    # The answer is I/N + sum_k mu_k F_k with sum_l Tr(F_k F_l) mu_l =
    # z_k - Tr(F_k)/N: the consistent matrix nearest I/N in the Frobenius
    # norm, computed here from the POVM elements rather than coordinates.
    ch, rho = make(seed)
    f = effective_povm(ch).elements
    n = ch.dim
    z = np.einsum("kij,ji->k", f, rho.matrix).real
    gram = np.einsum("kij,lji->kl", f, f).real
    mu = np.linalg.lstsq(gram, z - np.trace(f, axis1=1, axis2=2).real / n, rcond=None)[0]
    expected = np.eye(n) / n + np.einsum("k,kij->ij", mu, f)
    assert np.linalg.eigvalsh(expected)[0] > 0.0  # a state, so no iteration is needed

    res = mitigate(MitigationProblem(model=model_of(ch), z_observed=z))
    assert res.iterations == 0
    assert res.converged
    assert res.residual <= 1e-12
    assert np.max(np.abs(assemble_matrix(res.x_hat, res.y_hat) - expected)) <= 1e-12


@pytest.mark.parametrize(
    "problem, loop_runs",
    [(consistent_problem(5000)[0], False), (damping_shot_problem(3)[0], True)],
    ids=["consistent", "finite-shot"],
)
def test_step_size_is_computed_only_when_the_loop_runs(monkeypatch, problem, loop_runs):
    calls = []

    def counting(g):
        calls.append(1)
        return _largest_eigenvalue(g)

    monkeypatch.setattr(solver, "_largest_eigenvalue", counting)
    res = mitigate(problem)
    assert (res.iterations > 0) is loop_runs
    assert len(calls) == int(loop_runs)


@pytest.mark.parametrize("ch", [rotation_y(0.7), random_channel(4, 3, seed=66)])
def test_start_is_the_least_norm_combination_of_povm_elements(ch):
    # v* = sum_k mu_k F_k with sum_l Tr(F_k F_l) mu_l = z_k (minimum-norm mu),
    # computed here from the POVM elements rather than coordinates; for z
    # that no state explains, the start is the density matrix nearest v*.
    f = effective_povm(ch).elements
    n = ch.dim
    z = np.random.default_rng(n).uniform(-2.0, 2.0, n)
    gram = np.einsum("kij,lji->kl", f, f).real
    v_star = np.einsum("k,kij->ij", np.linalg.lstsq(gram, z, rcond=None)[0], f)
    w, u = np.linalg.eigh(v_star)
    expected = (u * project_to_simplex(w)) @ u.conj().T

    model = model_of(ch)
    p = np.concatenate([model.assignment, model.coherence / 2.0], axis=1)
    v = _start(p, p @ assemble_b(model).T, z)
    assert np.max(np.abs(assemble_matrix(v[:n], v[n:]) - expected)) <= 1e-12


@pytest.mark.parametrize(
    "ch", [amplitude_damping(0.3), random_channel(4, 2, seed=65), random_channel(8, 3, seed=64)]
)
def test_step_size_is_the_squared_spectral_norm(ch):
    # lambda_max(B D^-1 B^T) = ||B D^-1/2||_2^2, the Lipschitz constant of the gradient.
    b = assemble_b(model_of(ch))
    n = ch.dim
    d_inv = np.concatenate([np.ones(n), np.full(n * (n - 1), 0.5)])
    svd_value = np.linalg.norm(b * np.sqrt(d_inv), 2) ** 2
    assert abs(_largest_eigenvalue((b * d_inv) @ b.T) - svd_value) <= 1e-12 * svd_value


def test_zero_data_start_at_the_maximally_mixed_state():
    # z = [0, 0] is explained only by the zero matrix: v* = 0 exactly, whose
    # projection is I/2, and the solver reaches the best fit, residual 1/sqrt(2).
    model = model_of(amplitude_damping(0.3))
    z = np.zeros(2)
    b = assemble_b(model)
    p = np.concatenate([model.assignment, model.coherence / 2.0], axis=1)
    gram = p @ b.T
    assert np.array_equal(p.T @ np.linalg.lstsq(gram, z, rcond=None)[0], np.zeros(4))
    assert np.array_equal(_start(p, gram, z), [0.5, 0.5, 0.0, 0.0])

    res = mitigate(MitigationProblem(model=model, z_observed=z))
    assert res.converged
    assert abs(res.residual - np.sqrt(0.5)) <= 1e-12


TOTAL_CHANNELS = [(f"{name}-{param:.2f}", ch) for name, param, ch, _, _ in closed_form_zoo()] + [
    (f"random-{2**q}-{seed}", random_channel(2**q, 2 + seed % 3, seed=seed))
    for q in (1, 2, 3)
    for seed in (70 + q, 80 + q, 90 + q)
]


def total_z(kind, n):
    if kind == "all-minus-5":
        return np.full(n, -5.0)
    if kind == "minus-e0":
        return -np.eye(n)[0]
    if kind == "zeros":
        return np.zeros(n)
    if kind == "minus-1000":
        return np.concatenate([[-1000.0], np.ones(n - 1)])
    return np.random.default_rng(n).uniform(-2.0, 2.0, n)


@pytest.mark.parametrize("kind", ["all-minus-5", "minus-e0", "zeros", "minus-1000", "random"])
@pytest.mark.parametrize("ch", [c for _, c in TOTAL_CHANNELS], ids=[i for i, _ in TOTAL_CHANNELS])
def test_every_finite_z_is_fitted_at_least_as_well_as_by_the_mixed_state(ch, kind):
    # Data that no state explains, negative data included: the solver returns a
    # state and never fits worse than I/N.
    model = model_of(ch)
    n = model.dim
    z = total_z(kind, n)
    res = mitigate(MitigationProblem(model=model, z_observed=z))
    DensityMatrix(assemble_matrix(res.x_hat, res.y_hat))
    mixed_residual = np.linalg.norm(z - model.assignment @ np.full(n, 1.0 / n))
    assert res.residual <= mixed_residual + 1e-12


def test_step_onto_the_zero_matrix_is_projected():
    # From I/4 the first step lands exactly on the zero matrix, which
    # projects back to I/4: the best fit, residual 1/sqrt(2).
    model = model_of(tensor(amplitude_damping(1.0), identity(2)))
    res = mitigate(MitigationProblem(model=model, z_observed=np.zeros(4)))
    assert res.converged
    assert abs(res.residual - np.sqrt(0.5)) <= 1e-12
    DensityMatrix(assemble_matrix(res.x_hat, res.y_hat))


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
