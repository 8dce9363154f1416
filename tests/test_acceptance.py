"""Acceptance gate for the readout-model stack.

Seven criteria, one test each, every test printing a single summary line
(run pytest with -s to see them on passing runs):

    ACCEPTANCE <k>: PASS - <detail>

1. Built-in noise zoo matches its closed-form models entrywise, < 1 s.
2. Coefficient-path forward agrees with the oracle (the Born rule on the
   channel's output state) over 200 random channel/state pairs at 1, 2, 3
   qubits, < 30 s.
3. Pauli channels are exactly classical; the unitary y-rotation carries
   nonclassicality |sin t| and kernel diagonality defect |sin t|/2.
4. Every extracted model has assignment columns summing to 1 and coherence
   columns summing to 0.
5. Constrained mitigation solves 50 consistent problems to residual 1e-8
   with physical output; classical submodels recover the true populations.
6. On a coherent input the assignment-only prediction is off by a fixed,
   computable amount while the full model is exact to roundoff.
7. The whole gate is deterministic and needs no external data.
"""

import time
from functools import lru_cache

import numpy as np

from coherent_readout.channels import (
    amplitude_damping,
    pauli_channel,
    random_channel,
    rotation_y,
)
from coherent_readout.povm import effective_povm, kernel_diag_defect
from coherent_readout.readout import (
    classical_forward,
    closed_form_zoo,
    extract,
    forward,
    nonclassicality,
    oracle_probabilities,
)
from coherent_readout.solver import (
    MitigationProblem,
    SolverOptions,
    classical_invert,
    mitigate,
)
from coherent_readout.states import (
    DensityMatrix,
    assemble_matrix,
    decompose,
    random_density,
)


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def model_of(ch):
    return extract(effective_povm(ch))


@lru_cache(maxsize=1)
def random_pairs():
    """200 random channel/state pairs: 70, 70, 60 at n = 1, 2, 3."""
    pairs = []
    i = 0
    for n_qubits, count in ((1, 70), (2, 70), (3, 60)):
        for _ in range(count):
            n_kraus = 2 + (i % 4)
            ch = random_channel(2**n_qubits, n_kraus, seed=i)
            rho = random_density(n_qubits, 10_000 + i)
            pairs.append((ch, rho))
            i += 1
    return pairs


@lru_cache(maxsize=1)
def random_pauli_channels():
    """50 random Pauli channels, 25 each at one and two qubits."""
    chans = []
    for j in range(25):
        probs = np.random.default_rng(100 + j).dirichlet(np.ones(4))
        chans.append(pauli_channel(probs))
        probs = np.random.default_rng(200 + j).dirichlet(np.ones(16))
        chans.append(pauli_channel(probs))
    return chans


def classical_recovery_problems():
    """Diagonal-model problems: identity-dominant Pauli noise and damping.

    Identity-dominant weights keep the assignment matrix well conditioned;
    a uniform Pauli mixture would be nearly depolarizing and near-singular.
    """
    problems = []
    for j in range(5):
        rng = np.random.default_rng(9000 + j)
        alpha = np.ones(16)
        alpha[0] = 60.0
        model = model_of(pauli_channel(rng.dirichlet(alpha)))
        x_true = rng.dirichlet(np.ones(4))
        problems.append((model, x_true))
    for j, gamma in enumerate((0.1, 0.25, 0.4, 0.6, 0.8)):
        model = model_of(amplitude_damping(gamma))
        x_true = np.random.default_rng(9100 + j).dirichlet(np.ones(2))
        problems.append((model, x_true))
    return problems


def test_criterion_1_zoo_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    zoo = closed_form_zoo()
    for _, _, ch, a_exp, c_exp in zoo:
        model = model_of(ch)
        worst = max(
            worst,
            float(np.max(np.abs(model.assignment - a_exp))),
            float(np.max(np.abs(model.coherence - c_exp))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    line = report(1, ok, f"zoo of {len(zoo)} closed forms, max entry error {worst:.2e}, {elapsed:.2f} s")
    assert ok, line


def test_criterion_2_forward_matches_oracle():
    start = time.perf_counter()
    worst = 0.0
    for ch, rho in random_pairs():
        z_model = forward(model_of(ch), decompose(rho))
        z_oracle = oracle_probabilities(ch, rho)
        worst = max(worst, float(np.max(np.abs(z_model - z_oracle))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 30.0
    line = report(
        2, ok, f"200 random channel/state pairs, max |z_model - z_oracle| {worst:.2e}, {elapsed:.1f} s"
    )
    assert ok, line


def test_criterion_3_diagonality_equivalences():
    worst_pauli_nc = 0.0
    worst_pauli_kd = 0.0
    for ch in random_pauli_channels():
        worst_pauli_nc = max(worst_pauli_nc, nonclassicality(model_of(ch), "max"))
        worst_pauli_kd = max(worst_pauli_kd, kernel_diag_defect(ch))

    worst_rot = 0.0
    for theta in np.linspace(0.05, np.pi - 0.05, 17):
        ch = rotation_y(float(theta))
        worst_rot = max(
            worst_rot,
            abs(nonclassicality(model_of(ch), "max") - np.sin(theta)),
            abs(kernel_diag_defect(ch) - np.sin(theta) / 2.0),
        )
    ok = worst_pauli_nc <= 1e-12 and worst_pauli_kd <= 1e-12 and worst_rot <= 1e-12
    line = report(
        3,
        ok,
        "50 Pauli channels classical to "
        f"{max(worst_pauli_nc, worst_pauli_kd):.2e}; rotation sweep off closed form by {worst_rot:.2e}",
    )
    assert ok, line


def test_criterion_4_column_sum_structure():
    worst_a = 0.0
    worst_c = 0.0
    models = [model_of(ch) for _, _, ch, _, _ in closed_form_zoo()]
    models += [model_of(ch) for ch, _ in random_pairs()]
    models += [model_of(ch) for ch in random_pauli_channels()]
    for m in models:
        worst_a = max(worst_a, float(np.max(np.abs(m.assignment.sum(axis=0) - 1.0))))
        if m.coherence.size:
            worst_c = max(worst_c, float(np.max(np.abs(m.coherence.sum(axis=0)))))
    ok = worst_a <= 1e-10 and worst_c <= 1e-10
    line = report(
        4,
        ok,
        f"{len(models)} models: assignment column sums off 1 by {worst_a:.2e}, "
        f"coherence column sums off 0 by {worst_c:.2e}",
    )
    assert ok, line


def test_criterion_5_solver_consistency():
    start = time.perf_counter()
    options = SolverOptions(max_iterations=5000, residual_tol=1e-9)

    worst_residual = 0.0
    max_iters = 0
    solved = 0
    for i in range(40):
        seed = 5000 + i
        n = 1 + (i % 2)
        rng = np.random.default_rng(seed)
        ch = random_channel(2**n, int(rng.integers(2, 6)), seed=seed + 3)
        model = model_of(ch)
        truth = decompose(random_density(n, seed + 11).matrix)
        z = forward(model, truth)
        res = mitigate(MitigationProblem(model, z), options)
        DensityMatrix(assemble_matrix(res.x_hat, res.y_hat))
        worst_residual = max(worst_residual, res.residual)
        max_iters = max(max_iters, res.iterations)
        solved += res.residual <= 1e-8 and res.iterations <= 5000

    worst_recovery = 0.0
    for model, x_true in classical_recovery_problems():
        assert np.all(model.coherence == 0.0)
        svals = np.linalg.svd(model.assignment, compute_uv=False)
        assert svals[-1] > 1e-3  # nonsingular by construction
        z = model.assignment @ x_true
        res = mitigate(MitigationProblem(model, z), options)
        DensityMatrix(assemble_matrix(res.x_hat, res.y_hat))
        worst_residual = max(worst_residual, res.residual)
        solved += res.residual <= 1e-8 and res.iterations <= 5000
        worst_recovery = max(worst_recovery, float(np.max(np.abs(res.x_hat - x_true))))

    elapsed = time.perf_counter() - start
    ok = solved == 50 and worst_recovery <= 1e-6 and elapsed < 60.0
    line = report(
        5,
        ok,
        f"{solved}/50 problems at residual <= 1e-8 (worst {worst_residual:.2e}, "
        f"max {max_iters} iters); classical recovery off by {worst_recovery:.2e}; {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_6_assignment_only_model_is_incomplete():
    theta = 0.5
    model = model_of(rotation_y(theta))
    plus = np.full((2, 2), 0.5, dtype=complex)
    z_true = oracle_probabilities(rotation_y(theta), plus)

    d = decompose(plus)
    err_classical = float(np.max(np.abs(classical_forward(model, d.populations) - z_true)))
    err_full = float(np.max(np.abs(forward(model, d) - z_true)))

    expected_gap = abs(np.sin(theta) * 0.5)
    ok = abs(err_classical - expected_gap) <= 1e-12 and err_full <= 1e-11
    line = report(
        6,
        ok,
        f"assignment-only error {err_classical:.6f} (expected {expected_gap:.6f}), "
        f"full-model error {err_full:.2e}",
    )
    assert ok, line


def test_criterion_7_gate_is_deterministic_and_self_contained():
    # Same seeds, same bits: rerunning any generator reproduces its output
    # exactly, so the whole gate runs reproducibly from source alone.
    ch_a = random_channel(4, 3, seed=123)
    ch_b = random_channel(4, 3, seed=123)
    same_channels = all(np.array_equal(p, q) for p, q in zip(ch_a.kraus_ops, ch_b.kraus_ops))
    same_states = np.array_equal(random_density(2, 45).matrix, random_density(2, 45).matrix)

    problem = MitigationProblem(model_of(ch_a), np.array([0.4, 0.3, 0.2, 0.1]))
    res_a = mitigate(problem)
    res_b = mitigate(problem)
    same_solutions = np.array_equal(res_a.x_hat, res_b.x_hat) and np.array_equal(
        res_a.y_hat, res_b.y_hat
    )

    ok = same_channels and same_states and same_solutions
    line = report(7, ok, "fixed-seed reruns are bit-identical; no external data or hardware needed")
    assert ok, line


def test_classical_inverter_matches_on_diagonal_models():
    # Companion check for criterion 5's recovery clause: the direct
    # least-squares route lands on the same populations.
    for model, x_true in classical_recovery_problems():
        x_direct = classical_invert(model, model.assignment @ x_true)
        assert np.max(np.abs(x_direct - x_true)) <= 1e-8
