"""Tests of the benchmark itself: each workload at a tiny size, and each check
fed a deliberately corrupted result, which it must reject.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return bench.import_package()


def rng():
    return np.random.default_rng(20251)


def run_and_check(workload, lib, problems, run=None):
    outputs = []
    for p in problems:
        out = (run or workload.run)(lib, p)
        errors = workload.check(lib, p, out)
        if getattr(p, "known_fault", False):
            assert errors, "the NaN-model call passed: mark it mended and drop known_fault"
        else:
            assert errors == [], errors
        outputs.append(out)
    return outputs


# ----------------------------------------------------------------- reference


def test_coordinates_round_trip_and_match_the_package(lib):
    rho = ref.random_state(rng(), 8)
    rho = (rho + rho.conj().T) / 2
    x, y = ref.matrix_to_coords(rho)
    back = ref.matrix_to_coords(ref.coords_to_matrix(x, y))
    assert np.array_equal(back[0], x) and np.array_equal(back[1], y)
    assert np.array_equal(ref.coords_to_matrix(x, y), lib.states.assemble_matrix(x, y))
    d = lib.states.decompose(rho)
    assert np.array_equal(d.populations, x) and np.array_equal(d.coherences, y)


def test_classical_best_fit_is_the_minimum_over_the_simplex():
    a = ref.assignment_matrix(ref.amplitude_damping_kraus(0.5))
    best, x = ref.classical_best_fit(a, [0.0, 1.0])
    assert best == pytest.approx(0.5 * np.sqrt(2), abs=1e-15) and np.allclose(x, [0.0, 1.0])

    gen = rng()
    a = ref.assignment_matrix(ref.tensor_kraus(ref.amplitude_damping_kraus(0.7), ref.amplitude_damping_kraus(0.4)))
    z = gen.dirichlet(np.ones(4))
    best, x = ref.classical_best_fit(a, z)
    assert x.min() >= 0 and x.sum() == pytest.approx(1.0)
    assert best == pytest.approx(np.linalg.norm(z - a @ x), abs=1e-15)
    samples = gen.dirichlet(np.full(4, 0.3), size=20000)
    assert best <= np.min(np.linalg.norm(z - samples @ a.T, axis=1)) + 1e-12


def test_readout_model_matches_the_package_extract(lib):
    ops = ref.random_kraus(rng(), 4, 3)
    a, c = ref.readout_model(ops)
    model = lib.readout.extract(lib.povm.effective_povm(lib.channels.KrausChannel(4, tuple(ops))))
    assert np.allclose(a, model.assignment, rtol=0, atol=1e-12)
    assert np.allclose(c, model.coherence, rtol=0, atol=1e-12)


def test_feasibility_rejects_non_psd_and_wrong_trace():
    assert ref.feasibility_errors(np.diag([0.5, 0.5])) == []
    assert ref.feasibility_errors(np.diag([1.2, -0.2]))
    assert ref.feasibility_errors(np.diag([0.6, 0.5]))
    assert ref.feasibility_errors(np.array([[0.5, 0.1], [0.0, 0.5]]))


# --------------------------------------------------------------------- chain


@pytest.fixture(scope="module")
def chain_case(lib):
    w = wl.Chain()
    problems = w.make_round(rng(), lib, None, mix=((2, 2, 1), (2, 4, 2)))
    return w, problems, run_and_check(w, lib, problems)


def test_chain_rejects_corrupted_results(lib, chain_case):
    w, problems, outputs = chain_case
    p, (z, res) = problems[-1], outputs[-1]
    bad_x = res.x_hat + np.r_[0.05, -0.05, 0.0, 0.0]
    non_psd = np.r_[1.2, -0.2, 0.0, 0.0]
    corrupted = [
        (z + 1e-9, res),
        (z, dataclasses.replace(res, x_hat=bad_x)),
        (z, dataclasses.replace(res, x_hat=non_psd, y_hat=np.zeros_like(res.y_hat))),
        (z, dataclasses.replace(res, residual=res.residual + 1e-9)),
    ]
    for out in corrupted:
        assert w.check(lib, p, out)


@pytest.fixture(scope="module")
def finite_shot_case(lib):
    w = wl.Chain()
    problems = w.finite_shot_problems()
    return w, problems, run_and_check(w, lib, problems)


def test_finite_shot_problems_are_fixed_and_classical(lib, finite_shot_case):
    w, problems, _ = finite_shot_case
    batch = w.make_round(rng(), lib, None)[-1].batch
    assert all(np.array_equal(p.z, q.z) for p, q in zip(problems, batch))
    again = w.finite_shot_problems()
    assert all(np.array_equal(p.z, q.z) for p, q in zip(problems, again))
    assert problems[0].rho is None and list(problems[0].z) == [0.0, 1.0]
    for p in problems:
        assert np.allclose(ref.assignment_matrix(p.ops).sum(axis=0), 1.0)
        assert p.z.sum() == pytest.approx(1.0)


def test_finite_shot_check_rejects_corrupted_results(lib, finite_shot_case):
    w, problems, outputs = finite_shot_case
    for p, (z, res) in zip(problems, outputs):
        n = p.z.size
        # The worst basis state, reported with its own (correct) residual.
        worst = max(range(n), key=lambda k: ref.residual(p.ops, np.diag(np.eye(n)[k]), p.z))
        x_far = np.eye(n)[worst]
        far = dataclasses.replace(res, x_hat=x_far, y_hat=np.zeros_like(res.y_hat),
                                  residual=ref.residual(p.ops, np.diag(x_far), p.z))
        non_psd = np.r_[1.2, -0.2, np.zeros(n - 2)]
        corrupted = [
            far,
            dataclasses.replace(res, residual=res.residual + 1e-9),
            dataclasses.replace(res, x_hat=non_psd, y_hat=np.zeros_like(res.y_hat)),
        ]
        for bad in corrupted:
            assert w.check(lib, p, (z, bad))


# --------------------------------------------------------------- model-check


@pytest.fixture(scope="module")
def model_case(lib):
    w = wl.ModelCheck()
    mix = (("random", 2, 1), ("zoo", 1, 3), ("zoo", 2, 1), ("pauli", 1, 1), ("superop", 3, 1))
    problems = w.make_round(rng(), lib, None, mix=mix)
    return w, problems, run_and_check(w, lib, problems)


def _with_model(out, a, c):
    model = SimpleNamespace(assignment=a, coherence=c)
    return SimpleNamespace(**{**vars(out), "model": model})


def test_model_check_rejects_corrupted_results(lib, model_case):
    w, problems, outputs = model_case
    by_family = {}
    for p, out in zip(problems, outputs):
        by_family.setdefault((p.family, p.qubits, p.factors and p.factors[0][0]), (p, out))
    p, out = by_family[("random", 2, None)]
    a, c = out.model.assignment, out.model.coherence
    assert w.check(lib, p, _with_model(out, a, -c))  # flipped C sign
    swapped = a[:, ::-1]
    assert w.check(lib, p, _with_model(out, swapped, c))
    assert w.check(lib, p, SimpleNamespace(**{**vars(out), "z_oracle": [z[::-1] for z in out.z_oracle]}))
    assert w.check(lib, p, SimpleNamespace(**{**vars(out), "kernel_defect": out.kernel_defect + 1e-6}))

    p, out = by_family[("zoo", 1, "rotation_y")]
    assert w.check(lib, p, _with_model(out, out.model.assignment, 0.9 * out.model.coherence))

    p, out = by_family[("pauli", 1, None)]
    c_leak = np.array([[1e-3, 0.0], [-1e-3, 0.0]])
    assert w.check(lib, p, _with_model(out, out.model.assignment, c_leak))

    p, out = by_family[("superop", 3, None)]
    assert w.check(lib, p, SimpleNamespace(**{**vars(out), "z_oracle": [z[::-1] for z in out.z_oracle]}))
    assert w.check(lib, p, SimpleNamespace(**{**vars(out), "kernel_defect": out.kernel_defect + 1e-6}))

    tensor = [(p, out) for p, out in zip(problems, outputs) if p.family == "zoo" and p.qubits == 2]
    p, out = tensor[0]
    perm = [0, 2, 1, 3]  # swaps the qubits: Kronecker order reversed
    a_swapped = out.model.assignment[np.ix_(perm, perm)]
    if not np.allclose(a_swapped, out.model.assignment):
        assert w.check(lib, p, _with_model(out, a_swapped, out.model.coherence))


# -------------------------------------------------------------- cli-pipeline


@pytest.fixture(scope="module")
def cli_case(lib, tmp_path_factory):
    w = wl.CliPipeline()
    workdir = tmp_path_factory.mktemp("cli")
    problems = w.make_round(rng(), lib, workdir, mix=(1,)) + [w.nan_model_problem(workdir)]
    return w, problems, run_and_check(w, lib, problems)


def test_cli_in_process_matches_subprocess_checks(lib, cli_case):
    w, problems, _ = cli_case
    run_and_check(w, lib, problems, run=w.run_in_process)


def test_cli_mitigate_inputs_do_not_depend_on_the_seed(lib, tmp_path):
    w = wl.CliPipeline()
    files = []
    for seed in (1, 2):
        (p,) = [q for q in w.make_round(np.random.default_rng(seed), lib, tmp_path / str(seed), mix=(2,))
                if q.command == "mitigate"]
        files.append([Path(p.files[k]).read_text() for k in ("model", "counts")])
    assert files[0] == files[1]


def test_cli_pipeline_rejects_corrupted_results(lib, cli_case):
    w, problems, outputs = cli_case
    by_command = {p.command: (p, out) for p, out in zip(problems, outputs)}

    p, (code, stdout, stderr) = by_command["channel-validate"]
    doc = json.loads(stdout)
    assert w.check(lib, p, (1, stdout, stderr))
    assert w.check(lib, p, (0, json.dumps({**doc, "pass": False}), stderr))
    assert w.check(lib, p, (0, json.dumps({**doc, "kernel_diag_defect": 1.0}), stderr))

    p, out = by_command["model-extract"]
    path = Path(p.files["model"])
    saved = path.read_text()
    model = json.loads(saved)
    model["A"][0][0] = np.nextafter(model["A"][0][0], 2.0)
    path.write_text(json.dumps(model))
    try:
        assert w.check(lib, p, out)
    finally:
        path.write_text(saved)

    p, (code, stdout, stderr) = by_command["sample"]
    doc = json.loads(stdout)
    assert w.check(lib, p, (0, json.dumps({**doc, "counts": [c + 1 for c in doc["counts"]]}), stderr))

    p, (code, stdout, stderr) = by_command["mitigate"]
    doc = json.loads(stdout)
    assert w.check(lib, p, (0, json.dumps({**doc, "x": [1.2, -0.2], "y": [0.0, 0.0]}), stderr))
    assert w.check(lib, p, (0, json.dumps({**doc, "x": [1.0, 0.0], "y": [0.0, 0.0]}), stderr))

    p, (code, stdout, stderr) = by_command["forward"]
    doc = json.loads(stdout)
    assert w.check(lib, p, (0, json.dumps({**doc, "z_oracle": doc["z_oracle"][::-1]}), stderr))

    p, _ = by_command["nan-model"]
    assert w.check(lib, p, (1, "", "Traceback (most recent call last):\n  ...\nIndexError: x\n"))
    assert w.check(lib, p, (2, "", "error: model has non-finite entries\n")) == []


# -------------------------------------------------------------------- tracer


def test_tracer_times_layers_and_restores_the_package(lib):
    w = wl.Chain()
    p = w.make_round(rng(), lib, None, mix=((2, 3, 1),))[0]
    originals = (lib.povm.effective_povm, np.linalg.eigh, lib.states.DensityMatrix.__init__)
    tracer = Tracer(lib)
    tracer.install()
    try:
        z, res = w.run(lib, p)
    finally:
        tracer.uninstall()
    assert (lib.povm.effective_povm, np.linalg.eigh, lib.states.DensityMatrix.__init__) == originals
    assert tracer.counts["solver.iterations"] == res.iterations
    assert tracer.calls["solver.mitigate"] == 1
    assert tracer.calls["linalg.eigh"] >= res.iterations
    assert 0 < tracer.seconds["solver.project_to_density_set"] < tracer.seconds["solver.mitigate"]
    assert tracer.self_seconds["solver"] < tracer.seconds["solver.mitigate"]

    metrics = bench.per_layer(tracer, 1, 1.0, 1.0, children=False)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [(k, u) for k, (_, u) in metrics.items()] == [(m["name"], m["unit"]) for m in spec]
    assert metrics["solver.iterations"][0] == res.iterations
    assert metrics["cli.startup_ms"][0] == 0.0


# -------------------------------------------------------------------- run.py


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
