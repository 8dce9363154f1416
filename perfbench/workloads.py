"""The benchmark's workloads.

Each workload makes one round of operations at a time from a seeded numpy
Generator (reference.py; never the package's own random_channel or
random_density), runs one operation at a time, and checks every output
against reference.py or against properties the method must have. A round
has the same make-up (families, qubit counts, number of operations) in
every run, so the share of failed operations does not depend on the seed
or on how many rounds fit in a run.

Each workload exposes:
  make_round(rng, lib, workdir, mix=None) -> list of problems (untimed)
  run(lib, problem)                        -> output (the timed operation)
  check(lib, problem, output)              -> list of failure messages
  largest                                  -> qubit count of largest_p50_ms
  warm_up_mix                              -> the make-up of the set-up's warm-up round, all of
                                              which set-up runs
and optionally run_in_process (what the traced run times instead of run)
and runs_in_children (peak_rss_mb is that of child processes).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Outputs computed two ways in exact arithmetic must agree to this.
PROB_TOL = 1e-12
# How far a finite-shot mitigate residual may lie above the exact best
# physical fit; far below the shot noise 1/sqrt(shots) of about 0.06.
BEST_FIT_TOL = 2e-3
ZOO = ("dephasing", "amplitude_damping", "rotation_y")
CLASSICAL_ZOO = ("dephasing", "amplitude_damping")


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _zoo_param(rng, kind: str) -> float:
    if kind == "rotation_y":
        return float(rng.uniform(-np.pi, np.pi))
    return float(rng.uniform(0.0, 1.0))


def _zoo_kraus(kind: str, param: float) -> list[np.ndarray]:
    return {
        "dephasing": ref.dephasing_kraus,
        "amplitude_damping": ref.amplitude_damping_kraus,
        "rotation_y": ref.rotation_y_kraus,
    }[kind](param)


def _state_errors(ops, x, y, z) -> tuple[list[str], float]:
    """Feasibility of the state with coordinates (x, y) and its residual against z."""
    rho_hat = ref.coords_to_matrix(x, y)
    return ref.feasibility_errors(rho_hat), ref.residual(ops, rho_hat, z)


class Chain:
    """effective_povm -> extract -> forward -> mitigate on random channels and consistent z,
    plus a fixed set of finite-shot problems on classical channels."""

    name = "chain"
    # (qubits, Kraus operators, operations per round). 1 and 4 qubits are
    # left out, and 3 qubits keeps to 4 Kraus operators: see README.
    mix = ((2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 4, 9))
    warm_up_mix = ((2, 3, 1), (3, 4, 1))
    largest = 3
    # Finite-shot problems, the same in every round and run whatever --seed
    # is: (family, qubits), drawn once from finite_shot_seed.
    finite_shot_mix = (
        ("amplitude_damping", 1), ("pauli", 1), ("amplitude_damping", 2), ("amplitude_damping", 2), ("pauli", 2),
    )
    finite_shot_seed = 2026
    shots = 300

    def make_round(self, rng, lib, workdir, mix=None):
        problems = []
        for n, n_kraus, count in mix or self.mix:
            for _ in range(count):
                dim = 2**n
                ops = ref.random_kraus(rng, dim, n_kraus)
                problems.append(SimpleNamespace(qubits=n, ops=ops, rho=ref.random_state(rng, dim), z=None))
        if mix:
            return problems
        # The finite-shot problems run as one operation, so that the round's
        # median and tail stay inside the 3-qubit problems: see README.
        batch = self.finite_shot_problems()
        return problems + [SimpleNamespace(qubits=max(q.qubits for q in batch), batch=batch)]

    def finite_shot_problems(self):
        """Classical channels with z from a few hundred shots of a near-pure state, which no
        state need explain exactly, and the boundary case amplitude_damping(0.5), z = [0, 1]."""
        rng = np.random.default_rng(self.finite_shot_seed)
        problems = [SimpleNamespace(
            qubits=1, ops=ref.amplitude_damping_kraus(0.5), rho=None, z=np.array([0.0, 1.0]),
        )]
        for family, n in self.finite_shot_mix:
            if family == "pauli":
                ops = ref.pauli_kraus(rng.dirichlet(np.full(4**n, 0.5)))
            else:
                ops = [np.eye(1, dtype=complex)]
                for _ in range(n):
                    ops = ref.tensor_kraus(ops, ref.amplitude_damping_kraus(rng.uniform(0.5, 0.9)))
            rho = ref.near_pure_state(rng, 2**n)
            probs = np.clip(ref.kraus_probabilities(ops, rho), 0.0, None)
            z = rng.multinomial(self.shots, probs / probs.sum()) / self.shots
            problems.append(SimpleNamespace(qubits=n, ops=ops, rho=rho, z=z))
        return problems

    def run(self, lib, p):
        if hasattr(p, "batch"):
            return [self.run(lib, q) for q in p.batch]
        ch = lib.channels.KrausChannel(2**p.qubits, tuple(p.ops))
        model = lib.readout.extract(lib.povm.effective_povm(ch))
        z = lib.readout.forward(model, lib.states.decompose(p.rho)) if p.z is None else p.z
        return z, lib.solver.mitigate(lib.solver.MitigationProblem(model, z))

    def check(self, lib, p, out):
        if hasattr(p, "batch"):
            return [e for q, o in zip(p.batch, out) for e in self.check(lib, q, o)]
        z, result = out
        if p.z is not None:
            return self._check_finite_shot(p, result)
        errors = []
        dz = _max_abs(z - ref.kraus_probabilities(p.ops, p.rho))
        if dz > PROB_TOL:
            errors.append(f"forward differs from the Kraus sum by {dz:.3e}")
        feas, r = _state_errors(p.ops, result.x_hat, result.y_hat, z)
        errors += feas
        tol = lib.solver.SolverOptions().residual_tol
        if not r <= tol:
            errors.append(f"recomputed residual {r:.3e} exceeds residual_tol {tol:.1e}")
        if not abs(r - result.residual) <= PROB_TOL:
            errors.append(f"reported residual {result.residual:.3e}, recomputed {r:.3e}")
        return errors

    def _check_finite_shot(self, p, result):
        errors, r = _state_errors(p.ops, result.x_hat, result.y_hat, p.z)
        if not abs(r - result.residual) <= PROB_TOL:
            errors.append(f"finite-shot: reported residual {result.residual:.3e}, recomputed {r:.3e}")
        if p.rho is not None:
            r_gen = ref.residual(p.ops, p.rho, p.z)
            if not r <= r_gen + PROB_TOL:
                errors.append(f"finite-shot: residual {r:.6e} exceeds the generating state's {r_gen:.6e}")
        best, _ = ref.classical_best_fit(ref.assignment_matrix(p.ops), p.z)
        if not r <= best + BEST_FIT_TOL:
            errors.append(f"finite-shot: residual {r:.6e} exceeds the best fit {best:.6e} by more than {BEST_FIT_TOL}")
        return errors


class ModelCheck:
    """Coefficient, oracle and kernel routes on one channel, with no solver."""

    name = "model-check"
    # (family, qubits, operations per round); zoo at 1 qubit is one of each
    # kind, and the i-th random channel of a size has 2 + i % 3 Kraus
    # operators. "superop" is a random channel with 3 Kraus operators on
    # which only the superoperator and kernel routes run, without
    # effective_povm (seconds per call at 5 qubits): see README.
    mix = (
        ("zoo", 1, 3), ("random", 1, 1),
        ("random", 2, 1), ("zoo", 2, 1), ("pauli", 2, 1),
        ("zoo", 3, 1), ("random", 3, 3), ("pauli", 3, 1),
        ("zoo", 4, 1), ("random", 4, 4),
        ("superop", 5, 2),
    )
    warm_up_mix = (("random", 2, 1), ("random", 4, 1), ("superop", 5, 1))
    largest = 5
    states_per_op = 3

    def make_round(self, rng, lib, workdir, mix=None):
        problems = []
        for family, n, count in mix or self.mix:
            for i in range(count):
                dim = 2**n
                p = SimpleNamespace(qubits=n, family=family, factors=None, probs=None)
                if family == "random":
                    p.ops = ref.random_kraus(rng, dim, 2 + i % 3)
                elif family == "superop":
                    p.ops = ref.random_kraus(rng, dim, 3)
                elif family == "zoo":
                    kinds = [ZOO[i % 3]] if n == 1 else [ZOO[k] for k in rng.integers(0, 3, n)]
                    p.factors = [(kind, _zoo_param(rng, kind)) for kind in kinds]
                    p.ops = _zoo_kraus(*p.factors[0])
                    for factor in p.factors[1:]:
                        p.ops = ref.tensor_kraus(p.ops, _zoo_kraus(*factor))
                else:
                    p.probs = rng.dirichlet(np.full(4**n, 0.5))
                    p.ops = ref.pauli_kraus(p.probs)
                n_states = 1 if family == "superop" else self.states_per_op
                p.states = [ref.random_state(rng, dim) for _ in range(n_states)]
                problems.append(p)
        return problems

    def _channel(self, lib, p):
        if p.family in ("random", "superop"):
            return lib.channels.KrausChannel(2**p.qubits, tuple(p.ops))
        if p.family == "pauli":
            return lib.channels.pauli_channel(list(p.probs))
        ch = None
        for kind, param in p.factors:
            single = getattr(lib.channels, kind)(param)
            ch = single if ch is None else lib.channels.tensor(ch, single)
        return ch

    def run(self, lib, p):
        ch = self._channel(lib, p)
        if p.family == "superop":
            return SimpleNamespace(
                z_oracle=[lib.readout.oracle_probabilities(ch, rho) for rho in p.states],
                kernel_defect=lib.povm.kernel_diag_defect(ch),
            )
        povm = lib.povm.effective_povm(ch)
        model = lib.readout.extract(povm)
        z_model = [lib.readout.forward(model, lib.states.decompose(rho)) for rho in p.states]
        z_oracle = [lib.readout.oracle_probabilities(ch, rho) for rho in p.states]
        return SimpleNamespace(
            model=model,
            z_model=z_model,
            z_oracle=z_oracle,
            kernel_defect=lib.povm.kernel_diag_defect(ch),
            offdiag_defect=lib.povm.offdiag_defect(povm),
        )

    def check(self, lib, p, out):
        if p.family == "superop":
            return self._check_superop(p, out)
        errors = []
        a, c = out.model.assignment, out.model.coherence
        for i, rho in enumerate(p.states):
            z_ref = ref.kraus_probabilities(p.ops, rho)
            x, y = ref.matrix_to_coords(rho)
            for label, z in (
                ("forward", out.z_model[i]),
                ("oracle", out.z_oracle[i]),
                ("A x + C y", a @ x + c @ y),
            ):
                dz = _max_abs(z - z_ref)
                if dz > PROB_TOL:
                    errors.append(f"state {i}: {label} differs from the Kraus sum by {dz:.3e}")
        col_a = _max_abs(a.sum(axis=0) - 1.0)
        col_c = _max_abs(c.sum(axis=0))
        if col_a > PROB_TOL:
            errors.append(f"columns of A miss 1 by {col_a:.3e}")
        if col_c > PROB_TOL:
            errors.append(f"columns of C miss 0 by {col_c:.3e}")
        gap = abs(out.kernel_defect - out.offdiag_defect)
        if not gap <= PROB_TOL:
            errors.append(f"kernel defect {out.kernel_defect:.3e} != offdiag defect {out.offdiag_defect:.3e}")
        classical = p.family == "pauli" or (
            p.family == "zoo" and all(kind in CLASSICAL_ZOO for kind, _ in p.factors)
        )
        if classical and _max_abs(c) > PROB_TOL:
            errors.append(f"classical channel has max|C| = {_max_abs(c):.3e}")
        if p.family == "zoo" and len(p.factors) == 1 and p.factors[0][0] == "rotation_y":
            expected = abs(np.sin(p.factors[0][1]))
            if abs(_max_abs(c) - expected) > PROB_TOL:
                errors.append(f"rotation_y: max|C| {_max_abs(c):.15f}, |sin t| {expected:.15f}")
        if p.family == "zoo" and len(p.factors) > 1:
            a_kron = np.ones((1, 1))
            for factor in p.factors:
                a_kron = np.kron(a_kron, ref.assignment_matrix(_zoo_kraus(*factor)))
            da = _max_abs(a - a_kron)
            if da > PROB_TOL:
                errors.append(f"A differs from the Kronecker product of single-qubit A by {da:.3e}")
        return errors

    def _check_superop(self, p, out):
        errors = []
        for i, rho in enumerate(p.states):
            dz = _max_abs(out.z_oracle[i] - ref.kraus_probabilities(p.ops, rho))
            if dz > PROB_TOL:
                errors.append(f"state {i}: oracle differs from the Kraus sum by {dz:.3e}")
        expected = ref.povm_offdiag_defect(p.ops)
        if not abs(out.kernel_defect - expected) <= PROB_TOL:
            errors.append(f"kernel defect {out.kernel_defect:.3e} != reference POVM defect {expected:.3e}")
        return errors


class CliPipeline:
    """The documented CLI sequence per channel, one subprocess per operation."""

    name = "cli-pipeline"
    qubits = (1, 2, 3)
    warm_up_mix = (1,)
    largest = 3
    runs_in_children = True  # peak_rss_mb is that of the CLI processes
    commands = ("channel-validate", "model-extract", "sample", "mitigate", "forward")
    # The mitigate call of each qubit count reads a model and counts drawn
    # from this seed, the same in every round and run whatever --seed is:
    # on the seeded model and counts it fails on some seeds only (README).
    mitigate_seed = 2026

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.fixed = {}

    def make_round(self, rng, lib, workdir, mix=None):
        workdir.mkdir(parents=True, exist_ok=True)
        problems = []
        for i, n in enumerate(mix or self.qubits):
            dim = 2**n
            files = {k: str(workdir / f"{k}{i}.json") for k in ("channel", "state", "model", "counts")}
            ops = ref.random_kraus(rng, dim, int(rng.integers(2, 5)))
            rho = ref.random_state(rng, dim)
            _write_json(files["channel"], {"dim": dim, "kraus": [_pairs(op) for op in ops]})
            _write_json(files["state"], {"dim": dim, "matrix": _pairs(rho)})
            shots = int(rng.integers(200, 501))
            argvs = {
                "channel-validate": ["--channel", files["channel"]],
                "model-extract": ["--channel", files["channel"], "--out", files["model"]],
                "sample": ["--channel", files["channel"], "--state", files["state"],
                           "--shots", str(shots), "--seed", str(int(rng.integers(2**31))),
                           "--out", files["counts"]],
                "forward": ["--channel", files["channel"], "--state", files["state"], "--mode", "both"],
            }
            for command in self.commands:
                if command == "mitigate":
                    problems.append(self.mitigate_problem(workdir, n))
                    continue
                problems.append(SimpleNamespace(
                    qubits=n, command=command, argv=[command, *argvs[command]],
                    ops=ops, rho=rho, shots=shots, files=files,
                ))
        return problems if mix else problems + [self.nan_model_problem(workdir)]

    def mitigate_problem(self, workdir, n):
        """mitigate --model --counts on a random channel and counts from a few hundred shots of a
        random full-rank state, drawn from mitigate_seed, with A and C from reference.py."""
        if n not in self.fixed:
            rng = np.random.default_rng([self.mitigate_seed, n])
            dim = 2**n
            ops = ref.random_kraus(rng, dim, int(rng.integers(2, 5)))
            rho = ref.random_state(rng, dim)
            shots = int(rng.integers(200, 501))
            probs = np.clip(ref.kraus_probabilities(ops, rho), 0.0, None)
            counts = rng.multinomial(shots, probs / probs.sum())
            a, c = ref.readout_model(ops)
            self.fixed[n] = SimpleNamespace(
                ops=ops, rho=rho, shots=shots,
                model={"dim": dim, "A": a.tolist(), "C": c.tolist()},
                counts={"shots": shots, "counts": [int(k) for k in counts]},
            )
        fixed = self.fixed[n]
        files = {k: str(workdir / f"mitigate_{k}{n}.json") for k in ("model", "counts")}
        _write_json(files["model"], fixed.model)
        _write_json(files["counts"], fixed.counts)
        return SimpleNamespace(
            qubits=n, command="mitigate", argv=["mitigate", "--model", files["model"], "--counts", files["counts"]],
            ops=fixed.ops, rho=fixed.rho, shots=fixed.shots, files=files,
        )

    def nan_model_problem(self, workdir):
        """The one malformed-input call: a model file holding NaN. Malformed
        input must end in exit 2 with a one-line error (cli.py docstring)."""
        nan_model, nan_z = str(workdir / "nan_model.json"), str(workdir / "nan_z.json")
        _write_json(nan_model, {"A": [[float("nan"), 0.5], [0.0, 0.5]], "C": [[0.0, 0.0], [0.0, 0.0]]})
        _write_json(nan_z, {"z": [0.5, 0.5]})
        return SimpleNamespace(
            qubits=1, command="nan-model", argv=["mitigate", "--model", nan_model, "--z", nan_z],
            known_fault=True,
        )

    def run(self, lib, p):
        proc = subprocess.run(
            [sys.executable, "-m", "coherent_readout.cli", *p.argv],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, lib, p):
        """cli.main(argv) in this process, as the traced run times it."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(p.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends a real CLI run with exit 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, lib, p, out):
        code, stdout, stderr = out
        if p.command == "nan-model":
            errors = [] if code == 2 else [f"NaN model: exit {code}, expected 2"]
            if len(stderr.strip().splitlines()) != 1:
                errors.append(f"NaN model: stderr has {len(stderr.strip().splitlines())} lines, expected 1")
            return errors
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return [f"{p.command}: exit {code}: {tail[0]}"]
        doc = json.loads(stdout)
        return getattr(self, "_check_" + p.command.replace("-", "_"))(lib, p, doc)

    def _check_channel_validate(self, lib, p, doc):
        errors = [] if doc.get("pass") is True else ["channel-validate: pass is not true"]
        if not abs(doc["kernel_diag_defect"] - doc["povm_offdiag_defect"]) <= PROB_TOL:
            errors.append("channel-validate: kernel and off-diagonal defects differ")
        return errors

    def _check_model_extract(self, lib, p, doc):
        saved = _read_json(p.files["model"])
        dim = 2**p.qubits
        model = lib.readout.extract(
            lib.povm.effective_povm(lib.channels.KrausChannel(dim, tuple(p.ops)))
        )
        a = np.array(saved["A"], dtype=float)
        c = np.array(saved["C"], dtype=float).reshape(dim, dim * (dim - 1))
        if np.array_equal(a, model.assignment) and np.array_equal(c, model.coherence):
            return []
        return ["model-extract: model read back differs from the in-process extract"]

    def _check_sample(self, lib, p, doc):
        counts = doc["counts"]
        if len(counts) != 2**p.qubits or min(counts) < 0 or sum(counts) != p.shots:
            return [f"sample: counts {counts} do not sum to {p.shots} shots"]
        return []

    def _check_mitigate(self, lib, p, doc):
        counts = np.array(_read_json(p.files["counts"])["counts"], dtype=float)
        z = counts / counts.sum()
        errors, r = _state_errors(p.ops, doc["x"], doc["y"], z)
        r_gen = ref.residual(p.ops, p.rho, z)
        if not r <= r_gen + PROB_TOL:
            errors.append(f"residual {r:.6e} exceeds the generating state's {r_gen:.6e}")
        return ["mitigate: " + e for e in errors]

    def _check_forward(self, lib, p, doc):
        z_ref = ref.kraus_probabilities(p.ops, p.rho)
        errors = []
        for key in ("z_model", "z_oracle"):
            dz = _max_abs(np.array(doc[key]) - z_ref)
            if dz > PROB_TOL:
                errors.append(f"forward: {key} differs from the Kraus sum by {dz:.3e}")
        return errors


def _pairs(m) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (Chain, ModelCheck, CliPipeline)}
