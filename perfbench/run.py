"""Benchmark of the coherent-readout library and CLI, one workload per run.

Run from the repository root; the package is taken from src/ without
installing it:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Each run sets up, then runs whole rounds of its workload's operations, one
at a time, until --seconds have passed and at least MIN_OPS operations are
timed. It sets up again between rounds, spread across the run, five
set-ups in all, and reports their median. Every output is checked.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1, named as in BENCHMARK.json. The line
before it records the versions and settings of the run. See
perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads; the CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
WARM_UP_SEED = 0  # the warm-up operations are the same whatever --seed is
MIN_OPS = 40
TAIL_PERCENTILE = 75  # at MIN_OPS operations, ten lie beyond it
STARTUP_REPEATS = 5


def import_package() -> SimpleNamespace:
    """Import coherent_readout afresh, so each set-up pays the package's import cost."""
    for name in [m for m in sys.modules if m == "coherent_readout" or m.startswith("coherent_readout.")]:
        del sys.modules[name]
    package = importlib.import_module("coherent_readout")
    importlib.import_module("coherent_readout.cli")
    mods = {layer: importlib.import_module(f"coherent_readout.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **mods)


def round_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def set_up(workload, seed: int, workdir: Path):
    """Import, run the fixed warm-up operations, then generate round 0 and write its files."""
    start = time.perf_counter()
    lib = import_package()
    for problem in workload.make_round(np.random.default_rng(WARM_UP_SEED), lib, workdir, workload.warm_up_mix):
        workload.run(lib, problem)
    problems = workload.make_round(round_rng(seed, 0), lib, workdir)
    return lib, problems, time.perf_counter() - start


class Ledger:
    """Operation times, qubit counts and failures of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.qubits = []
        self.failed = 0
        self.unexpected = 0  # failures other than a known fault of the program
        self.messages = []

    def execute(self, lib, run, problem) -> float:
        start = time.perf_counter()
        try:
            out = run(lib, problem)
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - start
            errors = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                errors = self.workload.check(lib, problem, out)
            except Exception as exc:  # output too malformed to check
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.times.append(elapsed)
        self.qubits.append(problem.qubits)
        if errors:
            self.failed += 1
            self.unexpected += not getattr(problem, "known_fault", False)
            self.messages.append(errors[0])
        return elapsed


def end_to_end(ledger: Ledger, workload, setup_s: float) -> dict:
    times = np.array(ledger.times)
    largest = times[np.array(ledger.qubits) == workload.largest]
    children = getattr(workload, "runs_in_children", False)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (times.size / times.sum(), "1/s"),
        "op_p50_ms": (np.median(times) * 1e3, "ms"),
        "op_tail_ms": (np.percentile(times, TAIL_PERCENTILE) * 1e3, "ms"),
        "largest_p50_ms": (np.median(largest) * 1e3, "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }


def cli_startup_ms() -> tuple[float, float]:
    """Median wall time of a child importing coherent_readout.cli, and of a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, timeout=120)
        return time.perf_counter() - start

    startup = statistics.median(spawn("import coherent_readout.cli") for _ in range(STARTUP_REPEATS))
    bare = statistics.median(spawn("pass") for _ in range(STARTUP_REPEATS))
    return startup * 1e3, (startup - bare) * 1e3


def per_layer(tracer, rounds: int, traced_s: float, untraced_s: float, children: bool) -> dict:
    """Every per_layer metric BENCHMARK.json names, per round.

    A name "<layer>.self_ms" is that layer's self time, "<key>_ms" the
    outermost-span time of a tracer key; the rest are computed here.
    """
    iterations = tracer.counts["solver.iterations"] / rounds
    mitigate_ms = tracer.seconds["solver.mitigate"] * 1e3 / rounds
    # Child start-up is measured only where the workload runs in children.
    startup, import_ms = cli_startup_ms() if children else (0.0, 0.0)
    computed = {
        "linalg.eigh_calls": tracer.calls["linalg.eigh"] / rounds,
        "solver.iterations": iterations,
        "solver.ms_per_iteration": mitigate_ms / iterations if iterations else 0.0,
        "solver.cap_hits": tracer.counts["solver.cap_hits"] / rounds,
        "formats.bytes_out": tracer.counts["formats.bytes_out"] / rounds,
        "cli.startup_ms": startup,
        "cli.import_ms": import_ms,
        "trace.overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
    }
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]:
        name = spec["name"]
        layer, _, rest = name.partition(".")
        if name in computed:
            value = computed[name]
        elif rest == "self_ms" and layer in LAYERS:
            value = tracer.self_seconds[layer] * 1e3 / rounds
        elif name.endswith("_ms") and name[:-3] in tracer.keys:
            value = tracer.seconds[name[:-3]] * 1e3 / rounds
        else:
            raise KeyError(f"per-layer metric {name!r} matches no tracer key")
        metrics[name] = (value, spec["unit"])
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, int]:
    """The run's result object, and the number of rounds it took."""
    lib, problems, setup_first = set_up(workload, seed, workdir)
    setup_times = [setup_first]
    ledger = Ledger(workload)
    if trace:
        tracer = Tracer(lib)
        traced_run = getattr(workload, "run_in_process", workload.run)

        def run_traced(lib_, problem):
            tracer.install()
            try:
                return traced_run(lib_, problem)
            finally:
                tracer.uninstall()

        traced_s = untraced_s = 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        if rounds:
            problems = workload.make_round(round_rng(seed, rounds), lib, workdir)
        for problem in problems:
            if trace:
                # The same operation untraced, then traced: the difference is the overhead.
                untraced_s += ledger.execute(lib, traced_run, problem)
                traced_s += ledger.execute(lib, run_traced, problem)
            else:
                ledger.execute(lib, workload.run, problem)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ledger.times) >= MIN_OPS:
            break
        if not trace and len(setup_times) < SETUP_REPEATS and elapsed >= seconds * len(setup_times) / SETUP_REPEATS:
            # Repeat set-up between rounds, at even shares of the run, so that
            # its median samples the machine's speed across the run as the
            # operations do. The run keeps its first import; set-up time is
            # not counted in --seconds. A traced run reports no setup_s and
            # sets up once, so every operation runs on the modules the tracer
            # patched.
            setup_times.append(set_up(workload, seed, workdir)[2])
            start += setup_times[-1]
    while not trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(workload, seed, workdir)[2])
    for message in sorted(set(ledger.messages)):
        print(f"failed: {message}", file=sys.stderr)
    if trace:
        children = getattr(workload, "runs_in_children", False)
        metrics = per_layer(tracer, rounds, traced_s, untraced_s, children)
    else:
        metrics = end_to_end(ledger, workload, statistics.median(setup_times))
    result = {
        "correct": ledger.unexpected == 0,
        "attempted": len(ledger.times),
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, rounds


def main(argv=None) -> int:
    if not (SRC / "coherent_readout" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'coherent_readout'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workdir = WORKDIR / str(os.getpid())
    try:
        result, rounds = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
