"""Regenerate the ROADMAP baseline table: effective_povm, oracle and mitigate at 2-5 qubits.

Run from the repository root:  python3 perfbench/baseline.py

Each row is one random channel with 3 Kraus operators, one random full-rank
state and the consistent z = forward(model, state), made by reference.py
from a fixed seed; one timing per cell, BLAS on one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
from coherent_readout import channels, povm, readout, solver, states  # noqa: E402

SEED = 2025
QUBITS = (2, 3, 4, 5)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e3


def main() -> int:
    rng = np.random.default_rng(SEED)
    print(f"Python {platform.python_version()}, numpy {np.__version__}, one BLAS thread\n")
    print("| qubits | `effective_povm` | `oracle` | `mitigate` (iters) |")
    print("|---|---|---|---|")
    for n in QUBITS:
        dim = 2**n
        ch = channels.KrausChannel(dim, tuple(ref.random_kraus(rng, dim, 3)))
        rho = ref.random_state(rng, dim)
        p, t_povm = timed(povm.effective_povm, ch)
        _, t_oracle = timed(readout.oracle_probabilities, ch, rho)
        model = readout.extract(p)
        z = readout.forward(model, states.decompose(rho))
        res, t_mitigate = timed(solver.mitigate, solver.MitigationProblem(model, z))
        print(f"| {n} | {t_povm:.1f} ms | {t_oracle:.1f} ms | {t_mitigate:.0f} ms ({res.iterations}) |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
