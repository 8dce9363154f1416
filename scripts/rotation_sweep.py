"""Sweep the readout rotation angle and compare mitigation routes.

For each angle the plus state is pushed through a y-rotation readout.
The coherence term shifts the observed distribution by sin(t)/2, which an
assignment-only inversion misreads as a population change. The constrained
solver explains the data exactly (residual 0), but one distribution of N
outcomes does not fix the N^2 coordinates of a state: the populations it
returns are one point of the set of states consistent with the data, not
necessarily the true ones. Both population errors are printed, next to
each other. Prints one table row per angle and optionally dumps the records
as JSON. At t = pi/2 (in the grid whenever --steps is odd) the assignment
matrix is singular, so the assignment-only inversion is undefined there:
"singular" in the table, null in the JSON.
"""

import argparse
import json
import sys

import numpy as np

from coherent_readout.channels import rotation_y
from coherent_readout.povm import effective_povm
from coherent_readout.readout import extract, forward, nonclassicality
from coherent_readout.solver import MitigationProblem, classical_invert, mitigate
from coherent_readout.states import decompose


def sweep(angles):
    plus = decompose(np.full((2, 2), 0.5, dtype=complex))
    records = []
    for theta in angles:
        model = extract(effective_povm(rotation_y(theta)))
        z = forward(model, plus)
        try:
            classical_error = float(np.max(np.abs(classical_invert(model, z) - plus.populations)))
        except ValueError:  # singular assignment matrix
            classical_error = None
        res = mitigate(MitigationProblem(model=model, z_observed=z))
        records.append(
            {
                "theta": float(theta),
                "nonclassicality": nonclassicality(model),
                "z0": float(z[0]),
                "classical_x_error": classical_error,
                "mitigate_x_error": float(np.max(np.abs(res.x_hat - plus.populations))),
                "mitigate_residual": res.residual,
                "mitigate_iterations": res.iterations,
            }
        )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=13, help="number of angles in (0, pi)")
    parser.add_argument("--json", help="also write the records to this path")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    angles = np.linspace(0.0, np.pi, args.steps + 2)[1:-1]
    records = sweep(angles)

    print(
        f"{'theta':>8} {'nonclass':>10} {'z0':>10} {'classical err':>14} {'mitigate err':>13} "
        f"{'residual':>10} {'iters':>6}"
    )
    for r in records:
        err = r["classical_x_error"]
        classical = "singular" if err is None else f"{err:.6f}"
        print(
            f"{r['theta']:8.4f} {r['nonclassicality']:10.6f} {r['z0']:10.6f} "
            f"{classical:>14} {r['mitigate_x_error']:13.6f} {r['mitigate_residual']:10.2e} "
            f"{r['mitigate_iterations']:6d}"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
