"""Command-line front end.

Every command reads JSON files, writes one JSON document to stdout
(optionally mirrored to --out), and keeps human-readable diagnostics on
stderr. Exit codes: 0 success, 1 domain failure (unphysical input,
mismatched closed forms), 2 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import channels, formats, povm, readout, solver
from .linalg import ATOL_PHYSICAL, ATOL_STRUCTURAL
from .states import decompose

_SAMPLE_DEFAULT_SEED = 0


def _emit(obj, out_path=None) -> None:
    text = formats.dumps(obj)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise formats.FormatError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    print(text)


def _load_channel(path) -> channels.KrausChannel:
    return formats.channel_from_obj(formats.load_json_file(path))


def _load_model_or_extract(args, ch=None) -> readout.ReadoutModel:
    """The --model file's model, else the model of ch or of the --channel file."""
    if getattr(args, "model", None):
        return formats.model_from_obj(formats.load_json_file(args.model))
    if ch is None and getattr(args, "channel", None):
        ch = _load_channel(args.channel)
    if ch is None:
        raise formats.FormatError("need --model or --channel")
    return readout.extract(povm.effective_povm(ch))


def cmd_channel_validate(args) -> int:
    dim, ops = formats.channel_ops_from_obj(formats.load_json_file(args.channel))
    report = channels.validate_cptp(ops)
    result = {"dim": dim, "cptp_defect": report.defect, "cptp_pass": report.passed}
    if not report.passed:
        result["pass"] = False
        print(f"trace preservation violated: defect {report.defect:.3e}", file=sys.stderr)
        _emit(result, args.out)
        return 1

    ch = channels.KrausChannel(dim, ops)
    p = povm.effective_povm(ch)
    check = p.report
    herm, pos, comp = check.hermiticity_defect, check.positivity_defect, check.completeness_defect
    kd = povm.kernel_diag_defect(ch)
    od = povm.offdiag_defect(p)
    result.update(
        {
            "povm_hermiticity_defect": herm,
            "povm_positivity_defect": pos,
            "povm_completeness_defect": comp,
            "kernel_diag_defect": kd,
            "povm_offdiag_defect": od,
            "C-classical": bool(kd <= ATOL_STRUCTURAL),
            "povm": [formats.complex_matrix_to_pairs(e) for e in p.elements],
            "pass": check.passed,
        }
    )
    print(
        f"cptp defect {report.defect:.3e}, povm defects "
        f"({herm:.3e}, {pos:.3e}, {comp:.3e}), kernel diag defect {kd:.3e}",
        file=sys.stderr,
    )
    _emit(result, args.out)
    return 0 if check.passed else 1


def cmd_model_extract(args) -> int:
    ch = _load_channel(args.channel)
    model = readout.extract(povm.effective_povm(ch))
    obj = formats.model_to_obj(model)
    obj["nonclassicality_max"] = readout.nonclassicality(model, "max")
    obj["nonclassicality_frobenius"] = readout.nonclassicality(model, "frobenius")
    _emit(obj, args.out)
    return 0


def cmd_forward(args, mode=None) -> int:
    mode = mode or args.mode
    if mode != "model" and not args.channel:
        raise formats.FormatError("oracle mode needs --channel")
    # Without --model, the channel is read once and serves both routes.
    model_file = getattr(args, "model", None)
    ch = _load_channel(args.channel) if mode != "model" and not model_file else None
    model = _load_model_or_extract(args, ch) if mode != "oracle" else None
    if mode != "model" and ch is None:
        ch = _load_channel(args.channel)
    if model is not None and ch is not None and model.dim != ch.dim:
        raise formats.FormatError(f"model has dimension {model.dim}, channel {ch.dim}")
    rho = formats.state_from_obj(formats.load_json_file(args.state), (ch or model).dim)
    out: dict = {}
    if model is not None:
        z_model = readout.forward(model, decompose(rho))
        out["z_model" if mode == "both" else "z"] = [float(v) for v in z_model]
    if ch is not None:
        z_oracle = readout.oracle_probabilities(ch, rho)
        out["z_oracle" if mode == "both" else "z"] = [float(v) for v in z_oracle]
    if mode == "both":
        out["max_discrepancy"] = float(np.max(np.abs(z_model - z_oracle)))
    _emit(out, args.out)
    return 0


def cmd_oracle(args) -> int:
    return cmd_forward(args, mode="oracle")


def cmd_sample(args) -> int:
    if args.shots < 1:
        raise formats.FormatError("--shots must be >= 1")
    if args.seed < 0:
        raise formats.FormatError("--seed must be >= 0")
    ch = _load_channel(args.channel)
    rho = formats.state_from_obj(formats.load_json_file(args.state), ch.dim)
    z = readout.oracle_probabilities(ch, rho)
    if z.min() < -ATOL_PHYSICAL:
        raise ValueError(f"outcome distribution has negative entry {z.min():.3e}")
    z = np.clip(z, 0.0, None)
    z = z / z.sum()
    rng = np.random.default_rng(args.seed)
    counts = rng.multinomial(args.shots, z)
    _emit(
        {"shots": args.shots, "seed": args.seed, "counts": [int(c) for c in counts]},
        args.out,
    )
    return 0


def cmd_mitigate(args) -> int:
    try:
        options = solver.SolverOptions(max_iterations=args.max_iters, residual_tol=args.tol)
    except ValueError as exc:
        raise formats.FormatError(f"--max-iters/--tol: {exc}") from None
    model = _load_model_or_extract(args)
    if args.z and args.counts:
        raise formats.FormatError("give either --z or --counts, not both")
    source = args.z or args.counts
    if not source:
        raise formats.FormatError("need --z or --counts")
    z = formats.distribution_from_obj(formats.load_json_file(source), model.dim)
    result = solver.mitigate(solver.MitigationProblem(model, z), options)
    print(
        f"residual {result.residual:.3e} after {result.iterations} iterations "
        f"(converged: {result.converged})",
        file=sys.stderr,
    )
    _emit(
        {
            "x": [float(v) for v in result.x_hat],
            "y": [float(v) for v in result.y_hat],
            "residual": result.residual,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        args.out,
    )
    return 0


def cmd_paper_examples(args) -> int:
    records = []
    all_pass = True
    for name, parameter, ch, a_exp, c_exp in readout.closed_form_zoo():
        model = readout.extract(povm.effective_povm(ch))
        err = max(
            float(np.max(np.abs(model.assignment - a_exp))),
            float(np.max(np.abs(model.coherence - c_exp))),
        )
        ok = err <= ATOL_STRUCTURAL
        all_pass = all_pass and ok
        records.append(
            {
                "name": name,
                "parameter": parameter,
                "A": [[float(v) for v in row] for row in model.assignment],
                "A_closed_form": [[float(v) for v in row] for row in a_exp],
                "C": [[float(v) for v in row] for row in model.coherence],
                "C_closed_form": [[float(v) for v in row] for row in c_exp],
                "max_error": err,
                "pass": ok,
            }
        )
        print(f"{name}({parameter:g}): max error {err:.3e} ({'ok' if ok else 'MISMATCH'})",
              file=sys.stderr)
    _emit({"examples": records, "pass": all_pass}, args.out)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherent-readout",
        description="Coherence-sensitive readout models: extraction, prediction, mitigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="also write the JSON result to this path")
        return p

    p = add("channel-validate", cmd_channel_validate,
            "check trace preservation and measurement-operator axioms")
    p.add_argument("--channel", required=True, help="channel JSON file")

    p = add("model-extract", cmd_model_extract,
            "extract assignment and coherence-response matrices")
    p.add_argument("--channel", required=True)

    p = add("forward", cmd_forward, "predict the outcome distribution")
    p.add_argument("--channel")
    p.add_argument("--model")
    p.add_argument("--state", required=True)
    p.add_argument("--mode", choices=["model", "oracle", "both"], default="model")

    p = add("oracle", cmd_oracle, "predict via the full superoperator route")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", required=True)

    p = add("sample", cmd_sample, "draw multinomial counts from the predicted distribution")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=_SAMPLE_DEFAULT_SEED)

    p = add("mitigate", cmd_mitigate, "invert the readout model under physicality constraints")
    p.add_argument("--channel")
    p.add_argument("--model")
    p.add_argument("--z", help="JSON file with an observed distribution {'z': [...]}")
    p.add_argument("--counts", help="JSON file with counts {'shots': S, 'counts': [...]}")
    p.add_argument("--max-iters", type=int, default=solver.SolverOptions.max_iterations)
    p.add_argument("--tol", type=float, default=solver.SolverOptions.residual_tol)

    add("paper-examples", cmd_paper_examples,
        "check the built-in noise zoo against its closed-form models")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Overflow is judged by the validators; numpy's warnings would only add stderr lines.
        with np.errstate(all="ignore"):
            return args.func(args)
    except formats.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the package, not of the input: still no traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
