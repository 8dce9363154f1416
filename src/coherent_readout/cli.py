"""Command-line front end.

Every command reads JSON files and returns one JSON document, its exit code
and an optional human-readable diagnostic; main writes the diagnostic to
stderr, then the document to stdout (optionally mirrored to --out). A stderr
that is closed or fails loses only the diagnostic, never the document.
main(argv) is the in-process API; run() is the process entry point. Exit
codes: 0 success, 1 domain failure (unphysical input, mismatched closed
forms), 2 malformed input or usage error. The oracle command is forward
with --mode oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import NoReturn

import numpy as np

from . import channels, formats, povm, readout, solver
from .linalg import ATOL_PHYSICAL, ATOL_STRUCTURAL
from .states import decompose

_SAMPLE_DEFAULT_SEED = 0
_MAX_SHOTS = 2**63 - 1  # rng.multinomial takes its number of trials as an int64


def _warn(text: str) -> None:
    """Write text to stderr; a stderr closed at start-up (None) or failing drops it."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(text, file=sys.stderr, flush=True)


def _emit(obj, out_path) -> None:
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
    if args.model:
        return formats.model_from_obj(formats.load_json_file(args.model))
    if ch is None and args.channel:
        ch = _load_channel(args.channel)
    if ch is None:
        raise formats.FormatError("need --model or --channel")
    return readout.extract(povm.effective_povm(ch))


def cmd_channel_validate(args) -> tuple[dict, int, str | None]:
    dim, ops = formats.channel_ops_from_obj(formats.load_json_file(args.channel))
    report = channels.validate_cptp(ops)
    result = {"dim": dim, "cptp_defect": report.defect, "cptp_pass": report.passed}
    if not report.passed:
        result["pass"] = False
        return result, 1, f"trace preservation violated: defect {report.defect:.3e}"

    ch = channels.KrausChannel(dim, ops)
    p = povm.effective_povm(ch)
    check = povm.validate_povm(p.elements)
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
            "povm": formats.complex_matrix_to_pairs(p.elements),
            "pass": check.passed,
        }
    )
    note = (
        f"cptp defect {report.defect:.3e}, povm defects "
        f"({herm:.3e}, {pos:.3e}, {comp:.3e}), kernel diag defect {kd:.3e}"
    )
    return result, 0 if check.passed else 1, note


def cmd_model_extract(args) -> tuple[dict, int, str | None]:
    ch = _load_channel(args.channel)
    model = readout.extract(povm.effective_povm(ch))
    obj = formats.model_to_obj(model)
    obj["nonclassicality_max"] = readout.nonclassicality(model, "max")
    obj["nonclassicality_frobenius"] = readout.nonclassicality(model, "frobenius")
    return obj, 0, None


def cmd_forward(args) -> tuple[dict, int, str | None]:
    mode = args.mode
    if mode != "model" and not args.channel:
        raise formats.FormatError("oracle mode needs --channel")
    # Without --model, the channel is read once and serves both routes.
    ch = _load_channel(args.channel) if mode != "model" and not args.model else None
    model = _load_model_or_extract(args, ch) if mode != "oracle" else None
    if mode != "model" and ch is None:
        ch = _load_channel(args.channel)
    if model is not None and ch is not None and model.dim != ch.dim:
        raise formats.FormatError(f"model has dimension {model.dim}, channel {ch.dim}")
    rho = formats.state_from_obj(formats.load_json_file(args.state), (ch or model).dim)
    out: dict = {}
    if model is not None:
        z_model = readout.forward(model, decompose(rho))
        out["z_model" if mode == "both" else "z"] = z_model.tolist()
    if ch is not None:
        z_oracle = readout.oracle_probabilities(ch, rho)
        out["z_oracle" if mode == "both" else "z"] = z_oracle.tolist()
    if mode == "both":
        out["max_discrepancy"] = float(np.max(np.abs(z_model - z_oracle)))
    return out, 0, None


def cmd_sample(args) -> tuple[dict, int, str | None]:
    if args.shots < 1:
        raise formats.FormatError("--shots must be >= 1")
    if args.shots > _MAX_SHOTS:
        raise formats.FormatError(f"--shots must be <= {_MAX_SHOTS}")
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
    return {"shots": args.shots, "seed": args.seed, "counts": counts.tolist()}, 0, None


def cmd_mitigate(args) -> tuple[dict, int, str | None]:
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
    note = (
        f"residual {result.residual:.3e} after {result.iterations} iterations "
        f"(converged: {result.converged})"
    )
    return {
        "x": result.x_hat.tolist(),
        "y": result.y_hat.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }, 0, note


def cmd_paper_examples(args) -> tuple[dict, int, str | None]:
    records = []
    lines = []
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
                "A": model.assignment.tolist(),
                "A_closed_form": a_exp.tolist(),
                "C": model.coherence.tolist(),
                "C_closed_form": c_exp.tolist(),
                "max_error": err,
                "pass": ok,
            }
        )
        lines.append(f"{name}({parameter:g}): max error {err:.3e} ({'ok' if ok else 'MISMATCH'})")
    return {"examples": records, "pass": all_pass}, 0 if all_pass else 1, "\n".join(lines)


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

    p = add("oracle", cmd_forward, "predict by applying the channel to the state")
    p.set_defaults(mode="oracle", model=None)
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
    defaults = solver.SolverOptions()
    p.add_argument("--max-iters", type=int, default=defaults.max_iterations)
    p.add_argument("--tol", type=float, default=defaults.residual_tol)

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
            document, code, note = args.func(args)
            if note is not None:
                _warn(note)
            _emit(document, args.out)
            return code
    except formats.FormatError as exc:
        _warn(f"error: {exc}")
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        _warn(f"error: {exc}")
        return 1
    except Exception as exc:  # a fault of the package, not of the input: still no traceback
        _warn(_internal_error(exc))
        return 1


def _internal_error(exc) -> str:
    detail = " ".join(str(exc).split())
    return f"error: internal {type(exc).__name__}: {detail}"


def run() -> NoReturn:
    """Process entry point: main() on sys.argv, then end the process.

    When main returns, its document is written and every file it opened is
    closed, its diagnostics are flushed as they are written, and the package
    registers no atexit handler. So run flushes stdout and ends the process
    with os._exit, which skips interpreter teardown (numpy's module
    finalization, the atexit hooks of site-packages). A stdout closed at
    start-up is None and is skipped; a flush that fails ends in one error
    line and exit 1, never a traceback. An exception main does not catch,
    such as KeyboardInterrupt, propagates and ends the process the usual way.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = 1
        _warn(_internal_error(exc))
    os._exit(code)


if __name__ == "__main__":
    run()
