"""JSON wire formats for channels, states, readout models, and results.

Complex matrices travel as row-major flat lists of [re, im] pairs. Floats
are emitted with Python's shortest round-trip representation, so re-reading
an emitted file reproduces the in-memory values bit-exactly.

Every number a document holds is read by one reader, _numbers: it takes
only JSON numbers (int or float; not bool, str or null), nested as lists at
exactly the shape the field expects, and finite within the float range.
Anything else raises FormatError.

A channel spec has one reader per form: _builtin_channel reads a
{'builtin', 'params'} spec whole, and channel_ops_from_obj an explicit
Kraus list. channel_from_obj sends a spec to one of them; only the factors
of a tensor or compose spec are read again, each as a spec of its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from . import channels as _channels
from .readout import ReadoutModel
from .states import DensityMatrix, assemble_matrix

COLUMN_ORDER = "lex-pairs-RI"
# The package targets N <= 64; a larger dim or n in a file, or a model's 'A'
# or a state's 'x' that implies one, is rejected before anything of that size
# (or 2**n itself) is computed.
MAX_QUBITS = 6
MAX_DIM = 2**MAX_QUBITS
# A channel on dim <= MAX_DIM never needs more Kraus operators (Choi rank);
# compose and tensor specs are checked against it before any stack is built.
MAX_KRAUS = MAX_DIM**2


# The Python types json gives a number; bool, str and None are not among them.
_JSON_NUMBERS = frozenset((int, float))


class FormatError(ValueError):
    """Malformed or schema-violating input, or an unreadable or unwritable path;
    maps to CLI exit code 2."""


def complex_matrix_to_pairs(m) -> list:
    """[re, im] pairs of an N x N matrix, or a list of them per matrix of a stack."""
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(a.shape[:-2] + (-1, 2)).tolist()


def complex_matrix_from_pairs(entries, dim: int, name: str = "matrix") -> np.ndarray:
    return _numbers(entries, name, (dim * dim, 2)).view(complex).reshape(dim, dim)


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise FormatError(f"{context} is missing required key {key!r}")
    return obj[key]


def _numbers(value, context: str, shape: tuple[int, ...] = ()) -> np.ndarray:
    """value as a float array of exactly `shape`, read from JSON numbers only.

    The nesting is walked one level of the expected shape at a time, so a
    ragged, short or too deeply nested value fails at the first level that
    differs, whatever the depth of the input.
    """
    level = [value]
    for length in shape:
        if not (set(map(type, level)) <= {list} and set(map(len, level)) <= {length}):
            level = None
            break
        level = list(itertools.chain.from_iterable(level))
    if level is None or not set(map(type, level)) <= _JSON_NUMBERS:
        expected = "a JSON number"
        if shape:
            expected = f"a list of shape {' x '.join(map(str, shape))} of JSON numbers"
        raise FormatError(f"{context} must be {expected}")
    try:
        arr = np.array(level, dtype=float)
    except OverflowError:  # an integer literal too large for a float: out of range, as 1e999 is
        arr = np.array(np.inf)
    if not np.isfinite(arr).all():  # a literal such as 1e999 parses to inf
        raise FormatError(f"{context} must hold only finite numbers within the float range")
    return arr.reshape(shape)


def _is_int_in_range(value, limit: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= limit


def _read_dim(obj: dict, context: str) -> int:
    n = obj.get("n")
    if "n" in obj and not _is_int_in_range(n, MAX_QUBITS):
        raise FormatError(f"{context}: qubit count n must be an integer from 1 to {MAX_QUBITS}")
    if "dim" in obj:
        dim = obj["dim"]
    elif "n" in obj:
        dim = 2**n
    else:
        raise FormatError(f"{context} needs either 'dim' or 'n'")
    if not _is_int_in_range(dim, MAX_DIM):
        raise FormatError(f"{context}: dim must be an integer from 1 to {MAX_DIM}")
    if "n" in obj and 2**n != dim:
        raise FormatError(f"{context}: inconsistent 'dim' and 'n'")
    return dim


def channel_ops_from_obj(obj) -> tuple[int, np.ndarray]:
    """Raw (dim, K x dim x dim Kraus operator stack) without CPTP validation."""
    if not isinstance(obj, dict):
        raise FormatError("channel spec must be a JSON object")
    if "builtin" in obj:
        ch = _builtin_channel(obj)
        return ch.dim, ch.kraus_ops
    dim = _read_dim(obj, "channel spec")
    kraus = _require(obj, "kraus", "channel spec")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("'kraus' must be a non-empty list of operators")
    pairs = _numbers(kraus, "'kraus'", (len(kraus), dim * dim, 2))
    return dim, pairs.view(complex).reshape(-1, dim, dim)


def _builtin_channel(obj: dict) -> _channels.KrausChannel:
    """The channel of a {'builtin', 'params'} spec; the one reader of such a spec."""
    name = obj["builtin"]
    if not isinstance(name, str):
        raise FormatError("'builtin' must be a string")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise FormatError("'params' must be an object")

    def param(key: str) -> float:
        return float(_numbers(_require(params, key, f"{name} params"), key))

    if name == "identity":
        return _channels.identity(_read_dim(params or {"dim": 2}, "identity params"))
    if name == "dephasing":
        return _channels.dephasing(param("lambda"))
    if name == "amplitude_damping":
        return _channels.amplitude_damping(param("gamma"))
    if name == "rotation_y":
        return _channels.rotation_y(param("theta"))
    if name == "pauli":
        probs = _require(params, "probs", "pauli params")
        if not isinstance(probs, list) or len(probs) > MAX_KRAUS:
            raise FormatError(f"pauli 'probs' must be a list of at most {MAX_KRAUS} numbers")
        return _channels.pauli_channel(_numbers(probs, "pauli 'probs'", (len(probs),)))
    if name in ("tensor", "compose"):
        key = "factors" if name == "tensor" else "channels"
        specs = _require(params, key, f"{name} params")
        if not isinstance(specs, list) or len(specs) < 2:
            raise FormatError(f"{name} {key!r} must list at least two channel specs")
        parts = [channel_from_obj(s) for s in specs]
        n_kraus = math.prod(p.kraus_ops.shape[0] for p in parts)
        if n_kraus > MAX_KRAUS:
            raise FormatError(f"{name} needs {n_kraus} Kraus operators, more than {MAX_KRAUS}")
        if name == "compose":
            out = parts[-1]
            for outer in reversed(parts[:-1]):
                out = _channels.compose(outer, out)
            return out
        if math.prod(p.dim for p in parts) > MAX_DIM:
            raise FormatError(f"tensor product dimension exceeds {MAX_DIM}")
        return functools.reduce(_channels.tensor, parts)
    raise FormatError(f"unknown builtin channel {name!r}")


def channel_from_obj(obj) -> _channels.KrausChannel:
    if isinstance(obj, dict) and "builtin" in obj:
        return _builtin_channel(obj)
    return _channels.KrausChannel(*channel_ops_from_obj(obj))


def channel_to_obj(ch: _channels.KrausChannel) -> dict:
    return {"dim": ch.dim, "kraus": complex_matrix_to_pairs(ch.kraus_ops)}


def state_from_obj(obj, dim: int) -> DensityMatrix:
    """State from a {'matrix'} or {'x', 'y'} object, of dimension dim."""
    if not isinstance(obj, dict):
        raise FormatError("state spec must be a JSON object")
    if "matrix" in obj:
        n = _read_dim(obj, "state spec")
        matrix = complex_matrix_from_pairs(obj["matrix"], n, name="state matrix")
    elif "x" in obj and "y" in obj:
        n = len(obj["x"]) if isinstance(obj["x"], list) else 0
        if n == 0:
            raise FormatError("'x' must be a non-empty list of numbers")
        if n > MAX_DIM:
            raise FormatError(f"'x' has {n} populations, more than {MAX_DIM}")
        x = _numbers(obj["x"], "'x'", (n,))
        matrix = assemble_matrix(x, _numbers(obj["y"], "'y'", (n * (n - 1),)))
    else:
        raise FormatError("state spec needs either 'matrix' (with 'n' or 'dim') or 'x' and 'y'")
    if n != dim:
        raise FormatError(f"state spec has dimension {n}, expected {dim}")
    return DensityMatrix(matrix)


def model_to_obj(model: ReadoutModel) -> dict:
    obj: dict = {"dim": model.dim}
    n_qubits = model.dim.bit_length() - 1
    if 2**n_qubits == model.dim:
        obj["n"] = n_qubits
    obj["A"] = model.assignment.tolist()
    obj["C"] = model.coherence.tolist()
    obj["column_order"] = COLUMN_ORDER
    return obj


def model_from_obj(obj) -> ReadoutModel:
    if not isinstance(obj, dict):
        raise FormatError("model spec must be a JSON object")
    a = _require(obj, "A", "model spec")
    c = _require(obj, "C", "model spec")
    order = obj.get("column_order", COLUMN_ORDER)
    if order != COLUMN_ORDER:
        raise FormatError(f"unsupported column_order {order!r}, expected {COLUMN_ORDER!r}")
    n = len(a) if isinstance(a, list) else 0
    if n == 0:
        raise FormatError("'A' must be a non-empty square nested list of numbers")
    if n > MAX_DIM:
        raise FormatError(f"'A' has {n} rows, more than {MAX_DIM}")
    if ("dim" in obj or "n" in obj) and _read_dim(obj, "model spec") != n:
        raise FormatError("model spec dimension does not match 'A'")
    if n == 1 and c == []:  # a 1-level model has no coherences: C is 1 x 0
        c = [[]]
    return ReadoutModel(_numbers(a, "'A'", (n, n)), _numbers(c, "'C'", (n, n * (n - 1))))


def distribution_from_obj(obj, dim: int) -> np.ndarray:
    """Observed distribution from a {'z': [...]} or {'counts': [...]} object.

    'shots' is optional next to 'counts'; where given, it must be a JSON
    integer equal to their sum.
    """
    if not isinstance(obj, dict):
        raise FormatError("distribution spec must be a JSON object")
    if "z" in obj:
        return _numbers(obj["z"], "'z'", (dim,))
    if "counts" in obj:
        counts = obj["counts"]
        arr = _numbers(counts, "'counts'", (dim,))
        if np.any(arr < 0):
            raise FormatError("counts must be non-negative")
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            total = float(arr.sum())
        if total <= 0:
            raise FormatError("counts must not all be zero")
        if total == math.inf:
            raise FormatError("the sum of the counts overflows")
        if "shots" in obj:
            shots = obj["shots"]
            # JSON integers are summed exactly: their float sum rounds above 2**53.
            exact = sum(counts) if all(type(c) is int for c in counts) else total
            if not (_is_int_in_range(shots, math.inf) and shots == exact):
                shown = exact if type(exact) is int else f"{exact:.17g}"
                raise FormatError(
                    f"'shots' must be a JSON integer equal to the sum of the counts, {shown}"
                )
        return arr / total
    raise FormatError("distribution spec needs either 'z' or 'counts'")


def _reject_constant(token: str):
    raise FormatError(f"{token} is not a JSON number")


def load_json_file(path) -> object:
    """Parse a JSON file; the non-standard tokens NaN and +-Infinity are rejected.

    Overflowing literals such as 1e999 still parse to inf, so _numbers
    checks finiteness again after parsing. Nesting deeper than the
    decoder's recursion limit is invalid JSON here too, and so is an integer
    literal beyond Python's limit on integer digits (a plain ValueError).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def dumps(obj) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError rather than being
    written as a token no JSON parser accepts."""
    return json.dumps(obj, indent=2, allow_nan=False)
