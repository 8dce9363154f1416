"""JSON wire formats for channels, states, readout models, and results.

Complex matrices travel as row-major flat lists of [re, im] pairs. Floats
are emitted with Python's shortest round-trip representation, so re-reading
an emitted file reproduces the in-memory values bit-exactly.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from . import channels as _channels
from .readout import ReadoutModel
from .states import DensityMatrix, assemble_matrix

COLUMN_ORDER = "lex-pairs-RI"
# The package targets N <= 64; a larger dim or n in a file is rejected before
# anything of that size (or 2**n itself) is computed.
MAX_QUBITS = 6
MAX_DIM = 2**MAX_QUBITS
# A channel on dim <= MAX_DIM never needs more Kraus operators (Choi rank);
# compose and tensor specs are checked against it before any stack is built.
MAX_KRAUS = MAX_DIM**2


class FormatError(ValueError):
    """Malformed or schema-violating input, or an unreadable or unwritable path;
    maps to CLI exit code 2."""


def complex_matrix_to_pairs(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[float(v.real), float(v.imag)] for v in a.reshape(-1, order="C")]


def complex_matrix_from_pairs(entries, dim: int, name: str = "matrix") -> np.ndarray:
    if not isinstance(entries, (list, tuple)) or len(entries) != dim * dim:
        raise FormatError(f"{name} must be a flat list of {dim * dim} [re, im] pairs")
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"{name} entry {i} is not a [re, im] pair")
        try:
            flat[i] = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError, OverflowError):
            raise FormatError(f"{name} entry {i} has non-numeric or out-of-range parts") from None
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"{name} has non-finite entries")
    return flat.reshape((dim, dim), order="C")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise FormatError(f"{context} is missing required key {key!r}")
    return obj[key]


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{context} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise FormatError(f"{context} is out of range") from None
    if not np.isfinite(value):
        raise FormatError(f"{context} must be finite")
    return value


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
        ch = channel_from_obj(obj)
        return ch.dim, ch.kraus_ops
    dim = _read_dim(obj, "channel spec")
    kraus = _require(obj, "kraus", "channel spec")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("'kraus' must be a non-empty list of operators")
    ops = np.stack(
        [
            complex_matrix_from_pairs(entries, dim, name=f"kraus operator {i}")
            for i, entries in enumerate(kraus)
        ]
    )
    return dim, ops


def _builtin_channel(name: str, params: dict) -> _channels.KrausChannel:
    if name == "identity":
        return _channels.identity(_read_dim(params or {"dim": 2}, "identity params"))
    if name == "dephasing":
        return _channels.dephasing(_as_float(_require(params, "lambda", "dephasing params"), "lambda"))
    if name == "amplitude_damping":
        return _channels.amplitude_damping(
            _as_float(_require(params, "gamma", "amplitude_damping params"), "gamma")
        )
    if name == "rotation_y":
        return _channels.rotation_y(_as_float(_require(params, "theta", "rotation_y params"), "theta"))
    if name == "pauli":
        probs = _require(params, "probs", "pauli params")
        if not isinstance(probs, list) or len(probs) > MAX_KRAUS:
            raise FormatError(f"pauli 'probs' must be a list of at most {MAX_KRAUS} numbers")
        return _channels.pauli_channel([_as_float(p, "pauli probability") for p in probs])
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
    if not isinstance(obj, dict):
        raise FormatError("channel spec must be a JSON object")
    if "builtin" in obj:
        name = obj["builtin"]
        if not isinstance(name, str):
            raise FormatError("'builtin' must be a string")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise FormatError("'params' must be an object")
        return _builtin_channel(name, params)
    dim, ops = channel_ops_from_obj(obj)
    return _channels.KrausChannel(dim, ops)


def channel_to_obj(ch: _channels.KrausChannel) -> dict:
    return {"dim": ch.dim, "kraus": [complex_matrix_to_pairs(op) for op in ch.kraus_ops]}


def state_from_obj(obj) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise FormatError("state spec must be a JSON object")
    if "matrix" in obj:
        dim = _read_dim(obj, "state spec")
        return DensityMatrix(complex_matrix_from_pairs(obj["matrix"], dim, name="state matrix"))
    if "x" in obj and "y" in obj:
        x = obj["x"]
        y = obj["y"]
        if not isinstance(x, list) or not isinstance(y, list):
            raise FormatError("'x' and 'y' must be lists of numbers")
        n = len(x)
        if n == 0 or len(y) != n * (n - 1):
            raise FormatError(
                f"'x' must be non-empty and 'y' must have length N(N-1) = {n * (n - 1)}, "
                f"got {len(y)}"
            )
        return DensityMatrix(
            assemble_matrix(
                [_as_float(v, "x entry") for v in x],
                [_as_float(v, "y entry") for v in y],
            )
        )
    raise FormatError("state spec needs either 'matrix' (with 'n' or 'dim') or 'x' and 'y'")


def model_to_obj(model: ReadoutModel) -> dict:
    obj: dict = {"dim": model.dim}
    n_qubits = model.dim.bit_length() - 1
    if 2**n_qubits == model.dim:
        obj["n"] = n_qubits
    obj["A"] = [[float(v) for v in row] for row in model.assignment]
    obj["C"] = [[float(v) for v in row] for row in model.coherence]
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
    try:
        a_arr = np.array(a, dtype=float)
        c_arr = np.array(c, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise FormatError("model matrices must be nested lists of finite numbers") from None
    if not (np.all(np.isfinite(a_arr)) and np.all(np.isfinite(c_arr))):
        raise FormatError("model matrices have non-finite entries")
    if a_arr.ndim != 2 or a_arr.shape[0] != a_arr.shape[1]:
        raise FormatError(f"'A' must be a square nested list, got shape {a_arr.shape}")
    n = a_arr.shape[0]
    if ("dim" in obj or "n" in obj) and _read_dim(obj, "model spec") != n:
        raise FormatError("model spec dimension does not match 'A'")
    if c_arr.ndim == 1 and c_arr.size == 0:
        c_arr = c_arr.reshape(n, 0)
    if c_arr.shape != (n, n * (n - 1)):
        raise FormatError(f"'C' must have shape ({n}, {n * (n - 1)}), got {c_arr.shape}")
    return ReadoutModel(assignment=a_arr, coherence=c_arr)


def distribution_from_obj(obj, dim: int) -> np.ndarray:
    """Observed distribution from a {'z': [...]} or {'shots','counts'} object."""
    if not isinstance(obj, dict):
        raise FormatError("distribution spec must be a JSON object")
    if "z" in obj:
        z = obj["z"]
        if not isinstance(z, list) or len(z) != dim:
            raise FormatError(f"'z' must be a list of {dim} numbers")
        return np.array([_as_float(v, "z entry") for v in z], dtype=float)
    if "counts" in obj:
        counts = obj["counts"]
        if not isinstance(counts, list) or len(counts) != dim:
            raise FormatError(f"'counts' must be a list of {dim} integers")
        arr = np.array([_as_float(v, "count") for v in counts], dtype=float)
        if np.any(arr < 0):
            raise FormatError("counts must be non-negative")
        total = arr.sum()
        if total <= 0:
            raise FormatError("counts must not all be zero")
        return arr / total
    raise FormatError("distribution spec needs either 'z' or 'counts'")


def _reject_constant(token: str):
    raise FormatError(f"{token} is not a JSON number")


def load_json_file(path) -> object:
    """Parse a JSON file; the non-standard tokens NaN and +-Infinity are rejected.

    Overflowing literals such as 1e999 still parse to inf, so the loaders
    above check finiteness again after parsing. Nesting deeper than the
    decoder's recursion limit is invalid JSON here too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, FormatError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def dumps(obj) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError rather than being
    written as a token no JSON parser accepts."""
    return json.dumps(obj, indent=2, allow_nan=False)
