"""Fuzzing of the command-line interface with mutated JSON documents.

Valid channel, state, model and distribution documents of dimension <= 4
are mutated (keys dropped, values replaced by wrong types, booleans, huge
numbers, lists lengthened or shortened) and fed to every command that reads
them. Whatever the input, main() must return 0, 1 or 2, never print a
traceback, and print nothing to stdout but strict JSON. A number replaced
by anything that is not a JSON number must give exit 2.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from coherent_readout.channels import random_channel
from coherent_readout.cli import main
from coherent_readout.formats import channel_to_obj, complex_matrix_to_pairs, model_to_obj
from coherent_readout.povm import effective_povm
from coherent_readout.readout import extract
from coherent_readout.states import random_density, split_matrix

REPLACEMENTS = [None, True, False, "x", 0, -1, 3, 1e308, -1e308, 10**400, [], {}, [[1, 0]]]
MUTATIONS = ["drop", "replace", "lengthen", "shorten"]
NOT_NUMBERS = ["0.5", "", True, False, None, [], [0.5], [[0.5], [0.5, 0.5]], {}, [[[[[[[[0.5]]]]]]]]]


def base_documents(n_qubits: int, seed: int, form: int) -> dict:
    dim = 2**n_qubits
    ch = random_channel(dim, 2, seed)
    rho = random_density(n_qubits, seed).matrix
    x, y = split_matrix(rho)
    channels = [
        channel_to_obj(ch),
        {"builtin": "amplitude_damping", "params": {"gamma": 0.3}},
        {"builtin": "pauli", "params": {"probs": [0.7, 0.1, 0.1, 0.1]}},
        {"builtin": "tensor", "params": {"factors": [{"builtin": "identity", "params": {"n": 1}},
                                                    {"builtin": "rotation_y", "params": {"theta": 0.4}}]}},
        {"builtin": "compose", "params": {"channels": [{"builtin": "dephasing", "params": {"lambda": 0.5}},
                                                       {"builtin": "amplitude_damping", "params": {"gamma": 0.2}}]}},
    ]
    states = [
        {"n": n_qubits, "matrix": complex_matrix_to_pairs(rho)},
        {"x": x.tolist(), "y": y.tolist()},
    ]
    return {
        "channel": channels[form % len(channels)],
        "state": states[form % len(states)],
        "model": model_to_obj(extract(effective_povm(ch))),
        "z": {"z": [1.0 / dim] * dim},
        "counts": {"shots": 10 * dim, "counts": [10] * dim},
    }


def paths(node, prefix=()):
    """Every key or index path into a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutate(doc, path, mutation, value):
    value = copy.deepcopy(value)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop" and isinstance(parent, dict):
        del parent[key]
    elif mutation == "lengthen" and isinstance(parent[key], list):
        parent[key].append(value)
    elif mutation == "shorten" and isinstance(parent[key], list) and parent[key]:
        parent[key].pop()
    else:
        parent[key] = value
    return doc


def number_paths(doc):
    """Paths to the numbers of a document that a command reads."""
    for path in paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if type(node) in (int, float):
            yield path


def reject_constant(token):
    raise AssertionError(f"stdout holds {token}, which is not JSON")


COMMANDS = [
    ["channel-validate", "--channel", "channel"],
    ["model-extract", "--channel", "channel"],
    ["forward", "--mode", "both", "--channel", "channel", "--state", "state"],
    ["forward", "--model", "model", "--state", "state"],
    ["sample", "--channel", "channel", "--state", "state", "--shots", "5"],
    ["mitigate", "--model", "model", "--z", "z", "--max-iters", "50"],
    ["mitigate", "--channel", "channel", "--counts", "counts", "--max-iters", "50"],
]


def run_commands(docs, target):
    """(argv, exit code, stdout, stderr) of every command that reads docs[target]."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, doc in docs.items():
            files[name] = os.path.join(tmp, name + ".json")
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for command in COMMANDS:
            if target not in command:
                continue
            argv = [files.get(arg, arg) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            yield argv, code, out.getvalue(), err.getvalue()


@given(
    n_qubits=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    form=st.integers(0, 4),
    target=st.sampled_from(["channel", "state", "model", "z", "counts"]),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(MUTATIONS), st.sampled_from(REPLACEMENTS)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_mutated_documents_never_end_in_a_traceback(n_qubits, seed, form, target, edits):
    docs = base_documents(n_qubits, seed, form)
    for pick, mutation, value in edits:
        candidates = list(paths(docs[target]))
        docs[target] = mutate(docs[target], candidates[pick % len(candidates)], mutation, value)
    for argv, code, out, err in run_commands(docs, target):
        assert code in (0, 1, 2), (argv, docs[target], err)
        assert "Traceback" not in err, (docs[target], err)
        if out:
            json.loads(out, parse_constant=reject_constant)


@given(
    n_qubits=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    form=st.integers(0, 4),
    target=st.sampled_from(["channel", "state", "model", "z", "counts"]),
    pick=st.integers(0, 10**6),
    value=st.sampled_from(NOT_NUMBERS),
)
@settings(max_examples=60, deadline=None)
def test_a_number_replaced_by_a_non_number_is_a_usage_error(n_qubits, seed, form, target, pick, value):
    docs = base_documents(n_qubits, seed, form)
    candidates = list(number_paths(docs[target]))
    docs[target] = mutate(docs[target], candidates[pick % len(candidates)], "replace", value)
    for argv, code, out, err in run_commands(docs, target):
        assert code == 2, (argv, docs[target], err)
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
