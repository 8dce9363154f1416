"""End-to-end runs of the command-line interface, in process.

Each test drives main() with argv and asserts on the JSON document printed
to stdout plus the exit code contract: 0 success, 1 domain failure,
2 malformed input or usage.
"""

import functools
import json
import warnings

import numpy as np
import pytest

from coherent_readout import cli, formats, povm
from coherent_readout.channels import random_channel, rotation_y
from coherent_readout.cli import main
from coherent_readout.formats import channel_to_obj, model_from_obj
from coherent_readout.povm import effective_povm, validate_povm
from coherent_readout.readout import extract

IDENTITY_KRAUS = {"dim": 2, "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}
PLUS_STATE = {"n": 1, "matrix": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]}
GROUND_STATE = {"n": 1, "matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}
EXCITED_STATE = {"n": 1, "matrix": [[0, 0], [0, 0], [0, 0], [1, 0]]}
AMP_DAMP = {"builtin": "amplitude_damping", "params": {"gamma": 0.3}}
HUGE_INT = "1" + "0" * 400
ROTATION = {"builtin": "rotation_y", "params": {"theta": 0.3}}
TENSOR_3 = {
    "builtin": "tensor",
    "params": {
        "factors": [
            AMP_DAMP,
            {"builtin": "rotation_y", "params": {"theta": 0.4}},
            {"builtin": "dephasing", "params": {"lambda": 0.5}},
        ]
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# --------------------------------------------------------- channel-validate


def test_validate_classical_channel(capsys, write_json):
    path = write_json("ch.json", AMP_DAMP)
    code, doc = run(capsys, "channel-validate", "--channel", path)
    assert code == 0
    assert doc["cptp_pass"] is True
    assert doc["pass"] is True
    assert doc["C-classical"] is True
    assert doc["kernel_diag_defect"] <= 1e-12


def test_validate_flags_coherent_channel(capsys, write_json):
    path = write_json("ch.json", ROTATION)
    code, doc = run(capsys, "channel-validate", "--channel", path)
    assert code == 0
    assert doc["C-classical"] is False
    assert abs(doc["kernel_diag_defect"] - np.sin(0.3) / 2.0) < 1e-12
    assert abs(doc["povm_offdiag_defect"] - doc["kernel_diag_defect"]) < 1e-15


def test_validate_rejects_trace_decreasing_map(capsys, write_json):
    path = write_json("ch.json", {"dim": 2, "kraus": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]})
    code, doc = run(capsys, "channel-validate", "--channel", path)
    assert code == 1
    assert doc["cptp_pass"] is False
    assert doc["pass"] is False


@pytest.mark.parametrize("dim, seed", [(2, 30), (4, 31), (8, 32)])
def test_validate_reports_the_povm_validator_defects(capsys, write_json, dim, seed):
    ch = random_channel(dim, 3, seed)
    path = write_json("ch.json", channel_to_obj(ch))
    code, doc = run(capsys, "channel-validate", "--channel", path)
    report = validate_povm(effective_povm(ch).elements)
    assert code == 0
    assert doc["povm_hermiticity_defect"] == report.hermiticity_defect
    assert doc["povm_positivity_defect"] == report.positivity_defect
    assert doc["povm_completeness_defect"] == report.completeness_defect
    assert doc["pass"] is report.passed is True


def test_validate_runs_the_povm_validator_once(capsys, write_json, monkeypatch):
    calls = []
    original = povm.validate_povm

    def counting(elements):
        calls.append(1)
        return original(elements)

    monkeypatch.setattr(povm, "validate_povm", counting)
    code, doc = run(capsys, "channel-validate", "--channel", write_json("ch.json", AMP_DAMP))
    assert code == 0 and doc["pass"] is True
    assert len(calls) == 1


def test_validate_overflowing_channel_writes_no_infinity(capsys, write_json):
    # sum_a E_a^dag E_a overflows to inf: the defect cannot be written as JSON.
    path = write_json("ch.json", {"dim": 2, "kraus": [[[1e200, 0], [0, 0], [0, 0], [1, 0]]]})
    # pytest's own warning capture would hide warnings from capsys.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["channel-validate", "--channel", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert [str(w.message) for w in caught] == []


def compose_of(stages: int) -> dict:
    return {"builtin": "compose", "params": {"channels": [AMP_DAMP] * stages}}


def test_validate_compose_at_the_kraus_cap(capsys, write_json):
    # 12 amplitude-damping stages give 2**12 = 4096 Kraus operators, the cap.
    code, doc = run(capsys, "channel-validate", "--channel", write_json("ch.json", compose_of(12)))
    assert code == 0 and doc["pass"] is True


# Each spec stays small to build should a cap be missing.
@pytest.mark.parametrize(
    "spec",
    [
        compose_of(13),
        {"builtin": "tensor", "params": {"factors": [compose_of(12), AMP_DAMP]}},
        {"builtin": "pauli", "params": {"probs": [1.0] + [0.0] * 4**6}},
        {"builtin": "tensor", "params": {"factors": [{"builtin": "identity", "params": {"n": 6}}, AMP_DAMP]}},
    ],
    ids=["compose-13-stages", "tensor-8192-operators", "pauli-4097-probs", "tensor-dim-128"],
)
def test_builtin_spec_beyond_the_caps_is_usage_error(capsys, write_json, spec):
    code = main(["channel-validate", "--channel", write_json("ch.json", spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured)


def test_validate_malformed_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "channel-validate", "--channel", str(bad))
    assert code == 2


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    # Deeper than the decoder's recursion limit: it raised RecursionError.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code = main(["channel-validate", "--channel", str(deep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured)


# ------------------------------------------------------------ model-extract


def test_extract_dephasing_model(capsys, write_json):
    path = write_json("ch.json", {"builtin": "dephasing", "params": {"lambda": 0.5}})
    code, doc = run(capsys, "model-extract", "--channel", path)
    assert code == 0
    assert np.max(np.abs(np.array(doc["A"]) - np.eye(2))) < 1e-15
    assert np.all(np.array(doc["C"]) == 0.0)
    assert doc["nonclassicality_max"] == 0.0


def test_extract_rotation_nonclassicality(capsys, write_json):
    path = write_json("ch.json", ROTATION)
    code, doc = run(capsys, "model-extract", "--channel", path)
    assert code == 0
    assert abs(doc["nonclassicality_max"] - np.sin(0.3)) < 1e-14
    assert doc["column_order"] == "lex-pairs-RI"


def test_extract_two_qubit_tensor_builtin(capsys, write_json):
    spec = {"builtin": "tensor", "params": {"factors": [AMP_DAMP, ROTATION]}}
    path = write_json("ch.json", spec)
    code, doc = run(capsys, "model-extract", "--channel", path)
    assert code == 0
    a = np.array(doc["A"])
    c = np.array(doc["C"])
    assert a.shape == (4, 4) and c.shape == (4, 12)
    assert np.max(np.abs(a.sum(axis=0) - 1.0)) < 1e-10
    assert np.max(np.abs(c.sum(axis=0))) < 1e-10


def test_extracted_model_round_trips_bit_exactly(capsys, write_json, tmp_path):
    path = write_json("ch.json", ROTATION)
    out = tmp_path / "model.json"
    code, _ = run(capsys, "model-extract", "--channel", path, "--out", str(out))
    assert code == 0
    reread = model_from_obj(json.loads(out.read_text()))
    direct = extract(effective_povm(rotation_y(0.3)))
    assert np.array_equal(reread.assignment, direct.assignment)
    assert np.array_equal(reread.coherence, direct.coherence)


def test_out_mirrors_stdout(capsys, write_json, tmp_path):
    path = write_json("ch.json", AMP_DAMP)
    out = tmp_path / "doc.json"
    code = main(["model-extract", "--channel", path, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == out.read_text().strip()


# ----------------------------------------------------------------- forward


def test_forward_model_mode(capsys, write_json):
    ch = write_json("ch.json", IDENTITY_KRAUS)
    st = write_json("state.json", PLUS_STATE)
    code, doc = run(capsys, "forward", "--channel", ch, "--state", st)
    assert code == 0
    assert np.max(np.abs(np.array(doc["z"]) - [0.5, 0.5])) < 1e-15


def test_forward_both_mode_agrees(capsys, write_json):
    ch = write_json("ch.json", ROTATION)
    st = write_json("state.json", PLUS_STATE)
    code, doc = run(capsys, "forward", "--channel", ch, "--state", st, "--mode", "both")
    assert code == 0
    assert doc["max_discrepancy"] <= 1e-11
    assert abs(doc["z_model"][0] - (0.5 + 0.5 * np.sin(0.3))) < 1e-12
    # Every diagonal entry of this state is 0.125 + 3e-11j: within the
    # hermiticity tolerance, and the Hermitian part kept has trace exactly 1.
    state_doc = {"n": 3, "matrix": [[0.125, 3e-11] if i % 9 == 0 else [0, 0] for i in range(64)]}
    rho = formats.state_from_obj(state_doc, 8)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert np.array_equal(rho.matrix, np.eye(8) / 8)
    ch = write_json("ch3.json", TENSOR_3)
    st = write_json("state3.json", state_doc)
    code, doc = run(capsys, "forward", "--channel", ch, "--state", st, "--mode", "both")
    assert code == 0
    assert doc["max_discrepancy"] <= 1e-15
    assert doc["z_model"] == pytest.approx([0.1625] * 4 + [0.0875] * 4, abs=1e-15)


def test_forward_both_mode_reads_the_channel_once(capsys, write_json, monkeypatch):
    calls = []
    original = formats.channel_from_obj

    def counting(obj):
        calls.append(1)
        return original(obj)

    monkeypatch.setattr(formats, "channel_from_obj", counting)
    ch = write_json("ch.json", ROTATION)
    st = write_json("state.json", PLUS_STATE)
    code, doc = run(capsys, "forward", "--channel", ch, "--state", st, "--mode", "both")
    assert code == 0 and doc["max_discrepancy"] <= 1e-11
    assert len(calls) == 1


def test_forward_accepts_coordinate_states(capsys, write_json):
    ch = write_json("ch.json", ROTATION)
    st = write_json("state.json", {"x": [0.5, 0.5], "y": [0.5, 0.0]})
    code, doc = run(capsys, "forward", "--channel", ch, "--state", st)
    assert code == 0
    assert abs(doc["z"][0] - (0.5 + 0.5 * np.sin(0.3))) < 1e-12


def test_oracle_subcommand_matches_forward_oracle_mode(capsys, write_json):
    ch = write_json("ch.json", ROTATION)
    st = write_json("state.json", PLUS_STATE)
    code_a, doc_a = run(capsys, "oracle", "--channel", ch, "--state", st)
    code_b, doc_b = run(capsys, "forward", "--channel", ch, "--state", st, "--mode", "oracle")
    assert code_a == code_b == 0
    assert doc_a["z"] == doc_b["z"]


def test_forward_oracle_mode_requires_channel(capsys, write_json):
    model_doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 0.0], [0.0, 0.0]]}
    model = write_json("model.json", model_doc)
    st = write_json("state.json", PLUS_STATE)
    code, _ = run(capsys, "forward", "--model", model, "--state", st, "--mode", "oracle")
    assert code == 2


# ------------------------------------------------------------------ sample


def test_sample_deterministic_outcome(capsys, write_json):
    ch = write_json("ch.json", IDENTITY_KRAUS)
    st = write_json("state.json", GROUND_STATE)
    code, doc = run(capsys, "sample", "--channel", ch, "--state", st, "--shots", "1000")
    assert code == 0
    assert doc["counts"] == [1000, 0]


def test_sample_golden_counts(capsys, write_json):
    # Fair coin through the identity readout: frozen multinomial draw.
    ch = write_json("ch.json", IDENTITY_KRAUS)
    st = write_json("state.json", PLUS_STATE)
    code, doc = run(
        capsys, "sample", "--channel", ch, "--state", st,
        "--shots", "1000000", "--seed", "1234",
    )
    assert code == 0
    assert doc["counts"] == [500333, 499667]
    assert sum(doc["counts"]) == doc["shots"] == 1000000


def test_sample_is_reproducible(capsys, write_json):
    ch = write_json("ch.json", ROTATION)
    st = write_json("state.json", PLUS_STATE)
    args = ("sample", "--channel", ch, "--state", st, "--shots", "5000", "--seed", "7")
    _, doc_a = run(capsys, *args)
    _, doc_b = run(capsys, *args)
    assert doc_a == doc_b


def test_sample_rejects_nonpositive_shots(capsys, write_json):
    ch = write_json("ch.json", IDENTITY_KRAUS)
    st = write_json("state.json", PLUS_STATE)
    code, _ = run(capsys, "sample", "--channel", ch, "--state", st, "--shots", "0")
    assert code == 2


# ---------------------------------------------------------------- mitigate


def test_mitigate_from_distribution(capsys, write_json):
    ch = write_json("ch.json", AMP_DAMP)
    z = write_json("z.json", {"z": [0.3, 0.7]})
    code, doc = run(capsys, "mitigate", "--channel", ch, "--z", z)
    assert code == 0
    assert doc["converged"] is True
    assert doc["residual"] <= 1e-8
    assert np.max(np.abs(np.array(doc["x"]) - [0.0, 1.0])) < 1e-6


def test_mitigate_from_counts(capsys, write_json):
    ch = write_json("ch.json", AMP_DAMP)
    counts = write_json("counts.json", {"shots": 1000, "counts": [300, 700]})
    code, doc = run(capsys, "mitigate", "--channel", ch, "--counts", counts)
    assert code == 0
    assert np.max(np.abs(np.array(doc["x"]) - [0.0, 1.0])) < 1e-6


def test_shots_are_compared_with_the_exact_sum_of_integer_counts(capsys, write_json):
    # The float sum of these counts rounds to 2**53, one below shots.
    ch = write_json("ch.json", AMP_DAMP)
    counts = write_json("counts.json", {"shots": 2**53 + 1, "counts": [2**53, 1]})
    code, doc = run(capsys, "mitigate", "--channel", ch, "--counts", counts)
    assert code == 0
    assert doc["converged"] is True


def test_sampled_counts_of_the_most_shots_are_read_back(capsys, tmp_path, write_json):
    ch = write_json("ch.json", AMP_DAMP)
    st = write_json("state.json", PLUS_STATE)
    counts = str(tmp_path / "counts.json")
    code, doc = run(capsys, "sample", "--channel", ch, "--state", st,
                    "--shots", str(2**63 - 1), "--out", counts)
    assert code == 0 and sum(doc["counts"]) == doc["shots"] == 2**63 - 1
    code, doc = run(capsys, "mitigate", "--channel", ch, "--counts", counts)
    assert code == 0
    assert doc["converged"] is True


def test_mitigate_data_no_state_explains(capsys, write_json):
    # v* for z = [-1, 0] is negative definite; its projection is still the
    # best fit, |1><1|.
    ch = write_json("ch.json", AMP_DAMP)
    z = write_json("z.json", {"z": [-1, 0]})
    code, doc = run(capsys, "mitigate", "--channel", ch, "--z", z)
    assert code == 0
    assert np.max(np.abs(np.array(doc["x"]) - [0.0, 1.0])) < 1e-12
    assert abs(doc["residual"] - np.sqrt(1.3**2 + 0.7**2)) < 1e-12


def test_mitigate_huge_distribution_ends_without_traceback(capsys, write_json):
    # The simplex projection of the spectrum [1e150, 1e150] raised IndexError.
    ch = write_json("ch.json", AMP_DAMP)
    z = write_json("z.json", {"z": [1e150, 1e150]})
    code = main(["mitigate", "--channel", ch, "--z", z])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 0:
        doc = json.loads(captured.out)
        assert abs(sum(doc["x"]) - 1.0) < 1e-12
    else:
        assert code == 1 and one_error_line(captured)


def test_mitigate_with_model_file(capsys, write_json):
    model = write_json("model.json", {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 0.0], [0.0, 0.0]]})
    z = write_json("z.json", {"z": [0.25, 0.75]})
    code, doc = run(capsys, "mitigate", "--model", model, "--z", z)
    assert code == 0
    assert np.max(np.abs(np.array(doc["x"]) - [0.25, 0.75])) < 1e-9


def test_mitigate_rejects_ambiguous_sources(capsys, write_json):
    ch = write_json("ch.json", AMP_DAMP)
    z = write_json("z.json", {"z": [0.3, 0.7]})
    counts = write_json("counts.json", {"shots": 10, "counts": [3, 7]})
    code, _ = run(capsys, "mitigate", "--channel", ch, "--z", z, "--counts", counts)
    assert code == 2


def test_mitigate_requires_a_source(capsys, write_json):
    ch = write_json("ch.json", AMP_DAMP)
    code, _ = run(capsys, "mitigate", "--channel", ch)
    assert code == 2


def test_mitigate_requires_model_or_channel(capsys, write_json):
    z = write_json("z.json", {"z": [0.3, 0.7]})
    code, _ = run(capsys, "mitigate", "--z", z)
    assert code == 2


# ------------------------------------------------------------ zoo checking


def test_builtin_zoo_matches_closed_forms(capsys):
    code, doc = run(capsys, "paper-examples")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["examples"]) == 10
    assert all(rec["max_error"] <= 1e-12 for rec in doc["examples"])


# --------------------------------------------------------------- exit codes


def test_missing_file_is_usage_error(capsys):
    code, _ = run(capsys, "model-extract", "--channel", "/nonexistent/ch.json")
    assert code == 2


def one_error_line(captured):
    lines = captured.err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "flag, kind", [("--channel", "directory"), ("--z", "directory"), ("--z", "not-utf8")]
)
def test_unreadable_input_is_usage_error(capsys, tmp_path, write_json, flag, kind):
    inputs = {"--channel": write_json("ch.json", AMP_DAMP), "--z": write_json("z.json", {"z": [0.3, 0.7]})}
    if kind == "directory":
        inputs[flag] = str(tmp_path)
    else:
        (tmp_path / "bad.json").write_bytes(b'{"z": [0.3, 0.7]}\xff')
        inputs[flag] = str(tmp_path / "bad.json")
    code = main(["mitigate", *(arg for pair in inputs.items() for arg in pair)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured)


@pytest.mark.parametrize(
    "command, target",
    [("model-extract", "directory"), ("model-extract", "missing-parent"), ("mitigate", "directory")],
)
def test_unwritable_out_path_is_usage_error(capsys, tmp_path, write_json, command, target):
    out = tmp_path if target == "directory" else tmp_path / "absent" / "out.json"
    argv = [command, "--channel", write_json("ch.json", AMP_DAMP), "--out", str(out)]
    if command == "mitigate":
        argv += ["--z", write_json("z.json", {"z": [0.3, 0.7]})]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # mitigate reports its residual on stderr before writing the result.
    assert [l for l in captured.err.splitlines() if l.startswith("error:")] == [
        f"error: cannot write {out}: " + ("Is a directory" if target == "directory" else "No such file or directory")
    ]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-iters", "0"),
        ("--max-iters", "-1"),
        ("--tol", "0"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
    ],
)
def test_invalid_solver_flag_is_usage_error(capsys, write_json, flag, value):
    ch = write_json("ch.json", AMP_DAMP)
    z = write_json("z.json", {"z": [0.3, 0.7]})
    code = main(["mitigate", "--channel", ch, "--z", z, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured)


TWO_QUBIT_STATE = {"x": [1, 0, 0, 0], "y": [0] * 12}
TWO_QUBIT_MODEL = {"A": np.eye(4).tolist(), "C": np.zeros((4, 12)).tolist()}
# Valid in all but size: 65 levels, one more than the package targets, implied
# by the length of 'A' or 'x' alone.
LEVELS_65_MODEL = {"A": np.eye(65, dtype=int).tolist(), "C": [[0] * (65 * 64)] * 65}
LEVELS_65_STATE = {"x": [1] + [0] * 64, "y": [0] * (65 * 64)}


@pytest.mark.parametrize(
    "argv, docs",
    [
        (["forward", "--channel", "ch", "--state", "state"], {"state": {"x": [1, 0], "y": [0]}}),
        (["forward", "--channel", "ch", "--state", "state"], {"state": {"x": [], "y": []}}),
        (["forward", "--model", "model", "--state", "state"],
         {"model": {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}}),
        (["forward", "--model", "model", "--state", "state"], {"model": {"A": [[1.0, 0.0]], "C": [[0.0, 0.0]]}}),
        (["sample", "--channel", "ch", "--state", "state", "--shots", "10", "--seed", "-1"], {}),
        # A state whose dimension differs from the channel's or the model's.
        (["forward", "--channel", "ch", "--state", "state"], {"state": TWO_QUBIT_STATE}),
        (["forward", "--model", "model", "--state", "state"],
         {"model": {"A": [[1, 0], [0, 1]], "C": [[0, 0], [0, 0]]}, "state": TWO_QUBIT_STATE}),
        (["forward", "--model", "model", "--state", "state"], {"model": TWO_QUBIT_MODEL}),
        (["oracle", "--channel", "ch", "--state", "state"], {"state": TWO_QUBIT_STATE}),
        (["sample", "--channel", "ch", "--state", "state", "--shots", "10"], {"state": TWO_QUBIT_STATE}),
        (["forward", "--mode", "both", "--model", "model", "--channel", "ch", "--state", "state"],
         {"model": TWO_QUBIT_MODEL, "state": TWO_QUBIT_STATE}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"shots": "many", "counts": [3, 1]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"shots": 7, "counts": [3, 1]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"shots": True, "counts": [1, 0]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"shots": 4.0, "counts": [3, 1]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"shots": None, "counts": [3, 1]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"counts": [1e308, 1e308]}}),
        (["sample", "--channel", "ch", "--state", "state", "--shots", str(2**63)], {}),
        (["forward", "--model", "model", "--state", "state"],
         {"model": LEVELS_65_MODEL, "state": LEVELS_65_STATE}),
        (["mitigate", "--model", "model", "--z", "z"], {"model": LEVELS_65_MODEL, "z": {"z": [1] + [0] * 64}}),
        (["forward", "--channel", "ch", "--state", "state"], {"state": LEVELS_65_STATE}),
        (["channel-validate", "--channel", "ch"], {"ch": {"dim": 2}}),
        (["channel-validate", "--channel", "ch"], {"ch": {"dim": 2, "n": 2, "kraus": [[[1, 0]] * 4]}}),
        (["channel-validate", "--channel", "ch"], {"ch": {"dim": 2, "kraus": []}}),
        (["channel-validate", "--channel", "ch"],
         {"ch": {"builtin": "tensor", "params": {"factors": [AMP_DAMP]}}}),
        (["channel-validate", "--channel", "ch"], {"ch": {"builtin": "nope"}}),
        (["forward", "--channel", "ch", "--state", "state"], {"state": {"n": 1}}),
        (["forward", "--model", "model", "--state", "state"],
         {"model": {"A": [[1, 0], [0, 1]], "C": [[0, 0], [0, 0]], "column_order": "x"}}),
        (["forward", "--model", "model", "--state", "state"], {"model": {"A": [], "C": []}}),
        (["forward", "--model", "model", "--state", "state"],
         {"model": {"dim": 4, "A": [[1, 0], [0, 1]], "C": [[0, 0], [0, 0]]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"counts": [-1, 2]}}),
        (["mitigate", "--channel", "ch", "--counts", "counts"], {"counts": {"counts": [0, 0]}}),
    ],
    ids=["short-y", "empty-x", "wrong-C-shape", "non-square-A", "negative-seed",
         "state-vs-channel", "state-vs-model", "model-vs-state", "oracle-state-vs-channel",
         "sample-state-vs-channel", "model-vs-channel", "shots-string", "shots-not-the-sum",
         "shots-boolean", "shots-float", "shots-null", "counts-sum-overflows", "shots-beyond-int64",
         "model-above-64-forward", "model-above-64-mitigate", "state-above-64",
         "channel-without-kraus", "channel-dim-vs-n", "channel-empty-kraus", "tensor-of-one",
         "unknown-builtin", "state-without-matrix", "column-order", "model-empty-A",
         "model-dim-vs-A", "counts-negative", "counts-all-zero"],
)
def test_schema_violation_is_usage_error(capsys, write_json, argv, docs):
    docs = {"ch": AMP_DAMP, "state": GROUND_STATE, **docs}
    files = {name: write_json(name + ".json", doc) for name, doc in docs.items()}
    code = main([files.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured)


@pytest.mark.parametrize(
    "read, doc",
    [
        (formats.model_from_obj, LEVELS_65_MODEL),
        # The 64-level check comes before the comparison with dim.
        (functools.partial(formats.state_from_obj, dim=64), LEVELS_65_STATE),
    ],
    ids=["model", "state"],
)
def test_implied_dimension_is_held_to_64(read, doc):
    with pytest.raises(formats.FormatError, match="more than 64"):
        read(doc)


def test_one_level_model_may_give_C_as_an_empty_list(capsys, write_json):
    model = write_json("model.json", {"A": [[1]], "C": []})
    state = write_json("state.json", {"x": [1], "y": []})
    code, out = run(capsys, "forward", "--model", model, "--state", state)
    assert code == 0 and out == {"z": [1.0]}


def nested(depth):
    value = 0.5
    for _ in range(depth):
        value = [value]
    return value


# One number of each field that holds numbers: the command that reads it, the
# valid documents it reads, and the path to the number in one of them.
NUMBER_FIELDS = {
    "kraus": (["channel-validate", "--channel", "ch"], {"ch": IDENTITY_KRAUS}, ("ch", "kraus", 0, 0, 0)),
    "state-matrix": (["forward", "--channel", "ch", "--state", "state"], {"state": PLUS_STATE},
                     ("state", "matrix", 1, 0)),
    "x": (["forward", "--channel", "ch", "--state", "state"], {"state": {"x": [1, 0], "y": [0, 0]}},
          ("state", "x", 0)),
    "y": (["forward", "--channel", "ch", "--state", "state"], {"state": {"x": [1, 0], "y": [0, 0]}},
          ("state", "y", 1)),
    "A": (["forward", "--model", "model", "--state", "state"], {}, ("model", "A", 0, 0)),
    "C": (["forward", "--model", "model", "--state", "state"], {}, ("model", "C", 1, 0)),
    "z": (["mitigate", "--model", "model", "--z", "z"], {}, ("z", "z", 0)),
    "counts": (["mitigate", "--model", "model", "--counts", "counts"], {}, ("counts", "counts", 1)),
    "shots": (["mitigate", "--model", "model", "--counts", "counts"], {}, ("counts", "shots")),
    "gamma": (["channel-validate", "--channel", "ch"], {}, ("ch", "params", "gamma")),
    "lambda": (["channel-validate", "--channel", "ch"],
               {"ch": {"builtin": "dephasing", "params": {"lambda": 0.5}}}, ("ch", "params", "lambda")),
    "theta": (["channel-validate", "--channel", "ch"], {"ch": ROTATION}, ("ch", "params", "theta")),
    "probs": (["channel-validate", "--channel", "ch"],
              {"ch": {"builtin": "pauli", "params": {"probs": [1, 0, 0, 0]}}}, ("ch", "params", "probs", 0)),
}
NOT_NUMBERS = {
    "string": "0.5",
    "boolean": True,
    "null": None,
    "ragged": [[0.5], [0.5, 0.5]],
    "nested-100": nested(100),
    "huge-int": 10**999,
}


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_only_json_numbers_are_read_as_numbers(capsys, write_json, field, bad):
    argv, docs, path = NUMBER_FIELDS[field]
    docs = {
        "ch": AMP_DAMP,
        "state": GROUND_STATE,
        "model": {"A": [[1, 0], [0, 1]], "C": [[0, 0], [0, 0]]},
        "z": {"z": [0.5, 0.5]},
        "counts": {"shots": 2, "counts": [1, 1]},
        **json.loads(json.dumps(docs)),
    }
    parent = docs
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = NOT_NUMBERS[bad]
    files = {name: write_json(name + ".json", doc) for name, doc in docs.items()}
    code = main([files.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == ""
    assert one_error_line(captured)


@pytest.mark.parametrize(
    "argv",
    [["forward", "--state", "state"], ["mitigate", "--z", "z"]],
    ids=["forward", "mitigate"],
)
def test_model_of_no_povm_is_domain_error(capsys, write_json, argv):
    # Columns of A sum to 1 and those of C to 0, but F_0 has eigenvalue -2.05.
    files = {
        "state": write_json("state.json", PLUS_STATE),
        "z": write_json("z.json", {"z": [0.5, 0.5]}),
        "model": write_json("model.json", {"A": [[1, 0], [0, 1]], "C": [[5, 0], [-5, 0]]}),
    }
    code = main([files.get(arg, arg) for arg in argv] + ["--model", files["model"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert one_error_line(captured) and "POVM positivity" in captured.err


def test_unphysical_state_is_domain_error(capsys, write_json):
    ch = write_json("ch.json", IDENTITY_KRAUS)
    st = write_json("state.json", {"n": 1, "matrix": [[1.2, 0], [0, 0], [0, 0], [-0.2, 0]]})
    code, _ = run(capsys, "forward", "--channel", ch, "--state", st)
    assert code == 1


def test_nan_model_is_usage_error_on_one_line(capsys, write_json):
    # json.dumps writes the non-standard token NaN.
    model = write_json("model.json", {"A": [[float("nan"), 0.5], [0.0, 0.5]], "C": [[0.0, 0.0], [0.0, 0.0]]})
    z = write_json("z.json", {"z": [0.5, 0.5]})
    code = main(["mitigate", "--model", model, "--z", z])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--model", '{"A": [[1e999, 0.0], [0.0, 1.0]], "C": [[0.0, 0.0], [0.0, 0.0]]}'),
        ("--z", '{"z": [1e999, 0.5]}'),
        ("--counts", '{"shots": 2, "counts": [1, 1e999]}'),
        ("--channel", '{"dim": 2, "kraus": [[[1e999, 0], [0, 0], [0, 0], [1, 0]]]}'),
        # Integer literals too large for a float.
        pytest.param("--model", '{"A": [[%s, 0], [0, 1]], "C": [[0, 0], [0, 0]]}' % HUGE_INT, id="model-huge-int"),
        pytest.param("--counts", '{"shots": 2, "counts": [1, %s]}' % HUGE_INT, id="counts-huge-int"),
        pytest.param("--channel", '{"dim": 2, "kraus": [[[%s, 0], [0, 0], [0, 0], [1, 0]]]}' % HUGE_INT,
                     id="kraus-huge-int"),
        pytest.param("--channel", '{"builtin": "amplitude_damping", "params": {"gamma": %s}}' % HUGE_INT,
                     id="gamma-huge-int"),
        # Longer than Python's limit on integer digits (4300 by default): a plain ValueError.
        pytest.param("--z", '{"z": [%s, 0]}' % ("1" + "0" * 4999), id="z-5000-digit-int"),
    ],
)
def test_overflowing_number_is_usage_error(capsys, tmp_path, write_json, flag, text):
    # 1e999 is valid JSON that parses to inf without any NaN/Infinity token.
    inputs = {
        "--model": write_json("model.json", {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 0.0], [0.0, 0.0]]}),
        "--z": write_json("z.json", {"z": [0.5, 0.5]}),
    }
    inputs.pop("--model" if flag == "--channel" else "--z" if flag == "--counts" else flag)
    inputs[flag] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text(text)
    code = main(["mitigate", *(arg for pair in inputs.items() for arg in pair)])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"dim": 2, "n": "x", "kraus": IDENTITY_KRAUS["kraus"]},
        {"builtin": "identity", "params": {"dim": 2, "n": "q"}},
        {"dim": True, "kraus": [[[1, 0]]]},
        pytest.param({"builtin": "identity", "params": {"dim": 65}}, id="dim-above-64"),
        pytest.param({"builtin": "identity", "params": {"n": 7}}, id="n-above-6"),
    ],
)
def test_non_integer_dimension_is_usage_error(capsys, write_json, spec):
    code = main(["channel-validate", "--channel", write_json("ch.json", spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_internal_failure_is_one_error_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "cmd_paper_examples", broken)
    code = main(["paper-examples"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: internal RuntimeError: unexpected state"]


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_paper_examples", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["paper-examples"])


def test_sample_refuses_negative_outcome_probabilities(capsys, write_json):
    # The state is valid within 1e-10, but full damping on the first qubit
    # sends its two negative populations to one outcome: -1.8e-10.
    ch = write_json("ch.json", {"builtin": "tensor", "params": {"factors": [
        {"builtin": "amplitude_damping", "params": {"gamma": 1.0}}, {"builtin": "identity"}]}})
    diagonal = [-0.9e-10, 0.5 + 0.9e-10, -0.9e-10, 0.5 + 0.9e-10]
    matrix = [[diagonal[i // 5], 0] if i % 5 == 0 else [0, 0] for i in range(16)]
    state = write_json("state.json", {"n": 2, "matrix": matrix})
    code = main(["sample", "--channel", ch, "--state", state, "--shots", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: outcome distribution has negative entry -1.800e-10\n"
