"""Smoke tests of the scripts under scripts/, run in process."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--steps", "1"], []])
def test_rotation_sweep_runs(capsys, argv):
    # Both grids hold theta = pi/2, where the assignment matrix is singular.
    assert load_script("rotation_sweep").main(argv) == 0
    assert "singular" in capsys.readouterr().out


def test_rotation_sweep_json_marks_the_singular_angle(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    assert load_script("rotation_sweep").main(["--steps", "3", "--json", str(out)]) == 0
    capsys.readouterr()
    records = json.loads(out.read_text())
    assert [r["classical_x_error"] is None for r in records] == [False, True, False]
    assert all(r["mitigate_residual"] <= 1e-9 for r in records)


def test_rotation_sweep_reports_both_population_errors():
    # Both routes miss the true populations of |+>: the classical inversion
    # misreads the coherence, and the solver's exact fit is one point of the
    # consistent set, not the generating state.
    (record,) = load_script("rotation_sweep").sweep([0.5])
    assert record["mitigate_residual"] <= 1e-9
    assert record["mitigate_x_error"] == pytest.approx(0.2104, abs=1e-3)
    assert record["classical_x_error"] == pytest.approx(0.2732, abs=1e-3)
