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
