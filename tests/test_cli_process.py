"""The CLI as a process: python -m coherent_readout.cli, whose entry is run().

run() flushes stdout and ends the process with os._exit, so
these tests check that nothing is lost on the way out: the document arrives
whole through a pipe and in the --out file, exit codes and stderr are those
of main() in process, a stderr that cannot be written costs only the
diagnostics, and closed or failing streams never end in a traceback.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coherent_readout import cli
from coherent_readout.channels import random_channel
from coherent_readout.cli import main
from coherent_readout.formats import channel_to_obj

SRC = Path(cli.__file__).resolve().parents[1]
AMP_DAMP = {"builtin": "amplitude_damping", "params": {"gamma": 0.3}}
IDENTITY_KRAUS = {"dim": 2, "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}
UNPHYSICAL_STATE = {"n": 1, "matrix": [[1.2, 0], [0, 0], [0, 0], [-0.2, 0]]}


def child_env():
    # Block-buffered stdout, as outside a terminal by default: the case in
    # which ending the process without a flush would lose the document.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"  # argparse's help width
    return env


def spawn(argv, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "coherent_readout.cli", *argv],
        env=child_env(), stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )


def in_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_large_document_arrives_whole_through_a_pipe(capsys, monkeypatch, write_json, tmp_path):
    channel = write_json("ch.json", channel_to_obj(random_channel(8, 3, seed=15)))
    out = tmp_path / "doc.json"
    proc = spawn(["channel-validate", "--channel", channel, "--out", str(out)])
    code, stdout, stderr = in_process(capsys, monkeypatch, ["channel-validate", "--channel", channel])
    assert proc.returncode == code == 0
    assert proc.stderr.decode() == stderr
    assert len(proc.stdout) > 8192  # more than one buffer of the child's stdout
    assert proc.stdout.decode() == stdout
    assert out.read_text() == stdout
    assert json.loads(stdout)["pass"] is True


@pytest.mark.parametrize(
    "case, expected_code",
    [("extract", 0), ("help", 0), ("unphysical-state", 1), ("malformed-json", 2), ("unknown-command", 2)],
)
def test_process_exit_code_and_streams_match_main(capsys, monkeypatch, write_json, tmp_path, case, expected_code):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv = {
        "extract": ["model-extract", "--channel", write_json("ch.json", AMP_DAMP)],
        "help": ["--help"],
        "unphysical-state": ["forward", "--channel", write_json("id.json", IDENTITY_KRAUS),
                             "--state", write_json("state.json", UNPHYSICAL_STATE)],
        "malformed-json": ["channel-validate", "--channel", str(bad)],
        "unknown-command": ["frobnicate"],
    }[case]
    proc = spawn(argv)
    code, stdout, stderr = in_process(capsys, monkeypatch, argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (expected_code, stdout, stderr)
    if case in ("unphysical-state", "malformed-json"):
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")


def test_closed_stdout_exits_zero(capsys, monkeypatch):
    # A descriptor closed at start-up leaves sys.stdout None.
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m coherent_readout.cli paper-examples >&-', sys.executable],
        env=child_env(), stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    )
    _, _, stderr = in_process(capsys, monkeypatch, ["paper-examples"])
    assert proc.returncode == 0
    assert proc.stderr.decode() == stderr


@pytest.mark.parametrize(
    "redirect",
    # 2>&- leaves sys.stderr None; a descriptor 2 open for reading only (as a
    # launcher may leave it) gives a sys.stderr whose every write fails.
    ["2>&-", "2</dev/null"],
    ids=["closed", "read-only"],
)
@pytest.mark.parametrize("command", ["channel-validate", "mitigate", "paper-examples"])
def test_unwritable_stderr_keeps_the_document(capsys, monkeypatch, write_json, command, redirect):
    argv = {
        "channel-validate": ["channel-validate", "--channel",
                             write_json("ch.json", channel_to_obj(random_channel(8, 3, seed=15)))],
        "mitigate": ["mitigate", "--channel", write_json("ch.json", AMP_DAMP),
                     "--z", write_json("z.json", {"z": [0.6, 0.4]})],
        "paper-examples": ["paper-examples"],
    }[command]
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" -m coherent_readout.cli "$@" {redirect}', sys.executable, *argv],
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, timeout=120,
    )
    code, stdout, stderr = in_process(capsys, monkeypatch, argv)
    assert code == 0 and stderr
    assert proc.returncode == 0
    assert proc.stdout.decode() == stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_one_error_line(write_json):
    # The document fits in the stdout buffer, so the write fails at run()'s flush.
    channel = write_json("ch.json", AMP_DAMP)
    with open("/dev/full", "w") as full:
        proc = spawn(["model-extract", "--channel", channel], stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        "error: internal OSError: [Errno 28] No space left on device"
    ]


class FailingStream(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.fixture
def exits(monkeypatch):
    """run() in process: the codes it passes to os._exit."""
    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr(sys, "argv", ["coherent-readout", "paper-examples"])
    return codes


@pytest.mark.parametrize("stderr_open", [True, False])
def test_failed_flush_is_one_error_line_and_exit_one(monkeypatch, exits, stderr_open):
    stdout, stderr = FailingStream(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr if stderr_open else None)
    cli.run()
    assert exits == [1]
    # Without stderr, main's diagnostics are dropped, not sent to stdout.
    document = io.StringIO()
    monkeypatch.setattr(sys, "stdout", document)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(["paper-examples"]) == 0
    assert stdout.getvalue() == document.getvalue()
    lines = stderr.getvalue().splitlines()
    assert lines[-1:] == (["error: internal OSError: [Errno 28] No space left on device"] if stderr_open else [])
    assert not any("Traceback" in line for line in lines)


def test_run_passes_main_code_to_os_exit(monkeypatch, exits):
    stdout, stderr = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "argv", ["coherent-readout", "frobnicate"])
    cli.run()
    assert exits == [2]
    assert stdout.getvalue() == ""


def test_keyboard_interrupt_propagates_out_of_run(monkeypatch, exits):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_paper_examples", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.run()
    assert exits == []
