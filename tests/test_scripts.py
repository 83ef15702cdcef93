"""Experiment scripts: a tiny run succeeds, and errors exit with the CLI's codes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# (script, argv of a tiny run whose largest n is 3)
TINY = {
    "unitarity_survey": ["--grid-max", "1", "--samples", "2", "--n", "3"],
    "dhsp_sweep": ["--n", "3", "--trials", "5", "--reps", "1"],
}


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_succeeds(name, capsys):
    assert load(name).main(TINY[name]) == 0
    assert capsys.readouterr().err == ""


# (argv, stderr) of a run over a cap.  The survey builds dense matrices, so
# n=3 exceeds GQT_DENSE_CAP=2; the sweep runs on a statevector and first
# meets a cap at n=21, above the state cap.
CAPPED = {
    "unitarity_survey": (
        TINY["unitarity_survey"],
        "unitarity_survey: cap exceeded: n=3 exceeds dense cap 2\n",
    ),
    "dhsp_sweep": (
        ["--n", "21", "--trials", "5", "--reps", "1"],
        "dhsp_sweep: cap exceeded: n=21 exceeds state cap 20\n",
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_dense_cap_exits_three_without_traceback(name):
    argv, stderr = CAPPED[name]
    env = {**os.environ, "GQT_DENSE_CAP": "2", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert proc.stderr == stderr


@pytest.mark.parametrize("name", sorted(TINY))
def test_zero_wires_exit_one(name, capsys):
    argv = list(TINY[name])
    argv[argv.index("--n") + 1] = "0"
    assert load(name).main(argv) == 1
    assert capsys.readouterr().err == f"{name}: error: need n >= 1, got 0\n"


# (script, flag) -> [(value, argparse's complaint about it)]
MALFORMED = {
    ("dhsp_sweep", "--n"): [("x", "invalid int value: 'x'")],
    ("dhsp_sweep", "--reps"): [("0", "need reps >= 1, got 0")],
    ("unitarity_survey", "--grid-max"): [("-1", "need grid-max >= 0, got -1")],
    ("unitarity_survey", "--samples"): [
        ("x", "invalid int value: 'x'"),
        ("-2", "need samples >= 0, got -2"),
    ],
}


@pytest.mark.parametrize("name, flag", sorted(MALFORMED))
def test_malformed_flag_exits_one(name, flag, capsys):
    # Exit 2 is reserved for validity failures, as in the CLI.
    for value, complaint in MALFORMED[(name, flag)]:
        with pytest.raises(SystemExit) as exc:
            load(name).main([flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {complaint}" in err
