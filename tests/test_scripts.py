"""Experiment scripts: a tiny run succeeds, and errors exit with the CLI's codes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gqt import Controlled, Swap, qstate
from gqt.cli import circuit_from_json_dict
from gqt.config import DEFAULT_SEED, rng_from_seed

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
# n=3 exceeds GQT_DENSE_CAP=2; the sweep samples outcomes with no statevector
# and first meets a cap at n=48, above the shift cap.
CAPPED = {
    "unitarity_survey": (
        TINY["unitarity_survey"],
        "unitarity_survey: cap exceeded: n=3 exceeds dense cap 2\n",
    ),
    "dhsp_sweep": (
        ["--n", "48", "--trials", "5", "--reps", "1"],
        "dhsp_sweep: cap exceeded: n=48 exceeds shift cap 47\n",
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


@pytest.mark.parametrize("name", sorted(TINY))
def test_negative_seed_exits_one(name, capsys):
    assert load(name).main([*TINY[name], "--seed", "-1"]) == 1
    assert capsys.readouterr().err == f"{name}: error: need seed >= 0, got -1\n"


@pytest.mark.parametrize(
    "flags, code, stderr",
    [
        (["--seed", "-1"], 1, "error: need seed >= 0, got -1"),
        (["--n", "0"], 1, "error: need n >= 1, got 0"),
        (["--n", "25"], 3, "cap exceeded: n=25 exceeds criterion cap 20"),
        (["--n", "13"], 3, "cap exceeded: n=13 exceeds dense cap 12"),
    ],
)
def test_survey_refuses_bad_input_before_any_pass(flags, code, stderr, capsys, monkeypatch):
    # Refused before the grid pass runs, so nothing reaches stdout.
    monkeypatch.delenv("GQT_DENSE_CAP", raising=False)
    survey = load("unitarity_survey")
    assert survey.main(["--grid-max", "3", "--samples", "3", *flags]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"unitarity_survey: {stderr}\n")


def test_sweep_refuses_an_unwritable_out_path(tmp_path, capsys):
    target = str(tmp_path / "missing" / "s.csv")
    assert load("dhsp_sweep").main([*TINY["dhsp_sweep"], "--out", target]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"dhsp_sweep: error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_survey_refuses_an_unwritable_out_path(tmp_path, capsys):
    # The CSV is written before the tables are printed, so nothing reaches stdout.
    target = str(tmp_path / "missing" / "s.csv")
    assert load("unitarity_survey").main([*TINY["unitarity_survey"], "--out", target]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"unitarity_survey: error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_survey_writes_its_family_table(tmp_path, capsys):
    target = tmp_path / "s.csv"
    assert load("unitarity_survey").main([*TINY["unitarity_survey"], "--out", str(target)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {target}\n")
    lines = target.read_text().splitlines()
    assert lines[0] == "family,a,structural_valid,numeric_valid,defect"
    assert len(lines) == 1 + 3 * 7


def test_cli_digest_is_deterministic(capsys):
    digest = load("cli_digest")
    outputs = []
    for _ in range(2):
        assert digest.main(["--max-n", "3"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    lines = outputs[0].out.splitlines()
    assert lines[-1].startswith("digest ") and len(lines) > 100
    assert all(line.split()[0] in ("0", "1", "2", "3") for line in lines[:-1])


def test_cli_digest_random_circuit_has_what_no_transform_dump_has(tmp_path):
    # Controlled general gates, a control on bit 0 and a swap with gates
    # after it: the plan's controlled steps and its mid-circuit relabelling.
    digest = load("cli_digest")
    rng = rng_from_seed(DEFAULT_SEED + 1)
    for n in range(1, 6):
        path = digest._random_circuit(tmp_path, n, rng)
        c = circuit_from_json_dict(json.loads(Path(path).read_text()))
        assert c.gate_count == 4 * n
        if n >= 3:
            controlled = [g for g in c.gates if isinstance(g, Controlled) and g.controls]
            assert any(b == 0 for g in controlled for _, b in g.controls), n
            assert any(not qstate._is_phase(g.u) for g in controlled), n
            assert any(isinstance(g, Swap) for g in c.gates[:-1]), n
