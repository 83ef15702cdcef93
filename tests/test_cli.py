"""Command-line interface: reports, formats, exit codes, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import gqt
from gqt import (
    GqftSpec,
    PhaseMatrix,
    QState,
    apply_circuit,
    circuit_to_dense,
    dft_circuit,
    dft_dense,
    gqft_circuit,
    gqft_dense,
    haar_matrix,
    toeplitz_phi,
)
from gqt.cli import main as cli_main
from gqt.cli import circuit_from_json_dict, parse_matrix_report

# Child interpreters run from here, so `python -m gqt` imports this checkout.
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_phi(path, phi):
    phi = [[float(v) for v in row] for row in phi]
    path.write_text(json.dumps({"n": len(phi), "phi": phi}))
    return str(path)


H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def test_matrix_dft_n1_is_hadamard(tmp_path):
    code, out, _ = run_cli("matrix", "--kind", "dft", "--n", "1")
    assert code == 0
    report = json.loads(out)
    got = parse_matrix_report(out)
    np.testing.assert_allclose(got, H, atol=1e-12)
    assert report["command"] == "matrix" and report["n"] == 1
    for key in ("seed", "format", "tol", "dense_cap", "convention"):
        assert key in report
    assert report["seed"] == 1729 and report["dense_cap"] == 12


def test_matrix_haar_matches_library():
    code, out, _ = run_cli("matrix", "--kind", "haar", "--n", "2")
    assert code == 0
    got = parse_matrix_report(out)
    np.testing.assert_array_equal(got, haar_matrix(2).p.astype(np.complex128))


def test_matrix_gqft_report_and_parse_round_trip(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 1], [0, 2]])
    code, out, _ = run_cli("matrix", "--kind", "gqft", "--spec", spec_path)
    assert code == 0
    pm = PhaseMatrix(2, [[2, 1], [0, 2]])
    expected = gqft_dense(GqftSpec.from_phase_matrix(pm)).entries
    got = parse_matrix_report(out)
    # repr round trip through JSON must be bit-exact
    assert np.array_equal(got, expected)


def test_matrix_emit_circuit_then_simulate(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [1, 2]])
    circ_path = tmp_path / "circ.json"
    code, out, _ = run_cli(
        "matrix", "--kind", "gqft", "--spec", spec_path,
        "--emit-circuit", str(circ_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["circuit_path"] == str(circ_path)
    pm = PhaseMatrix(2, [[2, 0], [1, 2]])
    circ = gqft_circuit(GqftSpec.from_phase_matrix(pm))
    assert report["gate_count"] == circ.gate_count
    dump = json.loads(circ_path.read_text())
    # a gate without controls is written as "single"
    assert [g["kind"] for g in dump["gates"]] == ["single", "controlled", "single"]
    loaded = circuit_from_json_dict(dump)
    assert loaded.n == 2 and loaded.gate_count == circ.gate_count

    code, out, _ = run_cli("simulate", "--spec", str(circ_path), "--basis", "2")
    assert code == 0
    sim = json.loads(out)
    want = apply_circuit(QState.basis(2, 2), circ).amps
    got = np.array([complex(re, im) for re, im in sim["amps"]])
    np.testing.assert_allclose(got, want, atol=0)
    assert sim["gate_count"] == circ.gate_count


def test_simulate_histogram_deterministic(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [0, 2]])
    circ_path = tmp_path / "circ.json"
    run_cli("matrix", "--kind", "gqft", "--spec", spec_path,
            "--emit-circuit", str(circ_path))
    args = ("simulate", "--spec", str(circ_path), "--trials", "400", "--seed", "5")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    hist = dict(tuple(p) for p in json.loads(out1)["histogram"])
    assert sum(hist.values()) == 400


def test_simulate_basis_out_of_range(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [0, 2]])
    circ_path = tmp_path / "circ.json"
    run_cli("matrix", "--kind", "gqft", "--spec", spec_path,
            "--emit-circuit", str(circ_path))
    code, _, err = run_cli("simulate", "--spec", str(circ_path), "--basis", "4")
    assert code == 1
    assert "out of range" in err


def test_check_unitary_valid_and_invalid(tmp_path):
    good = write_phi(tmp_path / "good.json", [[2, 0], [1.5, 2]])
    code, out, _ = run_cli("check-unitary", "--spec", good)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["triangular"]["valid"] is True
    assert report["numeric_unitary"] is True

    bad = write_phi(tmp_path / "bad.json", [[2, 0], [0, 1]])
    code, out, _ = run_cli("check-unitary", "--spec", bad)
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert report["numeric_unitary"] is False
    assert report["general"]["witness_plus"] is not None


def test_check_unitary_rejects_csv(tmp_path):
    good = write_phi(tmp_path / "good.json", [[2, 0], [0, 2]])
    code, _, err = run_cli("check-unitary", "--spec", good, "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_compare_phase_spec_passes(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [3, 2]])
    code, out, _ = run_cli("compare", "--spec", spec_path)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["spec_kind"] == "phase"
    assert report["max_abs_diff"] < 1e-9
    assert report["within_ceiling"] is True
    assert report["gate_ceiling"] == 2 + 1


def test_compare_fails_with_impossible_tolerance(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [3, 2]])
    code, out, _ = run_cli("compare", "--spec", spec_path, "--tol=0")
    assert code == 2
    assert json.loads(out)["pass"] is False


def test_compare_needs_triangular_phase(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 1], [0, 2]])
    code, _, err = run_cli("compare", "--spec", spec_path)
    assert code == 1
    assert "triangular" in err


def test_compare_toeplitz_reports_standard_transform_link(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[4, 8, 16], [2, 4, 8], [1, 2, 4]])
    code, out, _ = run_cli("compare", "--spec", spec_path)
    assert code == 0
    report = json.loads(out)
    assert "note" in report
    assert report["dft_swap_max_abs_diff"] < 1e-10


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Count calls of package functions, wherever a gqt module binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "gqt"]
    for name in names:
        original = getattr(gqt, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_compare_toeplitz_builds_its_circuit_once(tmp_path, monkeypatch):
    spec_path = write_phi(tmp_path / "phi.json", [[4, 8, 16], [2, 4, 8], [1, 2, 4]])
    counts = _count_calls(
        monkeypatch, "check_triangular", "gqft_circuit", "circuit_to_dense", "dft_circuit"
    )
    code, out, _ = run_cli("compare", "--spec", spec_path)
    assert code == 0 and "dft_swap_max_abs_diff" in json.loads(out)
    assert counts == {
        "check_triangular": 1,
        "gqft_circuit": 1,
        "circuit_to_dense": 1,
        "dft_circuit": 0,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compare_toeplitz_row_gather_equals_swap_circuit(tmp_path, n):
    # The swaps of dft_circuit, run by the kernel, are the reference route.
    spec_path = write_phi(tmp_path / "phi.json", toeplitz_phi(n).phi)
    code, out, _ = run_cli("compare", "--spec", spec_path)
    assert code == 0
    swapped = circuit_to_dense(dft_circuit(n)).entries
    want = float(np.max(np.abs(swapped - dft_dense(n).entries)))
    assert json.loads(out)["dft_swap_max_abs_diff"] == want


def test_compare_rotation_spec(tmp_path):
    spec = {"n": 3, "variant": "hadamard_first", "theta": []}
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli("compare", "--spec", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["spec_kind"] == "rot:hadamard_first"
    assert report["gate_count"] == 3  # no couplings: bare Hadamards
    assert report["gate_ceiling"] == 3 + 3 * 2

    spec2 = {
        "n": 2,
        "variant": "rotation_first",
        "theta": [{"i": 1, "j": 0, "t0": 0.4, "t1": 1.3}],
        "alpha0": [0.7853981633974483, 1.1],
    }
    path2 = tmp_path / "rot2.json"
    path2.write_text(json.dumps(spec2))
    code, out, _ = run_cli("compare", "--spec", str(path2))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["spec_kind"] == "rot:rotation_first"


def test_dhsp_perfect_recovery():
    code, out, _ = run_cli(
        "dhsp", "--n", "3", "--d", "5", "--samples", "perfect", "--trials", "64"
    )
    assert code == 0
    report = json.loads(out)
    assert report["recovered"] is True and report["d_hat"] == 5
    assert report["empirical_rate"] == 1.0
    assert report["analytic_p"] == 1.0
    assert report["lambda"] == [0, 0, 0]
    assert report["samples"] == [1, 2, 4]
    assert sum(c for _, c in report["histogram"]) == 64
    assert report["phi"][0] == [4.0, 0.0, 0.0]

    # Closed-form perfect samples work at any n up to the dense cap.
    code, out, _ = run_cli(
        "dhsp", "--n", "10", "--d", "3", "--samples", "perfect", "--trials", "32"
    )
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == [1 << i for i in range(10)]
    assert report["d_hat"] == 3 and report["empirical_rate"] == 1.0


def test_dhsp_runs_past_the_dense_cap(monkeypatch):
    # The procedure runs on a statevector, so only the state cap applies.
    code, out, _ = run_cli("dhsp", "--n", "13", "--d", "7", "--trials", "16")
    assert code == 0
    report = json.loads(out)
    assert report["d_hat"] == 7 and report["empirical_rate"] == 1.0
    monkeypatch.setenv("GQT_DENSE_CAP", "2")
    code, out, _ = run_cli("dhsp", "--n", "3", "--d", "5", "--trials", "16")
    assert code == 0 and json.loads(out)["d_hat"] == 5


def test_dhsp_zero_shift_and_explicit_samples():
    code, out, _ = run_cli(
        "dhsp", "--n", "2", "--d", "0", "--samples", "1,2", "--trials", "32"
    )
    assert code == 0
    report = json.loads(out)
    assert report["d_hat"] == 0 and report["sample_mode"] == "explicit"
    assert report["samples"] == [1, 2]


def test_dhsp_builds_phi_and_evaluates_the_outcome_law_once(monkeypatch):
    counts = _count_calls(monkeypatch, "phi_from_samples", "success_probability")
    code, out, _ = run_cli("dhsp", "--n", "5", "--d", "3", "--samples", "random")
    assert code == 0 and "analytic_p" in json.loads(out)
    assert counts == {"phi_from_samples": 1, "success_probability": 1}


def test_dhsp_bad_samples_exit_one():
    code, _, err = run_cli("dhsp", "--n", "3", "--d", "1", "--samples", "mixed:9")
    assert code == 1 and "out of range" in err
    code, _, err = run_cli("dhsp", "--n", "3", "--d", "1", "--samples", "junk")
    assert code == 1
    code, _, _ = run_cli("dhsp", "--n", "3", "--d", "9", "--samples", "perfect")
    assert code == 1  # shift outside [0, 2^n)


def test_haar_subcommand_views():
    code, out, _ = run_cli("haar", "--n", "2", "--basis", "1")
    assert code == 0
    report = json.loads(out)
    assert report["slot_bits"] == [0, 1]
    assert report["identity_check"] is True
    got = np.array([complex(re, im) for re, im in report["amps"]])
    np.testing.assert_allclose(got, haar_matrix(2).p[:, 1], atol=1e-12)

    code, out, _ = run_cli("haar", "--n", "2", "--ket", "2")
    report = json.loads(out)
    got = np.array([complex(re, im) for re, im in report["inverse_amps"]])
    np.testing.assert_allclose(got, haar_matrix(2).p[2, :], atol=1e-12)

    code, out, _ = run_cli("haar", "--n", "3", "--i", "1")
    report = json.loads(out)
    assert report["swap_count"] == (1 + 1) * (3 - 1 - 1) + 1
    circ = circuit_from_json_dict(report["inverse_circuit"])
    assert circ.n == 3

    code, _, err = run_cli("haar", "--n", "2", "--i", "2")
    assert code == 1 and "out of range" in err


def test_haar_dump_alias_writes_file(tmp_path):
    target = tmp_path / "p.json"
    code, out, _ = run_cli("haar", "--n", "2", "--dump", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    got = parse_matrix_report(target.read_text())
    np.testing.assert_array_equal(got, haar_matrix(2).p.astype(np.complex128))
    assert report["command"] == "haar"


def test_matrix_haar_refuses_circuit_emission(tmp_path):
    code, _, err = run_cli(
        "matrix", "--kind", "haar", "--n", "2",
        "--emit-circuit", str(tmp_path / "c.json"),
    )
    assert code == 1
    assert "inverse circuits" in err


def test_matrix_refuses_circuit_before_dense_build(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, "gqft_dense")
    circ_path = tmp_path / "c.json"
    # valid only in the general regime, so synthesis refuses it
    spec_path = write_phi(tmp_path / "gen.json", [[2, 1], [0, 2]])
    code, _, err = run_cli(
        "matrix", "--kind", "gqft", "--spec", spec_path,
        "--emit-circuit", str(circ_path),
    )
    assert code == 1 and "triangular regime only" in err
    assert counts == {"gqft_dense": 0} and not circ_path.exists()


def test_matrix_haar_refusal_precedes_dense_cap(tmp_path):
    circ_path = tmp_path / "c.json"
    code, _, err = run_cli(
        "matrix", "--kind", "haar", "--n", "13", "--emit-circuit", str(circ_path),
    )
    assert code == 1 and "inverse circuits" in err
    assert not circ_path.exists()


def test_matrix_spec_over_dense_cap_skips_synthesis(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, "gqft_circuit")
    monkeypatch.setenv("GQT_DENSE_CAP", "1")
    circ_path = tmp_path / "c.json"
    spec_path = write_phi(tmp_path / "tri.json", [[2, 0], [1, 2]])
    code, _, err = run_cli(
        "matrix", "--kind", "gqft", "--spec", spec_path,
        "--emit-circuit", str(circ_path),
    )
    assert code == 3 and "n=2 exceeds dense cap 1" in err
    assert counts == {"gqft_circuit": 0} and not circ_path.exists()


def test_exit_code_one_for_missing_or_malformed_input(tmp_path):
    code, _, err = run_cli("matrix", "--kind", "gqft", "--spec", "/nope.json")
    assert code == 1 and "cannot read" in err
    code, _, _ = run_cli("matrix", "--kind", "gqft")  # --spec missing
    assert code == 1
    code, _, _ = run_cli("matrix", "--kind", "bogus", "--n", "2")
    assert code == 1  # argparse choice failure remapped
    code, _, _ = run_cli("nonsense")
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json{")
    code, _, _ = run_cli("check-unitary", "--spec", str(bad))
    assert code == 1
    no_controls = tmp_path / "no_controls.json"
    u = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    gate = {"kind": "controlled", "controls": [], "target": 0, "u": u}
    no_controls.write_text(json.dumps({"n": 1, "gates": [gate]}))
    code, out, err = run_cli("simulate", "--spec", str(no_controls))
    assert code == 1 and out == ""
    assert err == "gqt: error: controlled gate needs at least one control\n"
    tri = write_phi(tmp_path / "tri.json", [[4, 0, 0], [1, 4, 0], [2, 3, 4]])
    for argv, stray in (
        (("matrix", "--kind", "gqft", "--spec", tri, "--n", "7"), "--n"),
        (("matrix", "--kind", "dft", "--n", "2", "--spec", tri), "--spec"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert f"does not take {stray}" in err
    for argv in (
        ("haar", "--n", "-1", "--basis", "0"),
        ("haar", "--n", "-1", "--ket", "0"),
        ("dhsp", "--n", "-1", "--d", "0"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert "need n >= 1" in err


_U_ID = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


# A rounded field would run a different spec from the one the file holds.
@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("check-unitary", {"n": 2.9, "phi": [[2, 0], [1, 2]]},
         "spec field 'n' must be an integer, got 2.9"),
        ("check-unitary", {"n": True, "phi": [[1.0]]},
         "spec field 'n' must be an integer, got True"),
        ("simulate", {"n": 2, "gates": [{"kind": "single", "target": 1.9, "u": _U_ID}]},
         "spec field 'target' must be an integer, got 1.9"),
        ("simulate", {"n": 2, "gates": [{"kind": "swap", "a": 0.2, "b": 1}]},
         "spec field 'a' must be an integer, got 0.2"),
        ("compare",
         {"n": 2, "variant": "hadamard_first",
          "theta": [{"i": 1.7, "j": 0.3, "t0": 0.3, "t1": 1.1}]},
         "spec field 'i' must be an integer, got 1.7"),
    ],
    ids=["n-fraction", "n-bool", "target-fraction", "swap-fraction", "theta-fraction"],
)
def test_integer_spec_field_that_is_not_a_whole_number_exits_one(
    tmp_path, command, spec, message
):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(command, "--spec", str(path))
    assert code == 1 and out == ""
    assert err == f"gqt: error: {message}\n"


def test_whole_number_float_spec_fields_still_read_as_integers(tmp_path):
    phase = tmp_path / "phase.json"
    phase.write_text(json.dumps({"n": 2.0, "phi": [[2, 0], [1, 2]]}))
    assert run_cli("check-unitary", "--spec", str(phase))[0] == 0
    circ = tmp_path / "circ.json"
    gates = [
        {"kind": "swap", "a": 0.0, "b": 1.0},
        {"kind": "controlled", "target": 1.0, "controls": [[0.0, 1.0]], "u": _U_ID},
    ]
    circ.write_text(json.dumps({"n": 2.0, "gates": gates}))
    code, out, _ = run_cli("simulate", "--spec", str(circ), "--basis", "1")
    assert code == 0 and json.loads(out)["gate_count"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dhsp", "--n", "3", "--d", "1", "--trials", "0"), "need trials >= 1, got 0"),
        (("dhsp", "--n", "3", "--d", "1", "--trials", "-5"), "need trials >= 1, got -5"),
        (("simulate", "--spec", "c.json", "--trials", "-5"), "need trials >= 0, got -5"),
    ],
)
def test_shot_count_below_its_floor_exits_one(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    assert f"argument --trials: {message}" in err
    assert "need n >=" not in err


@pytest.mark.parametrize("raw", ["nan", "-1", "-inf", "inf", "1e999", "tiny"])
def test_tolerance_outside_the_finite_nonnegative_floats_exits_one(tmp_path, raw):
    # A NaN tol would reach the JSON report as NaN, which is not JSON, and a
    # negative one fails every check; both are refused before any work.
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [3, 2]])
    code, out, err = run_cli("check-unitary", "--spec", spec_path, f"--tol={raw}")
    assert code == 1 and out == ""
    want = f"invalid float value: '{raw}'" if raw == "tiny" else f"need a finite tol >= 0, got {raw}"
    assert f"argument --tol: {want}" in err


def test_exit_code_two_for_invalid_phase_matrix(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [0, 1]])
    code, out, err = run_cli("matrix", "--kind", "gqft", "--spec", spec_path)
    assert code == 2
    assert "validity failure" in err
    assert "witness" in err  # the report rides along on stderr


def test_exit_code_three_for_dense_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("GQT_DENSE_CAP", "2")
    spec_path = write_phi(
        tmp_path / "phi.json", [[4, 0, 0], [0, 4, 0], [0, 0, 4]]
    )
    code, _, err = run_cli("matrix", "--kind", "gqft", "--spec", spec_path)
    assert code == 3
    assert "cap" in err
    code, out, _ = run_cli("matrix", "--kind", "haar", "--n", "2")
    assert code == 0 and json.loads(out)["dense_cap"] == 2


def test_haar_basis_above_dense_cap_reports_null_identity_check(monkeypatch):
    expected = haar_matrix(3).p[:, 1]  # the library obeys the cap too
    monkeypatch.setenv("GQT_DENSE_CAP", "2")
    code, out, _ = run_cli("haar", "--n", "3", "--basis", "1")
    assert code == 0
    report = json.loads(out)
    assert report["identity_check"] is None
    got = np.array([complex(re, im) for re, im in report["amps"]])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_bad_env_cap_exits_one(monkeypatch):
    monkeypatch.setenv("GQT_DENSE_CAP", "many")
    code, _, err = run_cli("matrix", "--kind", "haar", "--n", "2")
    assert code == 1
    assert "GQT_DENSE_CAP" in err


def test_csv_formats(tmp_path):
    code, out, _ = run_cli("matrix", "--kind", "haar", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all(len(line.split(",")) == 8 for line in lines)
    row0 = [float(v) for v in lines[0].split(",")]
    np.testing.assert_allclose(row0[0::2], haar_matrix(2).p[0], atol=1e-12)
    assert all(v == 0.0 for v in row0[1::2])

    code, out, _ = run_cli(
        "dhsp", "--n", "2", "--d", "1", "--samples", "perfect",
        "--trials", "16", "--format", "csv",
    )
    assert code == 0
    total = sum(int(line.split(",")[1]) for line in out.strip().split("\n"))
    assert total == 16

    code, _, _ = run_cli("compare", "--spec", "/nope", "--format", "csv")
    assert code == 1

    # A complex matrix: every entry as its 12-digit real and imaginary parts.
    code, out, _ = run_cli("matrix", "--kind", "dft", "--n", "3", "--format", "csv")
    assert code == 0
    want = [
        ",".join(f"{v.real:.12g},{v.imag:.12g}" for v in row)
        for row in dft_dense(3).entries
    ]
    assert out == "\n".join(want) + "\n"

    circ_path = tmp_path / "dft.json"
    run_cli("matrix", "--kind", "dft", "--n", "2", "--emit-circuit", str(circ_path))
    code, out, _ = run_cli(
        "simulate", "--spec", str(circ_path), "--basis", "1", "--trials", "8",
        "--format", "csv",
    )
    assert code == 0
    circ = circuit_from_json_dict(json.loads(circ_path.read_text()))
    amps = apply_circuit(QState.basis(2, 1), circ).amps
    want = [f"{k},{v.real:.12g},{v.imag:.12g}" for k, v in enumerate(amps)]
    assert out == "\n".join(want) + "\n"  # the amplitudes, not the histogram

    # haar has a CSV view only for its full matrix.
    code, out, err = run_cli("haar", "--n", "2", "--basis", "1", "--format", "csv")
    assert code == 1 and out == ""
    assert "--format csv is not supported for haar" in err


def test_reports_echo_settings(tmp_path):
    spec_path = write_phi(tmp_path / "phi.json", [[2, 0], [1, 2]])
    code, out, _ = run_cli(
        "check-unitary", "--spec", spec_path, "--seed", "7", "--tol", "1e-6"
    )
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["tol"] == 1e-6
    assert report["format"] == "json"
    assert report["dense_cap"] == 12


def test_out_flag_writes_file_instead_of_stdout(tmp_path):
    target = tmp_path / "r.json"
    code, out, _ = run_cli(
        "matrix", "--kind", "dft", "--n", "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_in_process_reruns_are_identical():
    args = ("dhsp", "--n", "3", "--d", "4", "--samples", "mixed:2", "--trials", "128")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_module_entry_point_byte_identical():
    cmd = [sys.executable, "-m", "gqt", "matrix", "--kind", "haar", "--n", "3"]
    a = subprocess.run(cmd, capture_output=True, check=True, cwd=SRC)
    b = subprocess.run(cmd, capture_output=True, check=True, cwd=SRC)
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")
