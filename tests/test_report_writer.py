"""Reports are streamed from their arrays by one writer.

Its bytes must be those of ``json.dumps(report, sort_keys=True, indent=2)``
over the report with each array as nested lists, and of the ``%.12g`` CSV
lines, for every command and format, whatever the block size, with -0.0,
subnormals, the extreme floats, NaN and infinities included.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt import cli
from gqt.cli import _write_report
from gqt.cli import main as cli_main
from _oracles import random_rot_spec


def reference(report: dict, fmt: str) -> str:
    """The report rendered from nested lists, as it was before streaming."""
    lists = {}
    for key, value in report.items():
        if isinstance(value, np.ndarray):
            if value.dtype.kind in "iu":
                value = value.tolist()
            else:
                value = np.asarray(value, dtype=np.complex128)
                value = np.stack((value.real, value.imag), -1).tolist()
        lists[key] = value
    if fmt == "json":
        return json.dumps(lists, sort_keys=True, indent=2) + "\n"
    key = cli._CSV_KEYS[lists["command"]]
    values = lists[key]
    if key == "entries":
        rows = [",".join(f"{re:.12g},{im:.12g}" for re, im in row) for row in values]
    elif key == "amps":
        rows = [f"{k},{re:.12g},{im:.12g}" for k, (re, im) in enumerate(values)]
    else:
        rows = [f"{k},{v}" for k, v in values]
    return "\n".join(rows) + "\n"


def streamed(report: dict, fmt: str) -> str:
    out = io.StringIO()
    _write_report(out, report, fmt)
    return out.getvalue()


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def spec_files(tmp_path):
    n = 4
    phi = [[8.0, 0.0, 16.0, 0.0], [3.0, 8.0, 0.0, 0.0], [5.0, 1.0, 8.0, 0.0],
           [7.0, 2.0, 6.0, 8.0]]
    rng = np.random.default_rng(4400)
    files = {"phi": tmp_path / "phi.json", "circuit": tmp_path / "circuit.json"}
    files["phi"].write_text(json.dumps({"n": n, "phi": phi}))
    for variant in ("rot1", "rot2"):
        spec = random_rot_spec(n, "hadamard_first" if variant == "rot1" else "rotation_first", rng)
        data = {
            "n": n,
            "variant": spec.variant,
            "theta": [
                {"i": i, "j": j, "t0": t0, "t1": t1} for (i, j), (t0, t1) in spec.thetas.items()
            ],
        }
        if spec.alpha0 is not None:
            data["alpha0"] = list(spec.alpha0)
        files[variant] = tmp_path / f"{variant}.json"
        files[variant].write_text(json.dumps(data))
    run_cli("matrix", "--kind", "gqft", "--spec", str(files["phi"]),
            "--emit-circuit", str(files["circuit"]))
    return {k: str(v) for k, v in files.items()}


def _commands(files: dict) -> list[tuple[str, ...]]:
    runs = [
        ("matrix", "--kind", "gqft", "--spec", files["phi"]),
        ("matrix", "--kind", "rot1", "--spec", files["rot1"]),
        ("matrix", "--kind", "rot2", "--spec", files["rot2"]),
        ("matrix", "--kind", "haar", "--n", "4"),
        ("matrix", "--kind", "dft", "--n", "4"),
        ("simulate", "--spec", files["circuit"], "--basis", "5", "--trials", "300"),
        ("simulate", "--spec", files["circuit"], "--basis", "0"),
        ("dhsp", "--n", "5", "--d", "11", "--samples", "random", "--trials", "200"),
        ("haar", "--n", "4"),
    ]
    return [run + ("--format", fmt) for run in runs for fmt in ("json", "csv")] + [
        ("haar", "--n", "4", "--basis", "6", "--ket", "9", "--i", "3"),
        ("compare", "--spec", files["phi"]),
        ("compare", "--spec", files["rot2"]),
        ("check-unitary", "--spec", files["phi"]),
    ]


def test_every_command_streams_the_bytes_of_its_nested_list_report(spec_files, monkeypatch):
    emitted = []
    emit = cli._emit

    def recorded(report, fmt, path):
        emitted.append((report, fmt))
        emit(report, fmt, path)

    monkeypatch.setattr(cli, "_emit", recorded)
    for argv in _commands(spec_files):
        emitted.clear()
        code, out, err = run_cli(*argv)
        assert code == 0 and err == "", argv
        (report, fmt), = emitted
        assert out == reference(report, fmt), argv


def test_the_writer_holds_at_block_sizes_that_split_rows(spec_files):
    for block in (1, 2, 3):
        with mock.patch.object(cli, "_BLOCK_ITEMS", block):
            for argv in _commands(spec_files)[:12]:
                got = run_cli(*argv)
                with mock.patch.object(cli, "_BLOCK_ITEMS", 1 << 16):
                    assert got == run_cli(*argv), (block, argv)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1.0]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
parts = st.one_of(st.sampled_from(SPECIAL + NON_FINITE), st.floats())


@st.composite
def arrays(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["complex", "float", "int"]))
    if kind == "int":
        values = draw(st.lists(st.integers(-(2**62), 2**62), min_size=2 * rows, max_size=2 * rows))
        return "dhsp", "histogram", np.array(values, dtype=np.int64).reshape(rows, 2)
    # values repeat: each entry is drawn from a pool of a few
    pool = draw(st.lists(parts, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2 * rows * cols,
                          max_size=2 * rows * cols))
    a = np.array([pool[i] for i in picks], dtype=np.float64)
    if kind == "float":
        return "matrix", "entries", a[: rows * cols].reshape(rows, cols)
    z = (a[0::2] + 0j).reshape(rows, cols)
    z.imag = a[1::2].reshape(rows, cols)
    if draw(st.booleans()):
        return "simulate", "amps", z.ravel()
    return "matrix", "entries", z


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
@settings(max_examples=60, deadline=None)
@given(drawn=arrays(), fmt=st.sampled_from(["json", "csv"]))
def test_streamed_arrays_equal_json_dumps_of_their_lists(block, drawn, fmt):
    command, key, a = drawn
    report = {"command": command, key: a, "n": 3, "note": "a\nb", "tol": None}
    with mock.patch.object(cli, "_BLOCK_ITEMS", block):
        assert streamed(report, fmt) == reference(report, fmt)


def test_non_finite_values_are_written_as_json_dumps_writes_them():
    z = np.array([complex(float("nan"), -0.0), complex(float("inf"), float("-inf")), 0.5])
    report = {"command": "simulate", "amps": z}
    text = streamed(report, "json")
    assert text == reference(report, "json")
    assert "NaN" in text and "-Infinity" in text and "Infinity" in text
    assert streamed(report, "csv") == "0,nan,-0\n1,inf,-inf\n2,0.5,0\n"


def test_stdout_and_out_write_the_same_bytes(spec_files, tmp_path):
    for argv in _commands(spec_files):
        target = tmp_path / "report.out"
        code, out, _ = run_cli(*argv)
        assert run_cli(*argv, "--out", str(target)) == (code, "", "")
        assert target.read_text() == out, argv
        target.unlink()


def test_refusals_write_nothing(tmp_path):
    target = tmp_path / "report.csv"
    refusal = "gqt: error: --format csv is not supported for haar\n"
    argv = ("haar", "--n", "3", "--basis", "1", "--format", "csv")
    assert run_cli(*argv) == (1, "", refusal)
    assert run_cli(*argv, "--out", str(target)) == (1, "", refusal)
    assert not target.exists()
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("matrix", "--kind", "dft", "--n", "3", "--out", str(missing))
    assert (code, out) == (1, "")
    assert err == (
        f"gqt: error: cannot write {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert not missing.parent.exists()
    code, out, err = run_cli("matrix", "--kind", "dft", "--n", "3", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"gqt: error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_a_matrix_dump_holds_one_block_of_text(tmp_path):
    # The parent render held the nested lists and the whole text: 115 MiB.
    argv = ["matrix", "--kind", "dft", "--n", "9", "--out", str(tmp_path / "m.json")]
    assert cli_main(argv) == 0  # warm: caches and the workspace
    tracemalloc.start()
    try:
        assert cli_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert Path(argv[-1]).stat().st_size > 16 * 2**20
