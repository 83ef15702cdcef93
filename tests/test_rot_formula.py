"""Rotation cascades read as formulas: the row-half readers and their certificate.

Each reader must give the dense builders' entries bit for bit, over any
column range and either row half, and the factor table's certificate must
cover the exact check's result.  compare certifies from the circuit's gates
instead: it needs no wider float, and a damaged factor table is caught by
the exact check on the formula, with that check's verdict and message.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    GqftSpec,
    PhaseMatrix,
    RotSpec,
    gqft_circuit,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
    toeplitz_phi,
)
from gqt import gqft as gqft_mod
from gqt import qstate, rotft
from gqt.cli import main as cli_main
from gqt.config import STATE_TOL
from gqt.gqft import _formula_columns
from gqt.qstate import _circuit_distance, _defect_bound, _unitarity_defect, bit_table
from _oracles import random_rot_spec

DENSE = {HADAMARD_FIRST: rot1_dense, ROTATION_FIRST: rot2_dense}
CIRCUIT = {HADAMARD_FIRST: rot1_circuit, ROTATION_FIRST: rot2_circuit}
SPECIAL = (0.0, np.pi / 2, np.pi, np.nextafter(2 * np.pi, 0.0))


def _special_spec(n: int, variant: str) -> RotSpec:
    """Special angles in most cells; every third cell is left at (0, 0)."""
    thetas, k = {}, 0
    for i in range(1, n):
        for j in range(i):
            if (i + j) % 3:
                thetas[(i, j)] = (SPECIAL[k % 4], SPECIAL[(k + 1) % 4])
                k += 1
    alpha0 = tuple(SPECIAL[i % 4] for i in range(n)) if variant == ROTATION_FIRST else None
    return RotSpec(n, variant, thetas, alpha0)


def _specs(n: int):
    for variant in (HADAMARD_FIRST, ROTATION_FIRST):
        yield random_rot_spec(n, variant, np.random.default_rng(4100 + n))
        yield _special_spec(n, variant)
        yield RotSpec(n, variant, {}, (0.0,) * n if variant == ROTATION_FIRST else None)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _formula_defect(spec: RotSpec) -> float:
    """The bound the dense builders take: their factor table's certificate."""
    angles = rotft._angles(spec)
    eps = rotft._cascade_error(spec, angles, rotft._factor_table(spec, angles))
    return _defect_bound(0.0, eps, 1 << spec.n)


@pytest.mark.parametrize("n", range(1, 11))
def test_readers_equal_the_dense_matrix_bit_for_bit(n):
    dim = 1 << n
    for spec in _specs(n):
        want = DENSE[spec.variant](spec).entries
        halves = rotft._cascade_columns(spec)
        assert _formula_defect(spec) <= STATE_TOL
        for w in sorted({1, 2, 4, max(dim // 2, 1), dim} & set(range(1, dim + 1))):
            for j in range(0, dim, w):
                for r, half in enumerate(halves(j, w)):
                    rows = want[r * dim // 2 : (r + 1) * dim // 2, j : j + w]
                    assert np.array_equal(_bits(half), _bits(rows)), (spec.variant, n, w, j, r)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_certificate_holds_for_every_spec(n):
    for spec in _specs(n):
        assert _formula_defect(spec) <= STATE_TOL, (spec.variant, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_certified_defect_covers_the_exact_defect(n, exact_calls):
    built = [DENSE[spec.variant](spec) for spec in _specs(n)]
    assert exact_calls == []
    for spec, m in zip(_specs(n), built):
        assert m.defect == _formula_defect(spec)
        assert _unitarity_defect(m.entries) <= m.defect


@pytest.mark.parametrize("variant", [HADAMARD_FIRST, ROTATION_FIRST])
def test_the_entry_bound_covers_the_distance_to_the_exact_cascade(variant):
    # The unitary M* of the certificate, built in long double from the
    # computed angles, with the exact offset pi/2 for rotation_first.
    wide = np.longdouble
    for n in (1, 2, 4, 7):
        dim = 1 << n
        spec = random_rot_spec(n, variant, np.random.default_rng(4200 + n))
        angles = rotft._angles(spec)
        eps = rotft._cascade_error(spec, angles, rotft._factor_table(spec, angles))
        x_bit = bit_table(n).T.astype(int)  # [j, x]
        factors = []
        for j in range(n):
            if variant == HADAMARD_FIRST:
                t = angles[j].astype(wide)
                sign = 1 - 2 * x_bit[j]
                factors.append([np.cos(t) + sign * np.sin(t), (np.cos(t) - sign * np.sin(t)) * sign])
            else:
                base = angles[j, np.arange(dim) & ~(1 << j)].astype(wide)
                half_pi = 2 * np.arctan(wide(1))
                factors.append([np.cos(base + half_pi * (b - x_bit[j])) for b in (0, 1)])
        exact = np.ones((dim, dim), dtype=wide)
        for j in range(n):
            y_j = (np.arange(dim) >> j) & 1
            exact *= np.where(y_j[:, None] == 0, factors[j][0], factors[j][1])
        if variant == HADAMARD_FIRST:
            exact /= np.sqrt(wide(dim))
        got = DENSE[variant](spec).entries
        assert not np.any(got.imag)
        assert np.max(np.abs(got.real.astype(wide) - exact)) <= eps, n


def _write_spec(tmp_path, spec: RotSpec):
    data = {
        "n": spec.n,
        "variant": spec.variant,
        "theta": [{"i": i, "j": j, "t0": t0, "t1": t1} for (i, j), (t0, t1) in spec.thetas.items()],
    }
    if spec.alpha0 is not None:
        data["alpha0"] = list(spec.alpha0)
    path = tmp_path / f"{spec.variant}_{spec.n}.json"
    path.write_text(json.dumps(data))
    return path


def _compare(path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["compare", "--spec", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("variant", [HADAMARD_FIRST, ROTATION_FIRST])
def test_a_narrow_long_double_takes_the_dense_route_with_the_same_report(
    monkeypatch, tmp_path, exact_calls, variant
):
    n = 6
    path = _write_spec(tmp_path, random_rot_spec(n, variant, np.random.default_rng(4300)))
    want = _compare(path)
    assert want[0] == 0 and want[2] == ""
    assert exact_calls == []
    # compare reads no certificate of the factor table, so it keeps its
    # report and takes no exact check; the dense builder takes its own.
    monkeypatch.setattr(qstate, "_WIDE", np.float64)
    spec = random_rot_spec(n, variant, np.random.default_rng(4300))
    assert math.isnan(_formula_defect(spec))
    assert _compare(path) == want
    assert exact_calls == []
    DENSE[variant](spec)
    assert exact_calls == [1 << n]


@pytest.mark.parametrize("variant", [HADAMARD_FIRST, ROTATION_FIRST])
def test_a_damaged_factor_refuses_as_the_exact_check_does(monkeypatch, tmp_path, exact_calls, variant):
    # One factor 1e-6 off: the formula's distance to the circuit is past its
    # derived bound, so its columns are gathered, and the exact check
    # refuses that matrix with its message.
    n = 5
    dim = 1 << n
    spec = random_rot_spec(n, variant, np.random.default_rng(4400))
    factor_table = rotft._factor_table

    def damaged(spec, angles):
        g = factor_table(spec, angles)
        g[3, 1, 9] += 1e-6
        return g

    monkeypatch.setattr(rotft, "_factor_table", damaged)
    g = damaged(spec, rotft._angles(spec))
    entries = np.ones((dim, dim))
    for j in range(n):
        entries *= g[j, (np.arange(dim)[:, None] >> j) & 1, np.arange(dim)]
    entries = entries.astype(np.complex128)
    if variant == HADAMARD_FIRST:
        entries /= np.sqrt(dim)
    defect = _unitarity_defect(entries)
    assert defect > STATE_TOL
    assert not _formula_defect(spec) <= STATE_TOL
    exact_calls.clear()
    code, out, err = _compare(_write_spec(tmp_path, spec))
    assert (code, out) == (2, "")
    assert err == f"gqt: validity failure: matrix deviates from unitarity by {defect:.3e}\n"
    assert exact_calls == [dim]


@pytest.mark.parametrize("variant", [HADAMARD_FIRST, ROTATION_FIRST])
def test_an_over_cap_rot_compare_exits_three(monkeypatch, tmp_path, variant):
    monkeypatch.delenv("GQT_DENSE_CAP", raising=False)
    path = _write_spec(tmp_path, random_rot_spec(13, variant, np.random.default_rng(4500)))
    assert _compare(path) == (3, "", "gqt: cap exceeded: n=13 exceeds dense cap 12\n")


def test_compare_holds_only_the_chunk_spare_and_a_quarter_chunk(monkeypatch):
    # Every formula below is read in row halves: no builder of a whole
    # matrix may run, and the workspace ends at 1 + 1/2 + 1/4 MiB.
    def refused(*args):
        raise AssertionError("dense formula built")

    n = 10
    rng = np.random.default_rng(4600)
    phi = np.triu((1 << n) * rng.integers(-1, 2, size=(n, n)), 1)
    phi += np.tril(rng.integers(0, 1 << n, size=(n, n)), -1)
    np.fill_diagonal(phi, (1 << n) // 2)
    gqft_specs = [GqftSpec(toeplitz_phi(n)), GqftSpec(PhaseMatrix(n, phi))]
    rot_specs = [random_rot_spec(n, v, rng) for v in (HADAMARD_FIRST, ROTATION_FIRST)]
    monkeypatch.setattr(qstate, "_WORKSPACE", {})
    monkeypatch.setattr(gqft_mod, "gqft_dense", refused)
    monkeypatch.setattr(rotft, "rot1_dense", refused)
    monkeypatch.setattr(rotft, "rot2_dense", refused)
    for spec in gqft_specs:
        assert _circuit_distance(gqft_circuit(spec), _formula_columns(spec)) < 1e-12
    for spec in rot_specs:
        assert _circuit_distance(CIRCUIT[spec.variant](spec), rotft._cascade_columns(spec)) < 1e-12
    sizes = {name: buf.nbytes for name, buf in qstate._WORKSPACE.items()}
    assert sizes == {"chunk": 1 << 20, "spare": 1 << 19, "quarter": 1 << 18}
