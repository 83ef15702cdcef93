"""Unitarity derived from a verified matrix: the bound, its fallback, and compare.

compare bounds the circuit's matrix C from its gates and derives the
formula F's check from that bound and the distance between them.  The tests
stand a verified matrix in for C, with its checked defect as C's bound, and
hold perturbed formulas against it.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from gqt import (
    Circuit,
    DenseUnitary,
    GqftSpec,
    NotUnitaryError,
    PhaseMatrix,
    circuit_to_dense,
    gqft_circuit,
    gqft_dense,
    haar_matrix,
    toeplitz_phi,
)
from gqt import qstate
from gqt.cli import main as cli_main
from gqt.config import STATE_TOL
from gqt.qstate import _circuit_distance, _defect_bound, _gate_bound, _unitarity_defect
from _oracles import dense_columns, one_block_circuit_dense, random_triangular_phi

# Accepted on the bound; bound above the tolerance but the exact check
# passes; refused by the exact check.
EPSILONS = (1e-16, 1e-13, 1e-10, 1e-6)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def _references(n: int, rng: np.random.Generator) -> dict:
    return {
        "random": _random_unitary(1 << n, rng),
        "haar": haar_matrix(n).p.astype(np.complex128),
        "toeplitz": gqft_dense(GqftSpec(toeplitz_phi(n))).entries,
    }


def _perturbed(m: np.ndarray, eps: float, rng: np.random.Generator) -> np.ndarray:
    e = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    return m + eps * e / np.max(np.abs(e))


def _standing_in_for(monkeypatch, b: np.ndarray, bound: float, width: int = 3) -> Circuit:
    """An empty circuit whose column chunks, for the streamed distance and
    for its exact-check fallback, are those of ``b``, ``width`` columns each,
    and whose gate bound is ``bound``."""

    def chunks(c, grow):
        for j in range(0, b.shape[1], width):
            yield j, b[:, j : j + width].copy()

    monkeypatch.setattr(qstate, "_circuit_chunks", chunks)
    monkeypatch.setattr(qstate, "_gate_bound", lambda c: bound)
    return Circuit(b.shape[0].bit_length() - 1, ())


@pytest.mark.parametrize("n", range(1, 10))
def test_bound_covers_the_exact_defect(n, monkeypatch, exact_calls):
    # Dims 2..512, three kinds of verified matrix, perturbations 1e-16..1e-6,
    # each perturbed matrix held as a formula against its reference.
    rng = np.random.default_rng(1700 + n)
    dim = 1 << n
    for kind, u in _references(n, rng).items():
        ref = DenseUnitary(n, u)
        assert ref.defect == _unitarity_defect(u)
        stand_in = _standing_in_for(monkeypatch, u, ref.defect)
        for eps in EPSILONS:
            b = _perturbed(u, eps, rng)
            dist = float(np.max(np.abs(b - u)))
            bound = _defect_bound(ref.defect, dist, dim)
            exact = _unitarity_defect(b)
            assert exact <= bound, (kind, eps)
            exact_calls.clear()
            if exact > STATE_TOL:
                with pytest.raises(NotUnitaryError):
                    _circuit_distance(stand_in, dense_columns(b))
                continue
            assert _circuit_distance(stand_in, dense_columns(b)) == dist
            assert exact_calls == ([] if bound <= STATE_TOL else [dim]), (kind, eps)


def test_derived_check_refuses_exactly_what_the_exact_check_refuses(monkeypatch):
    # A perturbed formula against a verified circuit matrix, and a perturbed
    # circuit matrix that its NaN gate bound cannot vouch for.
    rng = np.random.default_rng(1701)
    u = _random_unitary(8, rng)
    ref = DenseUnitary(3, u)
    for r in range(8):
        for c in range(8):
            for shift in (1e-6, 1e-11, complex(math.nan, 0.0)):
                m = u.copy()
                m[r, c] += shift
                for chunks, formula, bound in ((u, m, ref.defect), (m, u, math.nan)):
                    stand_in = _standing_in_for(monkeypatch, chunks, bound)
                    try:
                        DenseUnitary(3, m)
                    except NotUnitaryError as exc:
                        with pytest.raises(NotUnitaryError) as derived:
                            _circuit_distance(stand_in, dense_columns(formula))
                        assert str(derived.value) == str(exc)
                    else:
                        _circuit_distance(stand_in, dense_columns(formula))


def test_a_nan_entry_fails_the_derived_check_by_nan(monkeypatch):
    u = np.eye(4, dtype=np.complex128)
    m = u.copy()
    m[3, 2] = math.nan
    with pytest.raises(NotUnitaryError, match="by nan"):
        _circuit_distance(_standing_in_for(monkeypatch, u, 0.0), dense_columns(m))


@pytest.mark.parametrize("budget_cols", [1, 3, 5, 64])
def test_row_block_distance_equals_the_one_shot_max(monkeypatch, budget_cols):
    # The distance was once taken over row blocks of the two matrices; it is
    # now taken over the circuit's column chunks, of the same byte budget.
    rng = np.random.default_rng(1702 + budget_cols)
    for n in (1, 4, 6):
        dim = 1 << n
        monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * dim * budget_cols)
        c = gqft_circuit(GqftSpec(random_triangular_phi(n, rng)))
        built = one_block_circuit_dense(c)
        formula = DenseUnitary(n, _perturbed(built, 1e-12, rng))
        want = float(np.max(np.abs(built - formula.entries)))
        assert _circuit_distance(c, dense_columns(formula.entries)) == want


def _run_compare(spec_path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["compare", "--spec", str(spec_path)])
    return code, out.getvalue(), err.getvalue()


def _write_phi(path, phi) -> str:
    path.write_text(json.dumps({"n": len(phi), "phi": [[float(v) for v in r] for r in phi]}))
    return str(path)


TRI3 = [[4, 0, 0], [3, 4, 0], [1, 2, 4]]
TOEPLITZ3 = [[4, 8, 16], [2, 4, 8], [1, 2, 4]]


@pytest.mark.parametrize("phi", [TRI3, TOEPLITZ3])
@pytest.mark.parametrize(
    "shift, stderr",
    [
        (1e-6, "gqt: validity failure: matrix deviates from unitarity by 7.071e-07\n"),
        (complex(math.nan, 0.0), "gqt: validity failure: matrix deviates from unitarity by nan\n"),
    ],
)
def test_compare_refuses_a_perturbed_circuit_matrix(tmp_path, monkeypatch, phi, shift, stderr):
    # stderr is what the exact-check-only compare printed for the same kernel.
    # A chunk route patched to compute what its gates do not is outside the
    # gate bound's premise, so the bound is made NaN: the circuit's matrix
    # then takes the exact check, after the formula's has passed.
    monkeypatch.setattr(qstate, "_gate_bound", lambda c: math.nan)
    grow = qstate._grow_chunk

    def shifted(plan, chunk, spare, j):
        grow(plan, chunk, spare, j)
        chunk[0, 0] += shift

    spec_path = _write_phi(tmp_path / "phi.json", phi)
    want = one_block_circuit_dense(gqft_circuit(GqftSpec(PhaseMatrix(3, phi))))
    want[0, 0] += shift
    assert stderr.endswith(f"by {_unitarity_defect(want):.3e}\n")
    monkeypatch.setattr(qstate, "_grow_chunk", shifted)
    assert _run_compare(spec_path) == (2, "", stderr)


def test_compare_runs_the_exact_check_once(tmp_path, monkeypatch):
    # At most once: both matrices are certified from the circuit's gates,
    # so a compare takes no exact check at all, integral phi or real.  A
    # circuit matrix shifted past the formula's derived bound sends the
    # formula to its exact check, once, which passes, and the report fails.
    calls = []
    exact = qstate._unitarity_defect

    def counted(m):
        calls.append(m.shape[0])
        return exact(m)

    monkeypatch.setattr(qstate, "_unitarity_defect", counted)
    real_tri3 = [[4, 0, 0], [0.5, 4, 0], [1, 2, 4]]
    for phi in (TRI3, TOEPLITZ3, toeplitz_phi(9).phi, real_tri3):
        calls.clear()
        code, out, _ = _run_compare(_write_phi(tmp_path / "phi.json", phi))
        report = json.loads(out)
        assert code == 0 and report["pass"] is True
        assert calls == []
    grow = qstate._grow_chunk

    def shifted(plan, chunk, spare, j):
        grow(plan, chunk, spare, j)
        chunk[0, 0] += 1e-6

    monkeypatch.setattr(qstate, "_grow_chunk", shifted)
    code, out, _ = _run_compare(_write_phi(tmp_path / "phi.json", real_tri3))
    report = json.loads(out)
    assert code == 2 and report["pass"] is False and report["max_abs_diff"] > 1e-7
    assert calls == [8]


def test_compare_reports_the_distance_its_bound_used(tmp_path):
    n = 9
    spec = GqftSpec(toeplitz_phi(n))
    built = circuit_to_dense(gqft_circuit(spec))
    diff = float(np.max(np.abs(built.entries - gqft_dense(spec).entries)))
    _, out, _ = _run_compare(_write_phi(tmp_path / "phi.json", toeplitz_phi(n).phi))
    report = json.loads(out)
    assert report["max_abs_diff"] == diff
    assert _defect_bound(_gate_bound(gqft_circuit(spec)), diff, 1 << n) <= STATE_TOL
