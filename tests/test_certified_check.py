"""Unitarity certified from the root table's error: the bound, its fallback, its reach."""

import math

import numpy as np
import pytest

from gqt import (
    GENERAL,
    TRIANGULAR,
    GqftSpec,
    NotUnitaryError,
    PhaseMatrix,
    dft_dense,
    gqft_dense,
    numeric_unitarity_defect,
    toeplitz_phi,
)
from gqt import qstate
from gqt.config import STATE_TOL
from gqt.qstate import (
    _defect_bound,
    _root_table,
    _root_table_error,
    _unitarity_defect,
    bit_reverse,
)


def _random_triangular(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n
    phi = np.triu(dim * rng.integers(-1, 2, size=(n, n)), 1)
    phi += np.tril(rng.integers(-2 * dim, 2 * dim, size=(n, n)), -1)
    np.fill_diagonal(phi, dim // 2)
    return phi


def _general(n: int, rng: np.random.Generator) -> np.ndarray:
    # Reversing the output wires of a triangular phi keeps the transform
    # unitary, and puts an upper entry, a multiple of N, at the diagonal's end.
    return _random_triangular(n, rng)[::-1]


def _phis(n: int) -> dict:
    rng = np.random.default_rng(1800 + n)
    return {
        "toeplitz": toeplitz_phi(n).phi,
        "triangular": _random_triangular(n, rng),
        "general": _general(n, rng),
    }


@pytest.mark.parametrize("n", range(1, 11))
def test_certified_defect_covers_the_exact_defect(n, exact_calls):
    dim = 1 << n
    specs = {
        kind: GqftSpec.from_phase_matrix(PhaseMatrix(n, phi)) for kind, phi in _phis(n).items()
    }
    assert specs["general"].regime == (GENERAL if n > 1 else TRIANGULAR)
    built = {kind: gqft_dense(spec) for kind, spec in specs.items()}
    built["dft"] = dft_dense(n)
    assert exact_calls == []
    bound = _defect_bound(0.0, _root_table_error(dim), dim)
    assert bound <= STATE_TOL
    for kind, m in built.items():
        assert m.defect == bound, kind
        assert _unitarity_defect(m.entries) <= m.defect, kind


def test_table_error_is_near_the_float64_rounding_of_the_roots():
    for n in range(1, 13):
        eps = _root_table_error(1 << n)
        assert 0.0 < eps < 4 * np.finfo(np.float64).eps


def test_table_error_is_computed_once_per_size(monkeypatch, uncached_table_error):
    built = []
    monkeypatch.setattr(qstate, "_root_table", lambda dim: built.append(dim) or _root_table(dim))
    first = [_root_table_error(64), _root_table_error(128)]
    assert [_root_table_error(64), _root_table_error(128)] == first
    assert built == [64, 128]


def _expected_message(table: np.ndarray, exponent: np.ndarray) -> str:
    # The message of the exact check on the matrix read off ``table``.
    entries = table[exponent & (table.size - 1)]
    return f"matrix deviates from unitarity by {_unitarity_defect(entries):.3e}"


@pytest.mark.parametrize("shift", [1e-6, complex(math.nan, 0.0)])
@pytest.mark.parametrize("kind", ["toeplitz", "dft"])
def test_a_damaged_root_table_falls_back_to_the_exact_check(
    monkeypatch, uncached_table_error, exact_calls, shift, kind
):
    n = 5
    dim = 1 << n
    table = _root_table(dim)
    table[3] += shift
    monkeypatch.setattr(qstate, "_root_table", lambda d: table.copy())
    k = np.arange(dim)
    exponent = np.outer(k, k)
    if kind == "toeplitz":
        spec = GqftSpec(toeplitz_phi(n))
        bits = qstate.bit_table(n)
        exponent = (bits @ spec.pm.phi @ bits.T).astype(np.int64)
    want = _expected_message(table, exponent)
    assert want.endswith("by nan") == (shift != 1e-6)
    with pytest.raises(NotUnitaryError) as raised:
        gqft_dense(spec) if kind == "toeplitz" else dft_dense(n)
    assert str(raised.value) == want
    assert exact_calls == [dim]


def test_a_narrow_long_double_takes_the_exact_check(monkeypatch, uncached_table_error, exact_calls):
    monkeypatch.setattr(qstate, "_WIDE", np.float64)
    assert math.isnan(_root_table_error(8))
    for n in (1, 3, 6):
        m = gqft_dense(GqftSpec(toeplitz_phi(n)))
        f = dft_dense(n)
        assert m.defect == _unitarity_defect(m.entries)
        assert f.defect == _unitarity_defect(f.entries)
    assert exact_calls == [2, 2, 8, 8, 64, 64]


def test_real_phi_row_tables_and_the_numeric_defect_keep_the_exact_check(exact_calls):
    # Rotation cascades are certified from their factor table instead; see
    # tests/test_rot_formula.py.
    n = 3
    real = PhaseMatrix(n, [[4, 0, 0], [0.5, 4, 0], [1, 2, 4]])
    assert real.residues is None
    gqft_dense(GqftSpec(real))
    assert exact_calls == [8]
    table = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 5.0}
    integral = PhaseMatrix(n, _random_triangular(n, np.random.default_rng(1811)))
    gqft_dense(GqftSpec(integral, row_fns={2: table}))
    assert exact_calls == [8, 8]
    assert numeric_unitarity_defect(integral) <= STATE_TOL
    assert exact_calls == [8, 8, 8]


def test_toeplitz_rows_gathered_bit_reversed_are_dft_dense_bit_for_bit():
    # The identity that lets compare report its formula distance as the
    # swapped circuit's distance to the standard transform.
    for n in range(1, 13):
        rows = [bit_reverse(y, n) for y in range(1 << n)]
        got = gqft_dense(GqftSpec(toeplitz_phi(n))).entries[rows]
        want = dft_dense(n).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
