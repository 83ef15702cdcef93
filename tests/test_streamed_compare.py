"""compare holds formula against circuit one column chunk at a time.

The streamed distance must equal max |C - F| over the whole matrices bit for
bit, whichever reader the formula has: the root table's, the float
exponents', or a rotation cascade's factor table's.  Where a bound derived
from the circuit's gates cannot vouch for a matrix, the exact check must
refuse it with the message the exact check alone gives.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    GqftSpec,
    NotUnitaryError,
    PhaseMatrix,
    circuit_to_dense,
    gqft_circuit,
    gqft_dense,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
    toeplitz_phi,
)
from gqt import gqft as gqft_mod
from gqt import qstate, rotft
from gqt.cli import main as cli_main
from gqt.gqft import _formula_columns
from gqt.qstate import _circuit_distance, _unitarity_defect
from _oracles import (
    one_block_circuit_dense,
    random_rot_spec,
    random_triangular_phi,
    zero_lower_phi,
)


def _integral_triangular(n: int, rng: np.random.Generator) -> PhaseMatrix:
    dim = 1 << n
    phi = np.triu(dim * rng.integers(-1, 2, size=(n, n)), 1)
    phi += np.tril(rng.integers(-2 * dim, 2 * dim, size=(n, n)), -1)
    np.fill_diagonal(phi, dim // 2)
    return PhaseMatrix(n, phi)


def _cases(n: int, rng: np.random.Generator):
    """(name, circuit, whole formula matrix, formula for ``_circuit_distance``)."""
    specs = {
        "toeplitz": GqftSpec(toeplitz_phi(n)),
        "triangular": GqftSpec(_integral_triangular(n, rng)),
        "real": GqftSpec(random_triangular_phi(n, rng)),
    }
    for name, spec in specs.items():
        yield name, gqft_circuit(spec), gqft_dense(spec).entries, _formula_columns(spec)
    for variant, dense_fn, circuit_fn in (
        (HADAMARD_FIRST, rot1_dense, rot1_circuit),
        (ROTATION_FIRST, rot2_dense, rot2_circuit),
    ):
        spec = random_rot_spec(n, variant, rng)
        yield variant, circuit_fn(spec), dense_fn(spec).entries, rotft._cascade_columns(spec)


def _one_shot(c, formula_entries: np.ndarray) -> float:
    return float(np.max(np.abs(circuit_to_dense(c).entries - formula_entries)))


@pytest.mark.parametrize("n", range(1, 11))
def test_streamed_distance_equals_the_one_shot_max(n):
    # From n = 9 on a 1 MiB chunk holds fewer than 2^n columns.
    rng = np.random.default_rng(2600 + n)
    for name, c, entries, formula in _cases(n, rng):
        assert _circuit_distance(c, formula) == _one_shot(c, entries), (name, n)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_small_chunks_hold_column_bits_and_keep_the_distance(monkeypatch, width):
    # A growing circuit takes the budget down to a power of two and holds
    # every column bit above it; a kernel-run one may end on a ragged chunk.
    for n in range(3, 7):
        rng = np.random.default_rng(2700 + 10 * width + n)
        monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * width)
        for name, c, entries, formula in _cases(n, rng):
            assert _circuit_distance(c, formula) == _one_shot(c, entries), (name, n)


def test_integral_phi_is_read_off_the_table_with_no_dense_build(monkeypatch):
    def refused(spec):
        raise AssertionError("gqft_dense called")

    rng = np.random.default_rng(2750)
    specs = [GqftSpec(toeplitz_phi(9)), GqftSpec(_integral_triangular(9, rng))]
    want = [_one_shot(gqft_circuit(s), gqft_dense(s).entries) for s in specs]
    monkeypatch.setattr(gqft_mod, "gqft_dense", refused)
    got = [_circuit_distance(gqft_circuit(s), _formula_columns(s)) for s in specs]
    assert got == want


@pytest.mark.parametrize("budget", [None, 2])
def test_zero_phase_cells_keep_the_one_shot_distance_and_the_kernel_bits(monkeypatch, budget):
    # Growth may leave a -0 where the kernel has +0, which no distance sees;
    # circuit_to_dense runs the kernel and keeps its bits.
    rng = np.random.default_rng(2800 + (budget or 0))
    circuits = []
    for n in range(2, 10):
        if budget is not None:
            monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * budget)
        spec = GqftSpec(zero_lower_phi(n, rng))
        c = gqft_circuit(spec)
        want = float(np.max(np.abs(one_block_circuit_dense(c) - gqft_dense(spec).entries)))
        assert _circuit_distance(c, _formula_columns(spec)) == want, n
        circuits.append(c)
    for c in circuits:
        if budget is not None:
            monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << c.n) * budget)
        got = circuit_to_dense(c).entries
        assert np.array_equal(got.view(np.uint64), one_block_circuit_dense(c).view(np.uint64))


def test_a_nan_certificate_builds_the_formula_with_its_exact_check(
    monkeypatch, uncached_table_error, exact_calls
):
    # compare certifies from the circuit's gates and reads no root-table
    # certificate, so its distances stand with no exact check; gqft_dense,
    # which does read it, takes the exact check instead.
    n = 6
    specs = [GqftSpec(toeplitz_phi(n)), GqftSpec(zero_lower_phi(n, np.random.default_rng(2900)))]
    want = [_circuit_distance(gqft_circuit(s), _formula_columns(s)) for s in specs]
    monkeypatch.setattr(qstate, "_WIDE", np.float64)
    qstate._root_table_error.cache_clear()
    got = [_circuit_distance(gqft_circuit(s), _formula_columns(s)) for s in specs]
    assert got == want
    assert exact_calls == []
    for s in specs:
        gqft_dense(s)
    assert exact_calls == [1 << n, 1 << n]  # each formula once, no circuit


def test_a_certificate_above_tolerance_refuses_as_the_exact_check_does(
    monkeypatch, uncached_table_error, exact_calls
):
    # Roots 1e-9 too long: the formula's distance to the circuit puts its
    # derived bound above STATE_TOL, so its columns are gathered and the
    # exact check refuses them with its own message, as it refuses
    # gqft_dense, whose root-table certificate is above STATE_TOL too.
    n = 5
    table = qstate._root_table(1 << n) * (1 + 1e-9)
    monkeypatch.setattr(qstate, "_root_table", lambda dim: table.copy())
    spec = GqftSpec(toeplitz_phi(n))
    bits = qstate.bit_table(n)
    exponent = (bits @ spec.pm.phi @ bits.T).astype(np.int64) & ((1 << n) - 1)
    want = f"matrix deviates from unitarity by {_unitarity_defect(table[exponent]):.3e}"
    with pytest.raises(NotUnitaryError) as raised:
        _circuit_distance(gqft_circuit(spec), _formula_columns(spec))
    assert str(raised.value) == want
    assert exact_calls == [1 << n]
    with pytest.raises(NotUnitaryError) as raised:
        gqft_dense(spec)
    assert str(raised.value) == want
    assert exact_calls == [1 << n, 1 << n]


@pytest.mark.parametrize("shift", [1e-10, 1e-6, complex(float("nan"), 0.0)])
def test_a_circuit_the_bound_cannot_vouch_for_takes_the_exact_check(
    monkeypatch, exact_calls, shift
):
    # One entry of one chunk of four is shifted.  The gate bound cannot see
    # that, but the distance does: the formula's derived bound fails, and
    # the formula takes its exact check, which passes.  With the gate bound
    # NaN, the circuit's chunks take the exact check too: it passes at
    # 1e-10 and refuses the rest with the message of the exact check alone.
    n = 6
    dim = 1 << n
    monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * dim * 16)
    spec = GqftSpec(toeplitz_phi(n))
    c = gqft_circuit(spec)
    grow = qstate._grow_chunk
    hit = []

    def shifted(plan, chunk, spare, j):
        grow(plan, chunk, spare, j)
        if j == 32:
            chunk[5, 0] += shift
            hit.append(j)

    monkeypatch.setattr(qstate, "_grow_chunk", shifted)
    want = one_block_circuit_dense(c)
    want[5, 32] += shift
    diff = np.max(np.abs(want - gqft_dense(spec).entries))
    exact_calls.clear()
    got = _circuit_distance(c, _formula_columns(spec))
    assert got == diff or (np.isnan(got) and np.isnan(diff))
    assert exact_calls == [dim]  # the formula's, once
    exact_calls.clear()
    monkeypatch.setattr(qstate, "_gate_bound", lambda c: float("nan"))
    try:
        got, refusal = _circuit_distance(c, _formula_columns(spec)), None
    except NotUnitaryError as exc:
        refusal = str(exc)
    assert hit == [32, 32, 32]  # the distance, then the circuit's exact check
    assert (_unitarity_defect(want) <= 1e-9) == (shift == 1e-10)
    if shift == 1e-10:
        assert refusal is None
        assert got == diff
    else:
        assert refusal == f"matrix deviates from unitarity by {_unitarity_defect(want):.3e}"
    assert exact_calls == [dim, dim]  # the formula's, then the circuit's


def test_toeplitz_real_and_rot_compares_take_no_certificate_or_exact_check(
    tmp_path, monkeypatch, exact_calls
):
    # Both matrices are certified from the circuit's gates: no compare reads
    # the root table's or a factor table's certificate.
    calls = []
    for module, name in ((qstate, "_root_table_error"), (rotft, "_cascade_error")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, f=original, k=name: calls.append(k) or f(*a)
        )
    n = 8
    rng = np.random.default_rng(3000)
    paths = []
    for name, pm in (("toeplitz", toeplitz_phi(n)), ("real", random_triangular_phi(n, rng))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(pm.to_json_dict()))
    for variant in (HADAMARD_FIRST, ROTATION_FIRST):
        spec = random_rot_spec(n, variant, rng)
        data = {
            "n": n,
            "variant": variant,
            "theta": [{"i": i, "j": j, "t0": a, "t1": b} for (i, j), (a, b) in spec.thetas.items()],
        }
        if spec.alpha0 is not None:
            data["alpha0"] = list(spec.alpha0)
        paths.append(tmp_path / f"{variant}.json")
        paths[-1].write_text(json.dumps(data))
    for path in paths:
        code, report = _compare(path)
        assert code == 0 and report["pass"] is True, path.name
    assert calls == [] and exact_calls == []


def _compare(spec_path) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["compare", "--spec", str(spec_path)])
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())


def test_compare_reports_the_one_shot_distance(tmp_path):
    n = 9
    spec = GqftSpec(toeplitz_phi(n))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec.pm.to_json_dict()))
    code, report = _compare(path)
    assert code == 0
    assert report["max_abs_diff"] == _one_shot(gqft_circuit(spec), gqft_dense(spec).entries)


def test_a_warm_toeplitz_compare_at_n12_allocates_a_few_chunks(tmp_path, monkeypatch):
    # The whole matrices take 256 MiB each.  The workspace, the chunk
    # (1 MiB), ``spare`` (0.5 MiB) and ``quarter`` (0.25 MiB), is allocated
    # by the first compare; the warm one must allocate no chunk or half
    # chunk.  A real phi's reader allocates its float exponents and their
    # roots per chunk, 2.8 MiB at its peak as measured, and builds no matrix.
    monkeypatch.delenv("GQT_DENSE_CAP", raising=False)
    real = random_triangular_phi(12, np.random.default_rng(2950))
    for pm, most in ((toeplitz_phi(12), 3 << 18), (real, 4 << 20)):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(pm.to_json_dict()))
        first = _compare(path)
        tracemalloc.start()
        try:
            again = _compare(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == again and first[0] == 0
        assert peak < most
