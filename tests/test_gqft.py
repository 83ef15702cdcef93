"""Phase-matrix Fourier transforms: dense formula, circuits, special cases."""

import io
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt import (
    GENERAL,
    TRIANGULAR,
    CapExceededError,
    Controlled,
    GqftSpec,
    InputError,
    PhaseMatrix,
    Swap,
    UnsupportedRegimeError,
    ValidityError,
    bit_reverse,
    circuit_to_dense,
    dft_circuit,
    dft_dense,
    gqft_circuit,
    gqft_dense,
    phase_dense_raw,
    toeplitz_phi,
)
from gqt import qstate
from gqt.cli import main as cli_main
from gqt.phasemat import check_general, check_triangular

from _oracles import brute_dft, brute_phase_transform, random_triangular_phi

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def h_tensor(n: int) -> np.ndarray:
    m = np.eye(1, dtype=np.complex128)
    for _ in range(n):
        m = np.kron(m, H)
    return m


def two_qubit_family(a: float) -> np.ndarray:
    """The 4x4 transform with lower-left phase exponent a, frozen by hand."""
    w = np.exp(2j * np.pi * a / 4)
    return 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, w, -1, -w],
            [1, -w, -1, w],
        ],
        dtype=np.complex128,
    )


def test_smallest_case_is_hadamard():
    spec = GqftSpec(PhaseMatrix(1, [[1.0]]))
    np.testing.assert_allclose(gqft_dense(spec).entries, H, atol=1e-15)
    circ = gqft_circuit(spec)
    assert circ.gate_count == 1 and circ.gates[0].controls == ()


def test_two_qubit_golden_family():
    for a in (0.0, 1.0, 2.0, 3.0, 0.5):
        spec = GqftSpec(PhaseMatrix(2, [[2.0, 0.0], [a, 2.0]]))
        got = gqft_dense(spec).entries
        np.testing.assert_allclose(got, two_qubit_family(a), atol=1e-12)


def test_dense_matches_brute_force_formula():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        pm = random_triangular_phi(n, rng)
        got = gqft_dense(GqftSpec(pm)).entries
        np.testing.assert_allclose(got, brute_phase_transform(pm.phi, n), atol=1e-11)


def test_all_entries_have_flat_magnitude():
    rng = np.random.default_rng(32)
    for n in (2, 3, 5):
        spec = GqftSpec(random_triangular_phi(n, rng))
        mags = np.abs(gqft_dense(spec).entries)
        np.testing.assert_allclose(mags, 1 / np.sqrt(1 << n), atol=1e-12)


def test_scaled_identity_gives_hadamard_tensor_power():
    for n in range(1, 7):
        pm = PhaseMatrix(n, np.eye(n) * (1 << (n - 1)))
        got = gqft_dense(GqftSpec(pm)).entries
        np.testing.assert_allclose(got, h_tensor(n), atol=1e-12)


def test_invalid_matrix_raises_with_report():
    with pytest.raises(ValidityError) as err:
        GqftSpec(PhaseMatrix(2, [[1.0, 0.0], [0.0, 2.0]]))
    assert err.value.report.witness_cell == (0, 0)
    with pytest.raises(ValidityError):
        GqftSpec(PhaseMatrix(2, np.zeros((2, 2))), regime=GENERAL)


def test_general_regime_builds_dense_but_not_circuits():
    # valid under the signed criterion, not triangular
    pm = PhaseMatrix(2, [[2.0, 1.0], [0.0, 2.0]])
    assert not pm.phi[0, 1] % 4 == 0
    spec = GqftSpec.from_phase_matrix(pm)
    assert spec.regime == GENERAL
    dense = gqft_dense(spec)
    np.testing.assert_allclose(dense.entries, brute_phase_transform(pm.phi, 2), atol=1e-12)
    with pytest.raises(UnsupportedRegimeError):
        gqft_circuit(spec)
    with pytest.raises(UnsupportedRegimeError):
        GqftSpec(pm, regime=GENERAL, row_fns={1: {(1,): 1.0}})


def test_circuit_structure_two_qubits():
    spec = GqftSpec(PhaseMatrix(2, [[2.0, 0.0], [1.5, 2.0]]))
    circ = gqft_circuit(spec)
    # wire 1 first: H then its controlled phase from wire 0, then H on wire 0
    assert [len(g.controls) for g in circ.gates] == [0, 1, 0]
    assert circ.gates[0].target == 1
    assert circ.gates[1].controls == ((0, 1),)
    assert circ.gates[2].target == 0


def test_circuit_matches_dense_on_random_specs():
    rng = np.random.default_rng(33)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            spec = GqftSpec(random_triangular_phi(n, rng))
            dense = gqft_dense(spec).entries
            lifted = circuit_to_dense(gqft_circuit(spec)).entries
            np.testing.assert_allclose(lifted, dense, atol=1e-9)


def test_gate_count_is_exactly_triangular_number():
    rng = np.random.default_rng(34)
    for n in (1, 2, 4, 6):
        circ = gqft_circuit(GqftSpec(random_triangular_phi(n, rng)))
        assert circ.gate_count == n + n * (n - 1) // 2
        assert circ.gate_count <= n * (n + 1) // 2 + 2 * n


def test_toeplitz_layout():
    np.testing.assert_array_equal(toeplitz_phi(1).phi, [[1.0]])
    np.testing.assert_array_equal(toeplitz_phi(2).phi, [[2.0, 4.0], [1.0, 2.0]])
    pm = toeplitz_phi(4)
    for i in range(4):
        for j in range(4):
            assert pm.phi[i, j] == 2.0 ** (4 - 1 - i + j)


def test_toeplitz_rows_are_bit_reversed_dft_rows():
    for n in range(1, 7):
        g = gqft_dense(GqftSpec(toeplitz_phi(n))).entries
        f = dft_dense(n).entries
        for y in range(1 << n):
            np.testing.assert_allclose(g[y], f[bit_reverse(y, n)], atol=1e-10)


def test_dft_dense_small_goldens_and_oracle():
    np.testing.assert_allclose(dft_dense(1).entries, H, atol=1e-15)
    f4 = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
    )
    np.testing.assert_allclose(dft_dense(2).entries, f4, atol=1e-15)
    for n in (3, 5):
        np.testing.assert_allclose(dft_dense(n).entries, brute_dft(n), atol=1e-11)


def test_dft_circuit_equals_dft_dense():
    for n in (1, 2, 3, 4):
        circ = dft_circuit(n)
        swaps = [g for g in circ.gates if isinstance(g, Swap)]
        assert len(swaps) == n // 2
        lifted = circuit_to_dense(circ).entries
        np.testing.assert_allclose(lifted, dft_dense(n).entries, atol=1e-10)


def dft_phi(n: int) -> PhaseMatrix:
    """phi[i][j] = 2^(i+j): y . phi . x = y * x, so its transform is the DFT."""
    i = np.arange(n)
    return PhaseMatrix(n, 2.0 ** (i[:, None] + i))


def test_dft_phase_matrix_passes_only_the_general_criterion():
    for n in range(1, 13):
        assert check_general(dft_phi(n)).valid
        assert check_triangular(dft_phi(n)).valid is (n == 1)


def test_dft_phase_matrix_transform_is_dft_dense_bit_for_bit(monkeypatch):
    calls = []
    exact = qstate._unitarity_defect
    monkeypatch.setattr(qstate, "_unitarity_defect", lambda m: calls.append(m) or exact(m))
    for n in range(1, 11):
        got = gqft_dense(GqftSpec(dft_phi(n), GENERAL)).entries
        np.testing.assert_array_equal(got.view(np.uint64), dft_dense(n).entries.view(np.uint64))
    assert calls == []


def test_dft_dense_checks_the_cap_before_building_phi(monkeypatch):
    # phi's entries 2.0 ** (i + j) overflow float64 from n = 513.
    monkeypatch.delenv("GQT_DENSE_CAP", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapExceededError, match="^n=600 exceeds dense cap 12$"):
            dft_dense(600)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["matrix", "--kind", "dft", "--n", "600"])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().endswith("n=600 exceeds dense cap 12\n")


def cell_table_transform(phi, i, j, f0, f1) -> np.ndarray:
    """Brute force: the table x_j -> (f0, f1) in function form on cell (i, j),
    the other cells linear, with the output phase w^(y_i * f0) divided out."""
    n = len(phi)
    dim = 1 << n
    m = np.empty((dim, dim), dtype=np.complex128)
    for y in range(dim):
        yb = [(y >> q) & 1 for q in range(n)]
        for x in range(dim):
            xb = [(x >> q) & 1 for q in range(n)]
            e = 0.0
            for r in range(n):
                cells = [phi[r][c] * xb[c] for c in range(n) if (r, c) != (i, j)]
                table = f0 + (f1 - f0) * xb[j] if r == i else 0.0
                e += yb[r] * (sum(cells) + table)
            m[y, x] = np.exp(2j * np.pi * (e - yb[i] * f0) / dim) / np.sqrt(dim)
    return m


def test_cell_table_replaces_linear_term():
    # A one-bit table x0 -> (0.3, 2.1) on cell (1, 0) is the phi entry 2.1-0.3.
    f0, f1 = 0.3, 2.1
    expected = cell_table_transform([[2.0, 0.0], [1.0, 2.0]], 1, 0, f0, f1)
    spec = GqftSpec(PhaseMatrix(2, [[2.0, 0.0], [f1 - f0, 2.0]]))
    np.testing.assert_allclose(gqft_dense(spec).entries, expected, atol=1e-12)
    lifted = circuit_to_dense(gqft_circuit(spec)).entries
    np.testing.assert_allclose(lifted, expected, atol=1e-12)


def test_cell_table_zero_basing_is_observable():
    # Only f1 - f0 survives the division by w^(y_i * f0): (0.7, 1.9) and
    # (0, 1.2) on cell (2, 0) of a 3-wire matrix both give phi[2][0] = 1.2.
    pm = random_triangular_phi(3, np.random.default_rng(38))
    phi = pm.phi.copy()
    phi[2, 0] = 1.9 - 0.7
    spec = GqftSpec(PhaseMatrix(3, phi))
    dense = gqft_dense(spec).entries
    lifted = circuit_to_dense(gqft_circuit(spec)).entries
    for f0, f1 in ((0.7, 1.9), (0.0, 1.2)):
        expected = cell_table_transform(pm.phi, 2, 0, f0, f1)
        np.testing.assert_allclose(dense, expected, atol=1e-11)
        np.testing.assert_allclose(lifted, expected, atol=1e-11)


def test_row_table_full_prefix_control():
    # wire 2's exponent depends on the joint prefix (x0, x1) by lookup
    pm = random_triangular_phi(3, np.random.default_rng(35))
    table = {
        (0, 0): 0.0,
        (1, 0): 1.3,
        (0, 1): 2.6,
        (1, 1): 0.9,
    }
    spec = GqftSpec(pm, row_fns={2: table})
    n, dim = 3, 8
    expected = np.empty((dim, dim), dtype=np.complex128)
    for y in range(dim):
        yb = [(y >> q) & 1 for q in range(n)]
        for x in range(dim):
            xb = [(x >> q) & 1 for q in range(n)]
            w0 = pm.phi[0, 0] * xb[0]
            w1 = pm.phi[1, 0] * xb[0] + pm.phi[1, 1] * xb[1]
            w2 = pm.phi[2, 2] * xb[2] + table[(xb[0], xb[1])]
            e = yb[0] * w0 + yb[1] * w1 + yb[2] * w2
            expected[y, x] = np.exp(2j * np.pi * (e % dim) / dim) / np.sqrt(dim)
    np.testing.assert_allclose(gqft_dense(spec).entries, expected, atol=1e-11)
    lifted = circuit_to_dense(gqft_circuit(spec)).entries
    np.testing.assert_allclose(lifted, expected, atol=1e-11)


def test_row_table_support_cap():
    # support counts only nonzero (normalized) patterns and is capped at n
    pm = random_triangular_phi(3, np.random.default_rng(36))
    table = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0}
    GqftSpec(pm, row_fns={2: table})
    pm4 = random_triangular_phi(4, np.random.default_rng(36))
    wide = {tuple((k >> b) & 1 for b in range(3)): float(k) for k in range(8)}
    with pytest.raises(CapExceededError):
        GqftSpec(pm4, row_fns={3: wide})


def test_fn_validation_errors():
    pm = random_triangular_phi(3, np.random.default_rng(37))
    with pytest.raises(InputError):
        GqftSpec(pm, row_fns={0: {(): 1.0}})  # wire 0 has no prefix
    with pytest.raises(InputError):
        GqftSpec(pm, row_fns={2: {(1,): 1.0}})  # wrong prefix length


@pytest.mark.parametrize(
    "row_fns, message",
    [
        ({2.7: {(0, 1): 3.0}}, "spec field 'row table index' must be an integer, got 2.7"),
        ({2: {(0.6, 1): 3.0}}, "spec field 'prefix bit' must be an integer, got 0.6"),
        ({2: {(True, 0): 1.0}}, "spec field 'prefix bit' must be an integer, got True"),
    ],
    ids=["index-fraction", "bit-fraction", "bit-bool"],
)
def test_row_table_index_and_prefix_bits_take_the_one_integer_rule(row_fns, message):
    # Rounded, {2.7: {(0.6, 1.2): 3.0, (True, 0): 1.0}} would be stored as
    # {2: {(0, 1): 3.0, (1, 0): 1.0}}, a table the caller never wrote.
    with pytest.raises(InputError) as exc:
        GqftSpec(toeplitz_phi(3), row_fns=row_fns)
    assert str(exc.value) == message


def test_row_table_whole_number_floats_still_read_as_integers():
    spec = GqftSpec(toeplitz_phi(3), row_fns={2.0: {(0.0, 1.0): 3.0, (1, 0): 1.0}})
    assert spec.row_fns == {2: {(0, 1): 3.0, (1, 0): 1.0}}
    assert all(type(i) is int for i in spec.row_fns)
    assert all(type(b) is int for p in spec.row_fns[2] for b in p)


def test_dense_cap_enforced():
    with pytest.raises(CapExceededError):
        gqft_dense(GqftSpec(toeplitz_phi(13)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_triangular_specs_build_unitaries_matching_circuits(n, seed):
    rng = np.random.default_rng(seed)
    pm = random_triangular_phi(n, rng)
    spec = GqftSpec(pm)
    dense = gqft_dense(spec).entries  # DenseUnitary construction checks unitarity
    lifted = circuit_to_dense(gqft_circuit(spec)).entries
    assert np.max(np.abs(lifted - dense)) < 1e-9


@pytest.mark.parametrize("build", ["gqft_dense", "phase_dense_raw", "dft_dense"])
def test_integral_dense_builds_hold_only_the_result_and_one_index_array(build):
    # At n=10 the result takes 16 MiB and the int64 exponents 8 MiB.  A float
    # exponent, its int64 copy and the masked index took 32 MiB or more.
    n = 10
    spec = GqftSpec(toeplitz_phi(n))
    run = {
        "gqft_dense": lambda: gqft_dense(spec).entries,
        "phase_dense_raw": lambda: phase_dense_raw(spec.pm),
        "dft_dense": lambda: dft_dense(n).entries,
    }[build]
    tracemalloc.start()
    try:
        m = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.nbytes == 16 << 20
    assert peak <= 25 << 20
