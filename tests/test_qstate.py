"""Simulator core: states, gates, circuits, dense lifting, measurement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    Circuit,
    Controlled,
    DenseUnitary,
    DhspInstance,
    GqftSpec,
    HaarMatrix,
    InputError,
    NotUnitaryError,
    PhaseMatrix,
    QState,
    Swap,
    apply_circuit,
    apply_dense,
    apply_gate,
    bit_reverse,
    circuit_to_dense,
    coset_state,
    dft_circuit,
    dft_dense,
    gqft_circuit,
    gqft_dense,
    haar_apply_basis,
    haar_inverse_apply,
    haar_inverse_circuit,
    haar_matrix,
    measure_all,
    phase_dense_raw,
    rot1_circuit,
    rot2_circuit,
    samples_random,
    toeplitz_phi,
    unit_roots,
)

from gqt.qstate import _gate_defect, _grow_chunk, _growth_plan, _is_phase, _unitarity_defect

from _oracles import (
    _run_in_place,
    circuit_dense_kron,
    direct_coset_amps,
    direct_dft_dense,
    direct_gqft_dense,
    direct_phase_dense_raw,
    fancy_index_circuit,
    full_unitarity_defect,
    gate_dense_kron,
    random_circuit,
    random_gate,
    random_rot_spec,
    random_state,
    random_triangular_phi,
    random_unitary2,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def test_bit_reverse_small_values():
    assert bit_reverse(0, 3) == 0
    assert bit_reverse(1, 3) == 4
    assert bit_reverse(6, 3) == 3
    assert bit_reverse(5, 3) == 5


def test_bit_reverse_is_an_involution():
    for n in range(1, 7):
        for k in range(1 << n):
            assert bit_reverse(bit_reverse(k, n), n) == k


@pytest.mark.parametrize(
    "fn, args",
    [
        (haar_inverse_apply, (-1, 0)),
        (haar_apply_basis, (-1, ())),
        (QState.basis, (-1, 0)),
        (bit_reverse, (0, -1)),
    ],
    ids=["haar_inverse_apply", "haar_apply_basis", "QState.basis", "bit_reverse"],
)
def test_entry_points_reject_negative_n(fn, args):
    with pytest.raises(InputError):  # not ValueError from a negative shift
        fn(*args)


def test_basis_state_has_single_amplitude():
    s = QState.basis(3, 5)
    expected = np.zeros(8)
    expected[5] = 1.0
    np.testing.assert_allclose(s.amps, expected)
    np.testing.assert_allclose(s.probabilities(), expected)


def test_state_rejects_wrong_norm_and_shape():
    with pytest.raises(InputError):
        QState(2, np.ones(4, dtype=np.complex128))
    with pytest.raises(InputError):
        QState(2, np.zeros(3, dtype=np.complex128))
    with pytest.raises(InputError):
        QState.basis(2, 4)


def test_state_amps_are_read_only():
    s = QState.basis(2, 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_single_qubit_gate_matches_kron_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        for _ in range(10):
            g = Controlled((), int(rng.integers(0, n)), random_unitary2(rng))
            v = random_state(n, rng)
            got = apply_gate(QState(n, v), g).amps
            np.testing.assert_allclose(got, gate_dense_kron(g, n) @ v, atol=1e-12)


def test_controlled_gate_matches_kron_oracle():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        for _ in range(15):
            g = random_gate(n, rng)
            v = random_state(n, rng)
            got = apply_gate(QState(n, v), g).amps
            np.testing.assert_allclose(got, gate_dense_kron(g, n) @ v, atol=1e-12)


def test_control_on_zero_branch_fires_only_when_bit_clear():
    g = Controlled(((0, 0),), 1, X)
    np.testing.assert_allclose(apply_gate(QState.basis(2, 0), g).amps, QState.basis(2, 2).amps, atol=1e-15)
    np.testing.assert_allclose(apply_gate(QState.basis(2, 1), g).amps, QState.basis(2, 1).amps, atol=1e-15)


def test_swap_exchanges_qubit_weights():
    # |q1 q0> = |01> --swap(0,1)--> |10>
    out = apply_gate(QState.basis(2, 1), Swap(0, 1))
    np.testing.assert_allclose(out.amps, QState.basis(2, 2).amps)
    rng = np.random.default_rng(9)
    v = random_state(4, rng)
    twice = apply_gate(apply_gate(QState(4, v), Swap(1, 3)), Swap(3, 1))
    np.testing.assert_allclose(twice.amps, v, atol=1e-12)


def test_gate_defect_matches_dense_defect():
    # The per-gate check reads max |U^dagger U - I| off the four entries; it
    # must agree with the dense helper on unitary and non-unitary matrices.
    rng = np.random.default_rng(15)
    for k in range(600):
        u = random_unitary2(rng)
        if k % 3 == 1:  # near-unitary, defects from about 1e-13 to 1e-2
            u = u + 10.0 ** -rng.uniform(2, 13) * rng.normal(size=(2, 2))
        elif k % 3 == 2:  # far from unitary
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        want = _unitarity_defect(u)
        assert abs(_gate_defect(u) - want) <= 1e-15 + 1e-14 * want
        if k % 3 == 0:  # a gate keeps the defect its check computed
            assert Controlled((), 0, u).defect == _gate_defect(u)


def test_gate_validation_rejects_malformed_inputs():
    with pytest.raises(NotUnitaryError):
        Controlled((), 0, np.array([[1, 1], [0, 1]], dtype=np.complex128))
    with pytest.raises(InputError):
        Controlled(((1, 2),), 0, X)  # control bit must be 0/1
    with pytest.raises(InputError):
        Controlled(((0, 1),), 0, X)  # target collides with control
    with pytest.raises(InputError):
        Controlled(((0, 1), (0, 0)), 1, X)  # duplicate control qubit
    with pytest.raises(InputError):
        Swap(2, 2)
    with pytest.raises(InputError):
        Circuit(2, (Controlled((), 2, X),))  # target out of range
    with pytest.raises(InputError):
        Circuit(2, (Swap(-1, 0),))  # negative qubit


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Controlled(((0.6, 1.2),), 1, X), "'control qubit' .* got 0.6"),
        (lambda: Controlled(((0, 1.2),), 1, X), "'control bit' .* got 1.2"),
        (lambda: Controlled(((0, True),), 1, X), "'control bit' .* got True"),
        (lambda: Controlled((), 1.5, X), "'target' .* got 1.5"),
        (lambda: Controlled((), "1", X), "'target' .* got '1'"),
        (lambda: Swap(0.5, 1), "'a' must be an integer, got 0.5"),
        (lambda: Swap(0, 1.5), "'b' must be an integer, got 1.5"),
    ],
    ids=["control-qubit", "control-bit", "control-bool", "target", "target-str",
         "swap-a", "swap-b"],
)
def test_fractional_qubit_indices_are_refused_not_rounded(make, message):
    # int() would have read Controlled(((0.6, 1.2),), 1, X) as controls ((0, 1),),
    # and a fractional target or swap qubit passed the circuit's range check.
    with pytest.raises(InputError, match=message):
        make()


def test_whole_number_qubit_indices_are_stored_as_ints():
    g = Controlled(((np.int64(0), 1.0),), 1.0, X)
    assert g.controls == ((0, 1),) and g.target == 1
    assert all(type(v) is int for v in (*g.controls[0], g.target))
    s = Swap(np.int32(2), 0.0)
    assert (s.a, s.b) == (2, 0) and type(s.a) is int and type(s.b) is int
    # An integral float index runs as its integer through the kernel.
    got = apply_gate(QState.basis(2, 0), Controlled((), 1.0, X))
    np.testing.assert_array_equal(got.amps, QState.basis(2, 2).amps)


def test_circuit_application_matches_matrix_product_oracle():
    rng = np.random.default_rng(10)
    for n in (2, 3, 4):
        c = random_circuit(n, rng, length=12)
        v = random_state(n, rng)
        got = apply_circuit(QState(n, v), c).amps
        np.testing.assert_allclose(got, circuit_dense_kron(c) @ v, atol=1e-11)


def test_circuit_to_dense_matches_kron_oracle_and_applies():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        c = random_circuit(n, rng, length=8)
        dense = circuit_to_dense(c)
        np.testing.assert_allclose(dense.entries, circuit_dense_kron(c), atol=1e-11)
        v = random_state(n, rng)
        via_dense = apply_dense(QState(n, v), dense).amps
        via_gates = apply_circuit(QState(n, v), c).amps
        np.testing.assert_allclose(via_dense, via_gates, atol=1e-11)


def library_circuits(n: int, rng: np.random.Generator) -> list[Circuit]:
    """One circuit of every family the library synthesises, at width n."""
    pm = random_triangular_phi(n, rng)
    circuits = [
        gqft_circuit(GqftSpec(pm)),
        dft_circuit(n),  # ends in swaps
        rot1_circuit(random_rot_spec(n, HADAMARD_FIRST, rng)),
        rot2_circuit(random_rot_spec(n, ROTATION_FIRST, rng)),
        random_circuit(n, rng, length=3 * n),
    ]
    circuits += [haar_inverse_circuit(n, i) for i in range(n)]
    if n >= 2:
        # A row table turns each prefix into one gate controlled on every lower
        # wire, with 0-bit controls wherever the prefix holds a 0.
        wire = n - 1
        table = {
            tuple(int(b) for b in rng.integers(0, 2, size=wire)): float(
                rng.uniform(0, 1 << n)
            )
            for _ in range(n)
        }
        circuits.append(gqft_circuit(GqftSpec(pm, row_fns={wire: table})))
    return circuits


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_is_bit_identical_to_fancy_index_reference(n):
    rng = np.random.default_rng(100 + n)
    circuits = library_circuits(n, rng)
    for c in circuits:
        dense = circuit_to_dense(c).entries
        want = fancy_index_circuit(c, np.eye(1 << n, dtype=np.complex128))
        np.testing.assert_array_equal(dense.view(np.uint64), want.view(np.uint64))
        start = QState(n, random_state(n, rng))
        got = apply_circuit(start, c).amps
        want = fancy_index_circuit(c, np.array(start.amps))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    gates = [g for c in circuits for g in c.gates]
    if n >= 3:
        assert any(isinstance(g, Swap) for g in gates)
        assert any(
            isinstance(g, Controlled)
            and len(g.controls) > 1
            and any(b == 0 for _, b in g.controls)
            for g in gates
        )


@pytest.mark.parametrize("n", range(1, 11))
def test_apply_circuit_is_bit_identical_to_the_strided_view_reference(n):
    # The compiled plan on a (2^n, 1) block against each gate run on the
    # slices of a (2,)*n view, compared as uint64 so that the sign of every
    # zero counts.  Transform circuits start from basis states, which hold
    # the most exact zeros; random circuits mix controls on bits 0 and 1,
    # general 2x2 gates, diag(1, u11) gates, whose product alone sets the
    # sign of a zero, and swaps anywhere in the gate list.
    rng = np.random.default_rng(3700 + n)
    transforms = [
        gqft_circuit(GqftSpec(random_triangular_phi(n, rng))),
        dft_circuit(n),
        rot1_circuit(random_rot_spec(n, HADAMARD_FIRST, rng)),
        rot2_circuit(random_rot_spec(n, ROTATION_FIRST, rng)),
    ]
    cases = [(c, QState.basis(n, int(rng.integers(0, 1 << n)))) for c in transforms]
    pick = (random_gate, random_diagonal_gate)
    for _ in range(12):
        c = Circuit(n, tuple(pick[rng.random() < 0.3](n, rng) for _ in range(4 * n)))
        basis = QState.basis(n, int(rng.integers(0, 1 << n)))
        cases += [(c, basis), (c, QState(n, random_state(n, rng)))]
    for c, start in cases:
        want = np.array(start.amps)
        _run_in_place(want, c)
        assert_same_bits(apply_circuit(start, c).amps, want)
    if n >= 2:
        gates = [g for c, _ in cases[len(transforms) :] for g in c.gates[:-1]]
        assert any(isinstance(g, Swap) for g in gates)
        bits = {b for g in gates if isinstance(g, Controlled) for _, b in g.controls}
        assert bits == {0, 1}
        assert {_is_phase(g.u) for g in gates if isinstance(g, Controlled)} == {False, True}


def random_diagonal_gate(n: int, rng: np.random.Generator) -> Controlled:
    """diag(1, e^(i theta)) on a random target under up to two random controls."""
    u = np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))]).astype(np.complex128)
    chosen = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    controls = tuple((int(q), int(rng.integers(0, 2))) for q in chosen[1:])
    return Controlled(controls, int(chosen[0]), u)


def assert_nonzero_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Bit-identical wherever ``want`` has a nonzero part; zero (either sign) elsewhere."""
    got, want = got.view(np.float64), want.view(np.float64)
    nonzero = want != 0
    np.testing.assert_array_equal(
        got[nonzero].view(np.uint64), want[nonzero].view(np.uint64)
    )
    assert np.all(got[~nonzero] == 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_diagonal_gates_keep_every_nonzero_part_of_the_reference(n):
    # The diagonal branch skips the 0*a0 and 0*a1 terms of the full update, so
    # only the sign of an exact zero may differ from the reference kernel.
    rng = np.random.default_rng(200 + n)
    for _ in range(4):
        gates = []
        for _ in range(4 * n):
            gates.append(random_diagonal_gate(n, rng))
            if rng.random() < 0.5:
                gates.append(random_gate(n, rng))
        c = Circuit(n, tuple(gates))
        dense = circuit_to_dense(c).entries
        eye = np.eye(1 << n, dtype=np.complex128)
        assert_nonzero_bits_equal(dense, fancy_index_circuit(c, eye))
        start = QState(n, random_state(n, rng))
        got = apply_circuit(start, c).amps
        assert_nonzero_bits_equal(got, fancy_index_circuit(c, np.array(start.amps)))


def test_diagonal_gate_on_an_exact_zero_keeps_the_product_sign():
    # u11 * (+0) with Re(u11) < 0 is -0.0; the full update added +0 from 0*a0
    # and gave +0.0.  Pinned: a deliberate change of the printed sign of zero.
    u11 = np.exp(3j * np.pi / 4)
    c = Circuit(2, (Controlled((), 1, H), Controlled((), 0, np.diag([1.0, u11]))))
    start = QState.basis(2, 0)
    amps = apply_circuit(start, c).amps
    assert list(np.signbit(amps.real)) == [False, True, False, True]
    assert not np.any(np.signbit(amps.imag))
    assert amps[1] == 0 and amps[3] == 0
    assert_nonzero_bits_equal(amps, fancy_index_circuit(c, np.array(start.amps)))


@pytest.mark.parametrize("target", [0, 7, 15])
def test_diagonal_gate_scales_its_slice_in_place(target):
    # The target-1 slice of 2^16 amplitudes takes 512 KiB.  The product is
    # written where the slice lies: a strided slice may cost NumPy's two
    # iteration buffers of 8192 amplitudes, never a slice-sized product.
    n = 16
    u = np.diag([1.0, np.exp(0.3j)]).astype(np.complex128)
    c = Circuit(n, (Controlled((), target, u),))
    amps = np.full(1 << n, 1.0 / 256, dtype=np.complex128)
    want = fancy_index_circuit(c, amps.copy())
    tracemalloc.start()
    try:
        _grow_chunk(_growth_plan(c, 0, False), amps.reshape(-1, 1), None, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_nonzero_bits_equal(amps, want)
    assert peak < 512 << 10


def random_integral_phi(n: int, rng: np.random.Generator) -> PhaseMatrix:
    """Triangular phi with integral cells: uppers multiples of N, lowers of either sign."""
    dim = 1 << n
    phi = np.triu(dim * rng.integers(-2, 3, size=(n, n)), 1).astype(np.float64)
    phi += np.tril(rng.integers(-3 * dim, 3 * dim, size=(n, n)), -1)
    np.fill_diagonal(phi, dim / 2)
    return PhaseMatrix(n, phi)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 11))
def test_root_table_builders_match_the_direct_formula_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    dim = 1 << n
    integral = random_integral_phi(n, rng)
    fractional = random_triangular_phi(n, rng)  # real lower cells: the direct route
    specs = [GqftSpec(toeplitz_phi(n)), GqftSpec(integral), GqftSpec(fractional)]
    if n >= 2:
        wire = n - 1
        prefixes = {tuple(int(b) for b in rng.integers(0, 2, size=wire)) for _ in range(n)}
        for step in (1.0, 0.25):  # integral table values, then fractional ones
            table = {p: step * float(rng.integers(-dim, dim)) for p in prefixes}
            specs.append(GqftSpec(integral, row_fns={wire: table}))
    for spec in specs:
        assert_same_bits(gqft_dense(spec).entries, direct_gqft_dense(spec))
    general = PhaseMatrix(n, rng.integers(-dim, dim, size=(n, n)))
    for pm in (integral, fractional, general):
        assert_same_bits(phase_dense_raw(pm), direct_phase_dense_raw(pm))
    assert_same_bits(dft_dense(n).entries, direct_dft_dense(n))
    for d in sorted({0, dim - 1, int(rng.integers(dim))}):
        inst = DhspInstance(n, d, samples_random(n, rng))
        assert_same_bits(coset_state(inst).amps, direct_coset_amps(inst))


def test_unit_roots_reads_integers_of_either_sign_and_falls_back_on_fractions():
    dim = 8
    integral = np.array([-17.0, -8.0, -0.0, 0.0, 3.0, 8.0, 63.0])
    want = np.exp(2j * np.pi * np.mod(integral, float(dim)) / dim) / np.sqrt(dim)
    assert_same_bits(unit_roots(integral, dim), want)
    assert_same_bits(unit_roots(integral.astype(np.int64), dim), want)
    mixed = np.array([[1.0, 2.5], [-0.75, 9.0]])
    want = np.exp(2j * np.pi * np.mod(mixed, float(dim)) / dim) / np.sqrt(dim)
    assert_same_bits(unit_roots(mixed, dim), want)
    assert unit_roots(mixed, dim).shape == (2, 2)


def test_unit_roots_refuses_a_root_count_that_is_not_a_power_of_two():
    # The integer branch masks with dim - 1, which reduces mod dim only for
    # dim = 2^n: at dim 6 it read w^1 for the exponent 3.
    for dim in (0, 3, 6, 12):
        for exponent in (np.array([3]), np.array([3.0])):
            with pytest.raises(InputError, match=f"^root count {dim} is not a power of two$"):
                unit_roots(exponent, dim)


def test_apply_circuit_leaves_its_input_unchanged():
    rng = np.random.default_rng(14)
    for n in (1, 3, 6):
        start = QState(n, random_state(n, rng))
        before = start.amps.copy()
        out = apply_circuit(start, random_circuit(n, rng, length=10))
        np.testing.assert_array_equal(start.amps, before)
        assert not start.amps.flags.writeable
        assert not np.shares_memory(out.amps, start.amps)


def test_dense_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        DenseUnitary(1, np.array([[1.0, 0.0], [0.0, 0.5]], dtype=np.complex128))


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def test_block_defect_matches_the_full_product():
    # The block-row check reads the upper block triangle of M^dagger M; it
    # must give the full product's max |M^dagger M - I| up to rounding, on
    # unitary, real orthogonal and perturbed matrices of every size 2..512.
    rng = np.random.default_rng(61)
    eps = np.finfo(np.float64).eps
    for n in range(1, 10):
        dim = 1 << n
        u = _random_unitary(dim, rng)
        cases = [
            u,
            haar_matrix(n).p,
            haar_matrix(n).p.T,
            gqft_dense(GqftSpec(toeplitz_phi(n))).entries,
            u + 1e-7 * rng.normal(size=(dim, dim)),
            u * (1 + 1e-3 * rng.uniform(size=dim)),  # column norms off
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
        ]
        for m in cases:
            scale = float(np.max(np.sum(np.abs(m) ** 2, axis=0)))
            want = full_unitarity_defect(m)
            assert abs(_unitarity_defect(m) - want) <= 4 * dim * eps * scale


def test_block_defect_is_nan_when_any_block_holds_one():
    rng = np.random.default_rng(62)
    for dim in (2, 8, 16):
        u = _random_unitary(dim, rng)
        for r in range(dim):
            for c in range(dim):
                m = u.copy()
                m[r, c] = complex(math.nan, 0.0) if (r + c) % 2 else complex(0.0, math.nan)
                assert math.isnan(_unitarity_defect(m)), (dim, r, c)


def test_dense_unitary_rejects_a_small_perturbation_at_every_entry():
    u = _random_unitary(8, np.random.default_rng(63))
    DenseUnitary(3, u)
    for r in range(8):
        for c in range(8):
            m = u.copy()
            m[r, c] += 1e-6
            with pytest.raises(NotUnitaryError):
                DenseUnitary(3, m)


def test_unitarity_and_norm_checks_fail_closed_on_nan():
    for r in range(2):
        for c in range(2):
            u = np.eye(2, dtype=np.complex128)
            u[r, c] = math.nan
            assert math.isnan(_gate_defect(u))
            with pytest.raises(NotUnitaryError):
                Controlled((), 0, u)
    amps = np.array([1.0, math.nan], dtype=np.complex128)
    with pytest.raises(InputError, match="state norm nan"):
        QState(1, amps)
    entries = np.eye(4, dtype=np.complex128)
    entries[3, 2] = math.nan
    with pytest.raises(NotUnitaryError, match="by nan"):
        DenseUnitary(2, entries)
    hm = haar_matrix(2)
    p = hm.p.copy()
    p[1, 0] = math.nan
    with pytest.raises(InputError, match="orthonormality by nan"):
        HaarMatrix(2, hm.a, p)


def test_block_defect_stays_below_the_size_of_the_matrix():
    # At n=10 the matrix takes 16 MiB; the former full product took 32 MiB
    # (the conjugate transpose and the product).  The block rows hold at
    # most a quarter-size block, its product and that product's magnitude.
    m = dft_dense(10).entries
    tracemalloc.start()
    try:
        dev = _unitarity_defect(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dev < 1e-9
    assert peak < m.nbytes


def test_empty_circuit_is_identity():
    c = Circuit(3, ())
    assert c.gate_count == 0
    np.testing.assert_allclose(circuit_to_dense(c).entries, np.eye(8), atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_random_circuits_preserve_norm(n, seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(n, rng, length=6)
    out = apply_circuit(QState(n, random_state(n, rng)), c)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


def test_measure_all_counts_sum_and_range():
    rng = np.random.default_rng(12)
    state = QState(3, random_state(3, rng))
    hist = measure_all(state, rng_seed=99, shots=4096)
    assert sum(hist.values()) == 4096
    assert all(0 <= k < 8 for k in hist)


def test_measure_all_is_deterministic_per_seed():
    rng = np.random.default_rng(13)
    state = QState(2, random_state(2, rng))
    a = measure_all(state, rng_seed=5, shots=1000)
    b = measure_all(state, rng_seed=5, shots=1000)
    c = measure_all(state, rng_seed=6, shots=1000)
    assert a == b
    assert a != c  # different stream almost surely differs


@pytest.mark.parametrize("shots", [0, -5])
def test_measure_all_rejects_a_shot_count_below_one(shots):
    with pytest.raises(InputError, match=rf"^need shots >= 1, got {shots}$"):
        measure_all(QState.basis(2, 0), rng_seed=1, shots=shots)


def test_measure_all_on_basis_state_is_a_point_mass():
    hist = measure_all(QState.basis(4, 11), rng_seed=3, shots=500)
    assert hist == {11: 500}


def test_measure_all_frequencies_track_probabilities():
    amps = np.sqrt(np.array([0.5, 0.25, 0.125, 0.125], dtype=np.complex128))
    state = QState(2, amps)
    shots = 100_000
    hist = measure_all(state, rng_seed=2024, shots=shots)
    for k, p in enumerate([0.5, 0.25, 0.125, 0.125]):
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(hist.get(k, 0) / shots - p) < 4 * sigma
