"""Transform-circuit matrices grown from the support of each identity column.

A circuit whose mixing gates are uncontrolled and each land on a fresh wire
grows in ``compare``'s column chunks (``_circuit_chunks``, by
``_grow_chunk``).  Those must hold the values of the one-block kernel run,
and for Toeplitz, DFT and random triangular circuits its bits: growth leaves
out the kernel's ``+ u*0`` terms, which can change only the sign of a zero.
``circuit_to_dense`` runs each column chunk from its identity columns,
bit-identical to that run, and grows nothing.
"""

import numpy as np
import pytest

from gqt import (
    HADAMARD,
    Circuit,
    Controlled,
    GqftSpec,
    Swap,
    circuit_to_dense,
    dft_circuit,
    gqft_circuit,
    haar_inverse_circuit,
    toeplitz_phi,
)
from gqt import qstate
from _oracles import (
    one_block_circuit_dense,
    random_triangular_phi,
    random_unitary2,
    zero_lower_phi,
)

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _assert_bit_identical(got: np.ndarray, want: np.ndarray, label) -> None:
    assert got.shape == want.shape, label
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label


def _compare_chunks(c: Circuit) -> np.ndarray:
    """The circuit's matrix as compare's streamed distance sees it."""
    chunks = qstate._circuit_chunks(c, grow=True)
    return np.concatenate([chunk.copy() for _, chunk in chunks], axis=1)


def _row_table_spec(n: int, rng: np.random.Generator) -> GqftSpec:
    """A random triangular spec with a row table on the top wire (n >= 3)."""
    table = {
        tuple(int(b) for b in rng.integers(0, 2, size=n - 1)): float(rng.uniform(0, 1 << n))
        for _ in range(n)
    }
    return GqftSpec(random_triangular_phi(n, rng), row_fns={n - 1: table})


def _phase(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(np.complex128)


def _synthetic_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """A growing circuit with swaps and phase gates before, between and after
    the mixing gates, and any gate once every wire is mixed.

    Mixing gates are Hadamards, random 2x2 unitaries or X (whose zero entries
    make -0 products); phase gates take random targets and 0/1 controls,
    some with u11 = 1.
    """
    mixed = [False] * n
    gates: list = []

    def phase_gate():
        chosen = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
        controls = tuple((int(q), int(rng.integers(0, 2))) for q in chosen[1:])
        theta = 0.0 if rng.random() < 0.2 else float(rng.uniform(0, 2 * np.pi))
        return Controlled(controls, int(chosen[0]), _phase(theta))

    while not all(mixed):
        for _ in range(int(rng.integers(0, 3))):
            if n > 1 and rng.random() < 0.4:
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                gates.append(Swap(a, b))
                mixed[a], mixed[b] = mixed[b], mixed[a]
            else:
                gates.append(phase_gate())
        target = int(rng.choice([q for q in range(n) if not mixed[q]]))
        u = (HADAMARD, random_unitary2(rng), X)[int(rng.integers(0, 3))]
        gates.append(Controlled((), target, u))
        mixed[target] = True
    for _ in range(int(rng.integers(0, 4))):
        if n > 1 and rng.random() < 0.5:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Swap(a, b))
        elif n > 1:
            t, q = (int(v) for v in rng.choice(n, size=2, replace=False))
            gates.append(Controlled(((q, int(rng.integers(0, 2))),), t, random_unitary2(rng)))
        else:
            gates.append(phase_gate())
    c = Circuit(n, tuple(gates))
    assert qstate._growth_plan(c, 0, True) is not None
    return c


@pytest.mark.parametrize("n", range(1, 11))
def test_grown_transform_circuits_are_bit_identical_to_one_block(n):
    # From n = 9 on the chunks are narrower than 2^n: high column bits are
    # held fixed over a chunk.  A row table's zero cells may leave a -0.
    rng = np.random.default_rng(2000 + n)
    circuits = {
        "toeplitz": gqft_circuit(GqftSpec(toeplitz_phi(n))),
        "triangular": gqft_circuit(GqftSpec(random_triangular_phi(n, rng))),
        "dft": dft_circuit(n),
    }
    if n >= 3:
        circuits["row_table"] = gqft_circuit(_row_table_spec(n, rng))
    for name, c in circuits.items():
        assert qstate._growth_plan(c, 0, True) is not None, name
        want = one_block_circuit_dense(c)
        _assert_bit_identical(circuit_to_dense(c).entries, want, (name, n))
        if name == "row_table":
            assert np.array_equal(_compare_chunks(c), want), (name, n)
        else:
            _assert_bit_identical(_compare_chunks(c), want, (name, n))


@pytest.mark.parametrize("n", range(2, 11))
def test_zero_phase_cells_keep_the_kernel_bits_and_grow_its_values(n):
    # A zero phase cell lets growth leave -0 where the kernel has +0:
    # circuit_to_dense keeps the kernel's bits, compare's chunks its values.
    rng = np.random.default_rng(2100 + n)
    for _ in range(3):
        spec = GqftSpec(zero_lower_phi(n, rng))
        c = gqft_circuit(spec)
        want = one_block_circuit_dense(c)
        _assert_bit_identical(circuit_to_dense(c).entries, want, n)
        assert np.array_equal(_compare_chunks(c), want), n


def test_growth_alone_differs_from_the_kernel_only_in_signs_of_zeros():
    # Some grown column differs from the kernel's run in a zero's bits, so
    # circuit_to_dense, whose bits must be the kernel's, grows nothing.
    rng = np.random.default_rng(2200)
    differs = 0
    for n in range(2, 8):
        for _ in range(3):
            c = gqft_circuit(GqftSpec(zero_lower_phi(n, rng)))
            got, want = _compare_chunks(c), one_block_circuit_dense(c)
            differs += not np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(got, want)  # only signs of zeros may differ
    assert differs > 0


@pytest.mark.parametrize("n", range(1, 11))
def test_synthetic_growing_circuits_are_bit_identical_to_one_block(n):
    rng = np.random.default_rng(2300 + n)
    for _ in range(4 if n <= 8 else 1):
        c = _synthetic_circuit(n, rng)
        want = one_block_circuit_dense(c)
        _assert_bit_identical(circuit_to_dense(c).entries, want, n)
        assert np.array_equal(_compare_chunks(c), want), n


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
def test_narrow_chunks_hold_column_bits_and_stay_bit_identical(monkeypatch, width):
    # A budget of `width` columns is taken down to a power of two for a
    # growing circuit; every column bit above it is held over a chunk.
    rng = np.random.default_rng(2400 + width)
    for n in (3, 4, 6):
        monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * width)
        dft = dft_circuit(n)
        circuits = [_synthetic_circuit(n, rng) for _ in range(3)]
        circuits += [dft, gqft_circuit(GqftSpec(zero_lower_phi(n, rng)))]
        for c in circuits:
            want = one_block_circuit_dense(c)
            _assert_bit_identical(circuit_to_dense(c).entries, want, (n, width))
            if c is dft:
                _assert_bit_identical(_compare_chunks(c), want, (n, width))
            else:  # only signs of zeros may differ
                assert np.array_equal(_compare_chunks(c), want), (n, width)


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(qstate, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qstate, name, counted)
    return calls


def test_non_growing_circuits_take_the_kernel_with_no_growth_attempt(monkeypatch):
    # compare's one chunk of each starts from the identity columns and runs
    # the kernel's arithmetic; none grows.
    grown = _count_calls(monkeypatch, "_grow_chunk")
    n = 6
    circuits = {
        "haar_inverse": haar_inverse_circuit(n, 2),
        "controlled_mixing": Circuit(2, (Controlled(((0, 1),), 1, HADAMARD), Controlled((), 0, HADAMARD))),
        "wire_never_mixed": Circuit(3, (Controlled((), 0, HADAMARD), Controlled((), 2, HADAMARD))),
        "no_gates": Circuit(2, ()),
    }
    for name, c in circuits.items():
        assert qstate._growth_plan(c, 0, True) is None, name
        grown.clear()
        _assert_bit_identical(_compare_chunks(c), one_block_circuit_dense(c), name)
        assert [args[0][0] for args in grown] == [False], name
        _assert_bit_identical(circuit_to_dense(c).entries, one_block_circuit_dense(c), name)


def test_a_wire_mixed_twice_grows_for_compare(monkeypatch):
    # The second Hadamard on wire 0 rides along on the mixed wire.
    c = Circuit(
        2, (Controlled((), 0, HADAMARD), Controlled((), 0, HADAMARD), Controlled((), 1, HADAMARD))
    )
    assert qstate._growth_plan(c, 0, True) is not None
    grown = _count_calls(monkeypatch, "_grow_chunk")
    assert np.array_equal(_compare_chunks(c), one_block_circuit_dense(c))
    assert len(grown) == 1


def test_toeplitz_build_runs_no_transform_gate_through_the_kernel(monkeypatch):
    # Each route compiles one plan: circuit_to_dense's starts every chunk
    # from its identity columns, compare's grows every chunk.  Neither runs
    # a gate through the kernel; a DFT's swaps relabel its wires, and the
    # plan's closing transposition applies them.
    n = 10  # 16 chunks of 64 columns at the 1 MiB budget
    circuits = {"toeplitz": gqft_circuit(GqftSpec(toeplitz_phi(n))), "dft": dft_circuit(n)}
    calls = [_count_calls(monkeypatch, f) for f in ("_growth_plan", "_grow_chunk", "_run_in_place")]
    compiled, grown, kernel = calls
    for name, c in circuits.items():
        for counted in calls:
            counted.clear()
        got = circuit_to_dense(c).entries
        assert [(a[0] is c, a[2]) for a in compiled] == [(True, False)], name
        assert [(a[0][0], a[1].shape[1]) for a in grown] == [(False, 64)] * 16, name
        assert kernel == [], name
        _assert_bit_identical(got, one_block_circuit_dense(c), name)
        for counted in calls:
            counted.clear()
        for _ in qstate._circuit_chunks(c, grow=True):
            pass
        assert [(a[0] is c, a[2]) for a in compiled] == [(True, True)], name
        assert [a[0][0] for a in grown] == [True] * 16, name
        assert kernel == [], name
        assert (grown[0][0][2] is None) == (name == "toeplitz"), name
