"""Rotation cascades grown from a growth plan compiled once per circuit.

A cascade mixes each wire with one uncontrolled gate and then runs rotations
on it under controls on lower, unmixed wires.  In compare its chunks
(``_circuit_chunks``) grow from the plan of ``_growth_plan`` and must equal
the one-block kernel run up to the sign of a zero; the streamed distance
must equal the one-shot max.  ``circuit_to_dense`` runs each chunk from
its identity columns, bit-identical to that run.
"""

import numpy as np
import pytest

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    Circuit,
    Controlled,
    RotSpec,
    Swap,
    circuit_to_dense,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
)
from gqt import qstate
from gqt.qstate import _circuit_distance
from _oracles import dense_columns, one_block_circuit_dense, random_rot_spec, random_unitary2


def _assert_bit_identical(got: np.ndarray, want: np.ndarray, label) -> None:
    assert got.shape == want.shape, label
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label


def _special_spec(n: int, variant: str, rng: np.random.Generator) -> RotSpec:
    """A cascade whose angles are multiples of pi/2, so that its rotations
    have exact zero entries and make -0 parts.  No alpha0 is 0: R(0) mixes
    no wire, and a later controlled rotation would then mix it."""
    angles = np.arange(4) * (np.pi / 2)
    thetas = {
        (i, j): tuple(float(a) for a in rng.choice(angles, size=2))
        for i in range(1, n)
        for j in range(i)
    }
    alpha0 = tuple(float(a) for a in rng.choice(angles[1:], size=n)) if variant == ROTATION_FIRST else None
    return RotSpec(n, variant, thetas, alpha0)


_BUILDERS = {HADAMARD_FIRST: (rot1_circuit, rot1_dense), ROTATION_FIRST: (rot2_circuit, rot2_dense)}


def _cascades(n: int, rng: np.random.Generator) -> dict:
    """rot1 and rot2 specs, with random and with special angles."""
    return {
        f"{variant}_{label}": make(n, variant, rng)
        for label, make in (("random", random_rot_spec), ("special", _special_spec))
        for variant in _BUILDERS
    }


def _compare_chunks(c: Circuit) -> np.ndarray:
    """The circuit's matrix as compare's streamed distance sees it."""
    chunks = qstate._circuit_chunks(c, grow=True)
    return np.concatenate([chunk.copy() for _, chunk in chunks], axis=1)


def _assert_grown_for_compare(c: Circuit, label) -> None:
    """Compare grows c, equal to the one-block run but for signs of zeros;
    the build is bit-identical to it."""
    want = one_block_circuit_dense(c)
    assert qstate._growth_plan(c, 0, True) is not None, label
    assert np.array_equal(_compare_chunks(c), want), label
    _assert_bit_identical(circuit_to_dense(c).entries, want, label)


def _relaxed_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """A growing circuit with swaps, and controlled random 2x2 gates on mixed
    wires between the mixes, under controls on mixed and unmixed wires."""
    mixed = [False] * n
    gates: list = []
    while not all(mixed):
        for _ in range(int(rng.integers(0, 3))):
            if n > 1 and rng.random() < 0.3:
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                gates.append(Swap(a, b))
                mixed[a], mixed[b] = mixed[b], mixed[a]
            elif any(mixed):
                target = int(rng.choice([q for q in range(n) if mixed[q]]))
                others = [q for q in range(n) if q != target]
                chosen = rng.choice(others, size=int(rng.integers(0, min(len(others), 2) + 1)), replace=False)
                controls = tuple((int(q), int(rng.integers(0, 2))) for q in chosen)
                gates.append(Controlled(controls, target, random_unitary2(rng)))
        target = int(rng.choice([q for q in range(n) if not mixed[q]]))
        gates.append(Controlled((), target, random_unitary2(rng)))
        mixed[target] = True
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("n", range(1, 11))
def test_cascades_grow_for_compare_and_build_bit_identical_to_one_block(n):
    # From n = 9 on the chunks are narrower than 2^n: high column bits are
    # held fixed over a chunk, and a held wire is mixed by two scalars.
    rng = np.random.default_rng(3000 + n)
    for name, spec in _cascades(n, rng).items():
        _assert_grown_for_compare(_BUILDERS[spec.variant][0](spec), (name, n))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
def test_narrow_chunks_grow_cascades_equal_to_one_block(monkeypatch, width):
    # A chunk one column wide slices one-element blocks; every wire but the
    # lowest few is held, so mixes on held wires run too.
    rng = np.random.default_rng(3100 + width)
    for n in (3, 4, 6):
        monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * width)
        circuits = [_BUILDERS[s.variant][0](s) for s in _cascades(n, rng).values()]
        circuits += [_relaxed_circuit(n, rng) for _ in range(3)]
        for c in circuits:
            _assert_grown_for_compare(c, (n, width))


@pytest.mark.parametrize("n", range(1, 11))
def test_relaxed_circuits_grow_for_compare_equal_to_one_block(n):
    rng = np.random.default_rng(3200 + n)
    for _ in range(3 if n <= 8 else 1):
        _assert_grown_for_compare(_relaxed_circuit(n, rng), n)


@pytest.mark.parametrize("budget", [None, 1, 4])
def test_streamed_cascade_distance_is_the_one_shot_max(monkeypatch, budget):
    rng = np.random.default_rng(3300 + (budget or 0))
    for n in range(1, 10):
        if budget is not None:
            monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * budget)
        for name, spec in _cascades(n, rng).items():
            c, m = (build(spec) for build in _BUILDERS[spec.variant])
            want = float(np.max(np.abs(one_block_circuit_dense(c) - m.entries)))
            assert _circuit_distance(c, dense_columns(m.entries)) == want, (name, n)


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(qstate, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qstate, name, counted)
    return calls


def test_the_plan_is_compiled_once_per_circuit_not_per_chunk(monkeypatch):
    n = 10  # 16 chunks of 64 columns at the 1 MiB budget
    spec = random_rot_spec(n, HADAMARD_FIRST, np.random.default_rng(3400))
    c, m = rot1_circuit(spec), rot1_dense(spec)
    compiled = _count_calls(monkeypatch, "_growth_plan")
    grown = _count_calls(monkeypatch, "_grow_chunk")
    _circuit_distance(c, dense_columns(m.entries))
    assert (len(compiled), len(grown)) == (1, 16)


def test_a_cascade_build_takes_the_kernel_with_no_growth_attempt(monkeypatch):
    # circuit_to_dense compiles one plan that starts every chunk from its
    # identity columns; compare's grows every chunk.  Neither runs a gate
    # through the kernel.
    n = 10  # 16 chunks of 64 columns at the 1 MiB budget
    rng = np.random.default_rng(3500)
    circuits = {
        "rot1": rot1_circuit(random_rot_spec(n, HADAMARD_FIRST, rng)),
        "rot2": rot2_circuit(random_rot_spec(n, ROTATION_FIRST, rng)),
    }
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
