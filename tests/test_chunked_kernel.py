"""Circuit matrices built over column chunks equal the one-block kernel run."""

import tracemalloc

import numpy as np
import pytest

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    Controlled,
    GqftSpec,
    Swap,
    circuit_to_dense,
    dft_circuit,
    gqft_circuit,
    haar_inverse_circuit,
    rot1_circuit,
    rot2_circuit,
    toeplitz_phi,
)
from gqt import qstate
from _oracles import (
    fancy_index_circuit,
    one_block_circuit_dense,
    random_circuit,
    random_rot_spec,
    random_triangular_phi,
)


def _library_circuits(n: int, rng: np.random.Generator) -> dict:
    return {
        "gqft": gqft_circuit(GqftSpec(random_triangular_phi(n, rng))),
        "dft": dft_circuit(n),
        "rot1": rot1_circuit(random_rot_spec(n, HADAMARD_FIRST, rng)),
        "rot2": rot2_circuit(random_rot_spec(n, ROTATION_FIRST, rng)),
        "haar_inverse": haar_inverse_circuit(n, int(rng.integers(0, n))),
    }


def _assert_bit_identical(got: np.ndarray, want: np.ndarray, label) -> None:
    assert got.shape == want.shape, label
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label


@pytest.mark.parametrize("n", range(1, 11))
def test_chunked_build_is_bit_identical_to_one_block(n):
    # From n = 9 on, the 1 MiB budget splits the block into 2^(2n-16) chunks.
    rng = np.random.default_rng(1500 + n)
    for name, c in _library_circuits(n, rng).items():
        want = one_block_circuit_dense(c)
        _assert_bit_identical(circuit_to_dense(c).entries, want, (name, n))


@pytest.mark.parametrize("width", [1, 3, 5, 7])
def test_ragged_last_chunk_is_bit_identical(monkeypatch, width):
    # A budget of `width` columns that does not divide 2^n is taken down to a
    # power of two, so every chunk is an aligned column range of one width.
    rng = np.random.default_rng(1600 + width)
    for n in (3, 4, 6):
        monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * width)
        for name, c in _library_circuits(n, rng).items():
            want = one_block_circuit_dense(c)
            _assert_bit_identical(circuit_to_dense(c).entries, want, (name, n, width))


@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_multi_chunk_builds_are_bit_identical_to_the_fancy_index_reference(
    monkeypatch, n, width
):
    # Chunks of 1, 2 and 4 columns, each run from its identity columns by one
    # plan: a swap relabels wires, and the plan's closing transposition must
    # bring every chunk's rows into natural order.  The reference gathers and
    # scatters whole rows by index masks, on the whole block.
    monkeypatch.setattr(qstate, "_CHUNK_BYTES", 16 * (1 << n) * width)
    rng = np.random.default_rng(1800 + 10 * n + width)
    circuits = [random_circuit(n, rng, 4 * n) for _ in range(3)] + [dft_circuit(n)]
    eye = np.eye(1 << n, dtype=np.complex128)
    for c in circuits:
        want = fancy_index_circuit(c, eye)
        _assert_bit_identical(circuit_to_dense(c).entries, want, (n, width))
    gates = [g for c in circuits for g in c.gates]
    assert any(isinstance(g, Swap) for g in gates)
    controls = [g.controls for g in gates if isinstance(g, Controlled)]
    assert any(len(cs) == 2 for cs in controls)
    assert any(b == 0 for cs in controls for _, b in cs)


def test_chunked_build_holds_one_matrix_and_small_temporaries():
    # At n=10 the matrix takes 16 MiB.  The one-block run held the identity
    # and kernel temporaries of half its size, 40 MiB at peak; chunks keep
    # the kernel's share to about 3 MiB, under the exact check's 10 MiB.
    c = gqft_circuit(GqftSpec(toeplitz_phi(10)))
    tracemalloc.start()
    try:
        m = circuit_to_dense(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.entries.nbytes == 16 << 20
    assert peak <= 28 << 20
