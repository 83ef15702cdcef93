"""compare's certificate from the circuit's gates, and the readers it streams.

``_gate_bound`` bounds the defect of the matrix that the kernel or growth
computes for a circuit, from the defects its gates keep.  It must cover the
exact check less that check's own rounding, gamma = 4 N eps, for transform
and cascade circuits, also with every gate perturbed within ``GATE_TOL``.

The dense builders gather the column readers that compare streams.  Held
against the whole-block expressions they evaluated before they read
columns, they must agree bit for bit at every n up to the dense cap, which
covers every chunk width.
"""

import numpy as np
import pytest

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    Circuit,
    Controlled,
    GqftSpec,
    circuit_to_dense,
    dft_circuit,
    gqft_circuit,
    gqft_dense,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
    toeplitz_phi,
)
from gqt import qstate
from gqt.config import GATE_TOL, STATE_TOL
from gqt.gqft import _formula_columns
from gqt.qstate import _formula_matrix, _gate_bound, _unitarity_defect
from _oracles import (
    random_rot_spec,
    random_triangular_phi,
    whole_block_cascade,
    whole_block_gqft,
)

DENSE = {HADAMARD_FIRST: rot1_dense, ROTATION_FIRST: rot2_dense}


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _row_table_spec(n: int, rng: np.random.Generator) -> GqftSpec:
    """A random real triangular spec with a row table on the top wire (n >= 3)."""
    table = {
        tuple(int(b) for b in rng.integers(0, 2, size=n - 1)): float(rng.uniform(0, 1 << n))
        for _ in range(n)
    }
    return GqftSpec(random_triangular_phi(n, rng), row_fns={n - 1: table})


@pytest.mark.parametrize("n", range(1, 13))
def test_gathered_formulas_equal_the_whole_block_expressions(n):
    # gqft_dense takes the exact check on these specs, O(8^n); past n = 10
    # the matrix it would check, its reader gathered, is held instead.
    rng = np.random.default_rng(5100 + n)
    specs = [GqftSpec(random_triangular_phi(n, rng))]
    if n >= 3:
        specs.append(_row_table_spec(n, rng))
    for spec in specs:
        want = whole_block_gqft(spec)
        got = gqft_dense(spec).entries if n <= 10 else _formula_matrix(n, _formula_columns(spec))
        assert np.array_equal(_bits(got), _bits(want)), (n, bool(spec.row_fns))
        del want, got
    for variant in (HADAMARD_FIRST, ROTATION_FIRST):
        spec = random_rot_spec(n, variant, rng)
        want = whole_block_cascade(spec)
        got = DENSE[variant](spec).entries
        assert np.array_equal(_bits(got), _bits(want)), (n, variant)
        del want, got


def _perturbed(c: Circuit, rng: np.random.Generator) -> Circuit:
    """``c`` with each gate's matrix stretched and shaken within ``GATE_TOL``;
    a diag(1, u11) gate is only stretched, so that it keeps its form and the
    circuit still grows."""
    gates = []
    for g in c.gates:
        if isinstance(g, Controlled):
            u = np.array(g.u)
            if qstate._is_phase(u):
                u[1, 1] *= 1 + 4e-13
            else:
                noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                u = u * (1 + 2.5e-13) + 1e-13 * noise / np.abs(noise).max()
            g = Controlled(g.controls, g.target, u)
            assert 2e-13 < g.defect <= GATE_TOL
        gates.append(g)
    return Circuit(c.n, tuple(gates))


@pytest.mark.parametrize("n", range(1, 11))
def test_the_gate_bound_covers_the_exact_defect(n):
    rng = np.random.default_rng(5300 + n)
    dim = 1 << n
    gamma = 4 * dim * np.finfo(np.float64).eps
    circuits = {
        "toeplitz": gqft_circuit(GqftSpec(toeplitz_phi(n))),
        "dft": dft_circuit(n),
        "triangular": gqft_circuit(GqftSpec(random_triangular_phi(n, rng))),
        "rot1": rot1_circuit(random_rot_spec(n, HADAMARD_FIRST, rng)),
        "rot2": rot2_circuit(random_rot_spec(n, ROTATION_FIRST, rng)),
    }
    for name, c in circuits.items():
        for label, circ in ((name, c), (f"{name}, perturbed", _perturbed(c, rng))):
            bound = _gate_bound(circ)
            assert bound + gamma <= STATE_TOL, label
            kernel = circuit_to_dense(circ).defect  # the exact check's result
            grown = _unitarity_defect(qstate._gathered(n, qstate._circuit_chunks(circ, grow=True)))
            assert grown == kernel, label
            assert kernel - gamma <= bound, label
