"""Phase-matrix Fourier transforms: dense builders and circuit synthesis.

A validated spec (phase matrix plus optional per-wire phase tables) defines

    G|x> = (1/sqrt(N)) sum_y w^(E(y, x)) |y>,    w = exp(2*pi*1j/N), N = 2^n,

where E(y, x) = sum_i y_i * W_i(x) and wire exponent W_i(x) is, by default,
the linear form sum_j phi[i][j] * x_j.  Lookup tables can replace the
off-diagonal contribution cell by cell (one table per (i, j), i > j) or row
by row (one table keyed by the full control prefix x_0..x_{i-1}).

For triangular-regime specs the transform factorizes per output wire, which
yields the circuit: process wires from highest to lowest, Hadamard first,
then diagonal phase gates controlled on the still-unconsumed lower wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import CapExceededError, InputError, UnsupportedRegimeError, ValidityError
from .phasemat import PhaseMatrix, check_general, check_triangular
from .qstate import (
    HADAMARD,
    Circuit,
    Controlled,
    DenseUnitary,
    SingleQubit,
    Swap,
    bit_table,
)

TRIANGULAR = "triangular"
GENERAL = "general"


def _phase_gate(value: float, modulus: int) -> np.ndarray:
    """diag(1, w^value) with the exponent reduced mod N for stable phases."""
    ph = np.mod(value, modulus)
    return np.array(
        [[1.0, 0.0], [0.0, np.exp(2j * np.pi * ph / modulus)]],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class GqftSpec:
    """A validated transform spec.

    cell_fns maps (i, j) with i > j to the table (f(0), f(1)); tables are
    stored zero-based (f(0) subtracted from both entries).  row_fns maps a
    wire i to {control prefix (x_0..x_{i-1}): exponent}, also normalized so
    the all-zeros prefix contributes 0.  Tables require the triangular
    regime, where the wire construction stays valid for any lower content.
    """

    pm: PhaseMatrix
    regime: str = TRIANGULAR
    cell_fns: Mapping[tuple[int, int], tuple[float, float]] | None = None
    row_fns: Mapping[int, Mapping[tuple[int, ...], float]] | None = None
    limits: Limits = field(default=DEFAULT_LIMITS, repr=False)

    def __post_init__(self):
        if self.regime not in (TRIANGULAR, GENERAL):
            raise InputError(f"unknown regime {self.regime!r}")
        n = self.pm.n
        if self.regime == TRIANGULAR:
            report = check_triangular(self.pm)
        else:
            report = check_general(self.pm, limits=self.limits)
        if not report.valid:
            raise ValidityError(
                f"phase matrix fails the {self.regime} check", report=report
            )
        if (self.cell_fns or self.row_fns) and self.regime != TRIANGULAR:
            raise UnsupportedRegimeError("phase tables require the triangular regime")
        cell_fns = None
        if self.cell_fns:
            cell_fns = {}
            for (i, j), (f0, f1) in self.cell_fns.items():
                if not (0 <= j < i < n):
                    raise InputError(f"cell table ({i},{j}) is not strictly lower")
                cell_fns[(int(i), int(j))] = (0.0, float(f1) - float(f0))
        row_fns = None
        if self.row_fns:
            support_cap = self.limits.row_fn_support or n
            row_fns = {}
            for i, table in self.row_fns.items():
                i = int(i)
                if not 0 < i < n:
                    raise InputError(f"row table index {i} out of range")
                if cell_fns and any(ci == i for ci, _ in cell_fns):
                    raise InputError(f"wire {i} has both cell and row tables")
                base = float(table.get(tuple([0] * i), 0.0))
                clean = {}
                for pattern, value in table.items():
                    pattern = tuple(int(b) for b in pattern)
                    if len(pattern) != i or any(b not in (0, 1) for b in pattern):
                        raise InputError(f"bad prefix {pattern} for wire {i}")
                    v = float(value) - base
                    if v != 0.0:
                        clean[pattern] = v
                if len(clean) > support_cap:
                    raise CapExceededError(
                        f"row table for wire {i} has support {len(clean)} "
                        f"> cap {support_cap}"
                    )
                row_fns[i] = clean
        object.__setattr__(self, "cell_fns", cell_fns)
        object.__setattr__(self, "row_fns", row_fns)

    @classmethod
    def from_phase_matrix(
        cls, pm: PhaseMatrix, limits: Limits = DEFAULT_LIMITS
    ) -> "GqftSpec":
        """Pick the triangular regime when it passes, else the general one."""
        if check_triangular(pm).valid:
            return cls(pm, TRIANGULAR, limits=limits)
        return cls(pm, GENERAL, limits=limits)


def _wire_exponents(spec: GqftSpec, bits: np.ndarray) -> np.ndarray:
    """W[i, x]: the per-wire exponent for every input column x; bits is [x, i]."""
    w = spec.pm.phi @ bits.T  # [i, x] linear form
    if spec.cell_fns:
        for (i, j), (_, f1) in spec.cell_fns.items():
            w[i] += (f1 - spec.pm.phi[i, j]) * bits[:, j]
    if spec.row_fns:
        for i, table in spec.row_fns.items():
            w[i] = spec.pm.phi[i, i] * bits[:, i]
            for pattern, value in table.items():
                match = np.all(bits[:, :i] == np.asarray(pattern, float), axis=1)
                w[i] += value * match
    return w


def gqft_dense(spec: GqftSpec, limits: Limits = DEFAULT_LIMITS) -> DenseUnitary:
    """Materialize the transform; every entry has modulus 1/sqrt(N)."""
    n = spec.pm.n
    limits.check("dense", n)
    dim = 1 << n
    bits = bit_table(n)
    exponent = np.mod(bits @ _wire_exponents(spec, bits), float(dim))  # [y, x]
    return DenseUnitary(n, np.exp(2j * np.pi * exponent / dim) / np.sqrt(dim))


def gqft_circuit(spec: GqftSpec) -> Circuit:
    """Synthesize the wire-by-wire circuit (triangular regime only).

    Wires are processed from n-1 down to 0 so each phase gate's controls
    still hold input values; per wire: Hadamard, then one diagonal phase
    gate per lower cell (or per row-table entry).  Gate count is
    n + n(n-1)/2 for linear/cell specs; no swaps are emitted.
    """
    if spec.regime != TRIANGULAR:
        raise UnsupportedRegimeError(
            "circuit synthesis is defined for the triangular regime only"
        )
    n = spec.pm.n
    modulus = 1 << n
    gates: list = []
    for i in range(n - 1, -1, -1):
        gates.append(SingleQubit(i, HADAMARD))
        if spec.row_fns and i in spec.row_fns:
            for pattern in sorted(spec.row_fns[i]):
                controls = tuple((j, pattern[j]) for j in range(i))
                u = _phase_gate(spec.row_fns[i][pattern], modulus)
                gates.append(Controlled(controls, i, u))
            continue
        for j in range(i - 1, -1, -1):
            if spec.cell_fns and (i, j) in spec.cell_fns:
                value = spec.cell_fns[(i, j)][1]
            else:
                value = float(spec.pm.phi[i, j])
            gates.append(Controlled(((j, 1),), i, _phase_gate(value, modulus)))
    return Circuit(n, tuple(gates))


def toeplitz_phi(n: int) -> PhaseMatrix:
    """The constant-diagonal matrix phi[i][j] = 2^(n-1-i+j).

    Satisfies the triangular condition; the resulting transform is the DFT
    with bit-reversed rows.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return PhaseMatrix(n, 2.0 ** (n - 1 - i + j))


def dft_dense(n: int, limits: Limits = DEFAULT_LIMITS) -> DenseUnitary:
    """The standard DFT: F[y][x] = w^(x*y) / sqrt(N) over integer products."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    limits.check("dense", n)
    dim = 1 << n
    k = np.arange(dim)
    exponent = np.mod(np.outer(k, k), dim)
    return DenseUnitary(n, np.exp(2j * np.pi * exponent / dim) / np.sqrt(dim))


def dft_circuit(n: int) -> Circuit:
    """The DFT circuit: the constant-diagonal transform plus bit-reversal swaps.

    Appends floor(n/2) swaps (qubit i with n-1-i); swaps appear only in this
    comparison helper, never in general circuit synthesis.
    """
    base = gqft_circuit(GqftSpec(toeplitz_phi(n)))
    swaps = tuple(Swap(i, n - 1 - i) for i in range(n // 2))
    return Circuit(n, base.gates + swaps)
