"""Phase-matrix Fourier transforms: dense builders and circuit synthesis.

A validated spec (phase matrix plus optional row tables) defines

    G|x> = (1/sqrt(N)) sum_y w^(E(y, x)) |y>,    w = exp(2*pi*1j/N), N = 2^n,

where E(y, x) = sum_i y_i * W_i(x) and wire exponent W_i(x) is, by default,
the linear form sum_j phi[i][j] * x_j.  A row table replaces the
off-diagonal part of W_i by a lookup keyed on the full control prefix
x_0..x_{i-1}.  A table on one control bit x_j needs no such lookup: it is
affine, f0 + (f1 - f0) * x_j, and its constant f0 only multiplies the row
by a phase, so it is the phi entry phi[i][j] = f1 - f0.

For triangular-regime specs the transform factorizes per output wire, which
yields the circuit: process wires from highest to lowest, Hadamard first,
then diagonal phase gates controlled on the still-unconsumed lower wires.

The standard DFT is the transform of phi[i][j] = 2^(i+j), as y * x =
sum_ij y_i x_j 2^(i+j): ``dft_dense`` is ``gqft_dense`` of that validated
spec, read off the root table and certified from its error like every
integral phi without row tables.  Each transform is one column reader
(``_formula_columns``), which ``compare`` streams against the circuit,
certified from the circuit's gates, and ``gqft_dense`` gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import qstate
from .config import check_cap, check_wires, spec_int
from .errors import CapExceededError, InputError, UnsupportedRegimeError, ValidityError
from .phasemat import PhaseMatrix, _column_terms, _doubled_sums, check_general, check_triangular
from .qstate import (
    HADAMARD,
    Circuit,
    Controlled,
    DenseUnitary,
    Swap,
    _defect_bound,
    _formula_matrix,
    _scratch,
    bit_table,
    unit_roots,
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
    """A validated transform spec: a phase matrix, its regime, and row tables.

    row_fns maps a wire i to {control prefix (x_0..x_{i-1}): exponent},
    normalized so the all-zeros prefix contributes 0; each row table may keep
    at most n nonzero prefixes, one controlled gate each.  Tables require the
    triangular regime, where the wire construction stays valid for any lower
    content.  A table on a single control bit is a phi entry instead (see the
    module docstring).
    """

    pm: PhaseMatrix
    regime: str = TRIANGULAR
    row_fns: Mapping[int, Mapping[tuple[int, ...], float]] | None = None

    def __post_init__(self):
        if self.regime not in (TRIANGULAR, GENERAL):
            raise InputError(f"unknown regime {self.regime!r}")
        n = self.pm.n
        if self.regime == TRIANGULAR:
            report = check_triangular(self.pm)
        else:
            report = check_general(self.pm)
        if not report.valid:
            raise ValidityError(
                f"phase matrix fails the {self.regime} check", report=report
            )
        if self.row_fns and self.regime != TRIANGULAR:
            raise UnsupportedRegimeError("phase tables require the triangular regime")
        row_fns = None
        if self.row_fns:
            row_fns = {}
            for i, table in self.row_fns.items():
                i = spec_int(i, "row table index")
                if not 0 < i < n:
                    raise InputError(f"row table index {i} out of range")
                base = float(table.get(tuple([0] * i), 0.0))
                clean = {}
                for pattern, value in table.items():
                    pattern = tuple(spec_int(b, "prefix bit") for b in pattern)
                    if len(pattern) != i or any(b not in (0, 1) for b in pattern):
                        raise InputError(f"bad prefix {pattern} for wire {i}")
                    v = float(value) - base
                    if v != 0.0:
                        clean[pattern] = v
                if len(clean) > n:
                    raise CapExceededError(
                        f"row table for wire {i} has support {len(clean)} > cap {n}"
                    )
                row_fns[i] = clean
        object.__setattr__(self, "row_fns", row_fns)

    @classmethod
    def from_phase_matrix(cls, pm: PhaseMatrix) -> "GqftSpec":
        """Pick the triangular regime when it passes, else the general one."""
        try:
            return cls(pm, TRIANGULAR)
        except ValidityError:
            return cls(pm, GENERAL)


def _wire_exponents(spec: GqftSpec, bits: np.ndarray) -> np.ndarray:
    """W[i, x]: the per-wire exponent for every input column x; bits is [x, i]."""
    w = spec.pm.phi @ bits.T  # [i, x] linear form
    if spec.row_fns:
        for i, table in spec.row_fns.items():
            w[i] = spec.pm.phi[i, i] * bits[:, i]
            for pattern, value in table.items():
                match = np.all(bits[:, :i] == np.asarray(pattern, float), axis=1)
                w[i] += value * match
    return w


def gqft_dense(spec: GqftSpec) -> DenseUnitary:
    """Materialize the transform; every entry has modulus 1/sqrt(N).

    The spec's column reader (``_formula_columns``) gathered.  An integral
    phi without row tables is read off the root table, and its criterion is
    exact in integers, so the exact matrix is unitary, and ``DenseUnitary``
    takes the bound the table's error gives instead of forming U^dagger U.
    """
    n = spec.pm.n
    halves = _formula_columns(spec)
    error = qstate._root_table_error(1 << n) if _on_root_table(spec) else math.nan
    return DenseUnitary(n, _formula_matrix(n, halves), _defect_bound(0.0, error, 1 << n))


def _on_root_table(spec: GqftSpec) -> bool:
    """Whether the transform's entries are read off the root table at exact
    integer exponents: an integral phi without row tables."""
    return spec.pm.residues is not None and not spec.row_fns


def _formula_columns(spec: GqftSpec):
    """The transform's column reader (see ``qstate._circuit_distance``).

    An integral phi without row tables is read off the root table that
    ``_root_table_error`` measures (``qstate._root_table``), into the
    workspace buffer ``spare``.  The exponents of rows 0..N/2-1 are
    ``_doubled_sums`` over wires 0..n-2 (``_column_terms``), in the buffer
    ``quarter``; rows N/2..N-1 add wire n-1's terms to them and mask, the
    doubling's last step.  Any other spec's exponents are the bit table
    times the chunk's columns of ``_wire_exponents``, one BLAS product per
    chunk, exponentiated by ``unit_roots``.
    """
    n = spec.pm.n
    check_cap("dense", n)
    dim = 1 << n
    if not _on_root_table(spec):
        bits = bit_table(n)
        wires = _wire_exponents(spec, bits)

        def halves(j: int, w: int):
            e = bits @ wires[:, j : j + w]
            yield unit_roots(e[: dim // 2], dim)
            yield unit_roots(e[dim // 2 :], dim)

        return halves
    table = qstate._root_table(dim)
    mask = dim - 1

    def halves(j: int, w: int):
        terms = _column_terms(spec.pm, j, j + w)
        e = _doubled_sums(terms[:-1], mask, _scratch("quarter", (dim // 2, w), np.int64))
        yield np.take(table, e, out=_scratch("spare", (dim // 2, w)), mode="wrap")
        np.add(e, terms[-1], out=e)
        np.bitwise_and(e, mask, out=e)
        yield np.take(table, e, out=_scratch("spare", (dim // 2, w)), mode="wrap")

    return halves


def gqft_circuit(spec: GqftSpec) -> Circuit:
    """Synthesize the wire-by-wire circuit (triangular regime only).

    Wires are processed from n-1 down to 0 so each phase gate's controls
    still hold input values; per wire: Hadamard, then one diagonal phase
    gate per lower cell (or per row-table entry).  Gate count is
    n + n(n-1)/2 for specs without row tables; no swaps are emitted.
    """
    if spec.regime != TRIANGULAR:
        raise UnsupportedRegimeError(
            "circuit synthesis is defined for the triangular regime only"
        )
    n = spec.pm.n
    modulus = 1 << n
    gates: list = []
    for i in range(n - 1, -1, -1):
        gates.append(Controlled((), i, HADAMARD))
        if spec.row_fns and i in spec.row_fns:
            for pattern in sorted(spec.row_fns[i]):
                controls = tuple((j, pattern[j]) for j in range(i))
                u = _phase_gate(spec.row_fns[i][pattern], modulus)
                gates.append(Controlled(controls, i, u))
            continue
        for j in range(i - 1, -1, -1):
            u = _phase_gate(float(spec.pm.phi[i, j]), modulus)
            gates.append(Controlled(((j, 1),), i, u))
    return Circuit(n, tuple(gates))


def _toeplitz_entries(n: int) -> np.ndarray:
    """The float entries 2^(n-1-i+j) of ``toeplitz_phi(n)``, unvalidated."""
    return 2.0 ** (n - 1 - np.arange(n)[:, None] + np.arange(n))


def toeplitz_phi(n: int) -> PhaseMatrix:
    """The constant-diagonal matrix phi[i][j] = 2^(n-1-i+j).

    Satisfies the triangular condition; the resulting transform is the DFT
    with bit-reversed rows.
    """
    check_wires(n)
    return PhaseMatrix(n, _toeplitz_entries(n))


def dft_dense(n: int) -> DenseUnitary:
    """The standard DFT F[y][x] = w^(x*y) / sqrt(N): ``gqft_dense`` of the
    validated spec of phi[i][j] = 2^(i+j), which passes only the general
    criterion.  The cap is checked before phi is built, whose entries
    overflow float64 from n = 513.
    """
    check_wires(n)
    check_cap("dense", n)
    i = np.arange(n)
    return gqft_dense(GqftSpec(PhaseMatrix(n, 2.0 ** (i[:, None] + i)), GENERAL))


def dft_circuit(n: int) -> Circuit:
    """The DFT circuit: the constant-diagonal transform plus bit-reversal swaps.

    Appends floor(n/2) swaps (qubit i with n-1-i); swaps appear only in this
    comparison helper, never in general circuit synthesis.
    """
    base = gqft_circuit(GqftSpec(toeplitz_phi(n)))
    swaps = tuple(Swap(i, n - 1 - i) for i in range(n // 2))
    return Circuit(n, base.gates + swaps)
