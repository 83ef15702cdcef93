"""Phase-exponent matrices and their unitarity criteria.

An n x n real matrix phi defines the transform T with entries

    T[y][x] = exp(2*pi*1j * (y_bits . phi . x_bits) / N) / sqrt(N),   N = 2^n,

over bit vectors x, y (qubit i = weight 2^i).  Two validity regimes:

* ``triangular``: phi[i][i] = 2^(n-1) exactly and every strictly-upper entry
  is an integer multiple of N.  Sufficient for unitarity by the wire-by-wire
  circuit construction, and checkable cell by cell.
* ``general``: the exhaustive criterion.  T is unitary iff for every signed
  indicator z in {-1,0,1}^n \\ {0} some column j satisfies
  (z . phi)_j = 2^(n-1) (mod N).  Off-diagonal entries of T T^dagger at row
  difference z equal prod_j (1 + w^(z.phi)_j) / N, which vanishes exactly
  when one factor does.  Plain 0/1 subsets alone are NOT sufficient: e.g.
  phi = [[2,1],[2,1]] passes every subset yet has two equal rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import InputError
from .qstate import bit_table

# Default tolerance for wraparound congruence tests.
CRITERION_TOL = 1e-9
# Block size for the vectorized signed-vector sweep.
_BLOCK = 3**9


@dataclass(frozen=True)
class PhaseMatrix:
    """An n x n real phase-exponent matrix with entries bounded by 4^n."""

    n: int
    phi: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need n >= 1, got {self.n}")
        phi = np.array(self.phi, dtype=np.float64)
        if phi.shape != (self.n, self.n):
            raise InputError(f"phi shape {phi.shape} does not match n={self.n}")
        if not np.all(np.isfinite(phi)):
            raise InputError("phi entries must be finite")
        bound = 4.0**self.n
        if np.max(np.abs(phi)) > bound:
            raise InputError(
                f"|phi| entries exceed bound {bound} (max {np.max(np.abs(phi))})"
            )
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def modulus(self) -> int:
        return 1 << self.n

    def to_json_dict(self) -> dict:
        return {"n": self.n, "phi": [list(map(float, row)) for row in self.phi]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhaseMatrix":
        try:
            return cls(int(data["n"]), data["phi"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed phase-matrix JSON: {exc}") from exc


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a validity check, with a deterministic witness on failure.

    For the triangular regime the witness is the first failing cell in
    row-major scan order.  For the general regime it is the smallest failing
    signed row combination: ``witness_plus`` rows enter with +1 and
    ``witness_minus`` rows with -1 (ordered by support, then sign pattern).
    """

    regime: str
    valid: bool
    witness_cell: tuple[int, int] | None = None
    witness_plus: tuple[int, ...] | None = None
    witness_minus: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"regime": self.regime, "valid": self.valid}
        if self.witness_cell is not None:
            out["witness_cell"] = list(self.witness_cell)
        if self.witness_plus is not None:
            out["witness_plus"] = list(self.witness_plus)
            out["witness_minus"] = list(self.witness_minus or ())
        return out


def wraparound_distance(value, target, period: float):
    """Distance from ``value`` to the nearest point congruent to ``target``."""
    r = np.mod(np.asarray(value, dtype=np.float64) - target, period)
    return np.minimum(r, period - r)


def check_triangular(
    pm: PhaseMatrix, tol: float = CRITERION_TOL
) -> ValidityReport:
    """Cell-by-cell check of the triangular condition.

    Diagonal entries must equal 2^(n-1) exactly; strictly-upper entries must
    be multiples of 2^n within wraparound distance ``tol``.  Lower entries
    are unconstrained.
    """
    n, phi = pm.n, pm.phi
    target = float(1 << (n - 1))
    period = float(1 << n)
    for i in range(n):
        if phi[i, i] != target:
            return ValidityReport("triangular", False, witness_cell=(i, i))
        for j in range(i + 1, n):
            if wraparound_distance(phi[i, j], 0.0, period) >= tol:
                return ValidityReport("triangular", False, witness_cell=(i, j))
    return ValidityReport("triangular", True)


def _signed_blocks(n: int) -> Iterable[np.ndarray]:
    """Yield blocks of all vectors in {-1,0,1}^n (base-3 digit order)."""
    total = 3**n
    powers = 3 ** np.arange(n)
    for lo in range(0, total, _BLOCK):
        codes = np.arange(lo, min(lo + _BLOCK, total))
        digits = (codes[:, None] // powers[None, :]) % 3
        z = np.where(digits == 2, -1.0, digits).astype(np.float64)
        yield z


def _witness_key(zrow: np.ndarray) -> tuple:
    support = tuple(int(i) for i in np.nonzero(zrow)[0])
    signs = tuple(0 if zrow[i] > 0 else 1 for i in support)
    return (support, signs)


def check_general(
    pm: PhaseMatrix,
    tol: float = CRITERION_TOL,
    limits: Limits = DEFAULT_LIMITS,
) -> ValidityReport:
    """Exhaustive signed-combination criterion; equivalent to unitarity.

    Every nonzero z in {-1,0,1}^n must admit a column j whose signed row
    combination (z . phi)_j is congruent to 2^(n-1) mod 2^n within ``tol``.
    Cost is O(3^n * n); guarded by ``limits.criterion_cap``.
    """
    n = pm.n
    limits.check("criterion", n)
    target = float(1 << (n - 1))
    period = float(1 << n)
    best_key: tuple | None = None
    best_row: np.ndarray | None = None
    for z in _signed_blocks(n):
        sums = z @ pm.phi
        dist = wraparound_distance(sums, target, period)
        ok = (dist < tol).any(axis=1)
        ok |= ~z.any(axis=1)  # the zero vector is exempt
        if not ok.all():
            for row in z[~ok]:
                key = _witness_key(row)
                if best_key is None or key < best_key:
                    best_key, best_row = key, row
    if best_row is None:
        return ValidityReport("general", True)
    plus = tuple(int(i) for i in np.nonzero(best_row > 0)[0])
    minus = tuple(int(i) for i in np.nonzero(best_row < 0)[0])
    return ValidityReport("general", False, witness_plus=plus, witness_minus=minus)


def a_of_z(pm: PhaseMatrix, z: Sequence[float]) -> complex:
    """Normalized exponential sum A(z) = (1/N) sum_x w^(z.phi.x).

    Factorizes as (1/N) prod_j (1 + w^(z.phi)_j), which is how it is
    evaluated; ``z`` is typically a 0/1 indicator but any signed integer
    vector is accepted.  A(0) = 1 and, for unitary transforms, A(z) = 0 for
    every nonzero difference vector z.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (pm.n,):
        raise InputError(f"z has shape {z.shape}, expected ({pm.n},)")
    period = float(1 << pm.n)
    zt = np.mod(z @ pm.phi, period)
    return complex(np.prod(1.0 + np.exp(2j * np.pi * zt / period)) / period)


def phase_dense_raw(pm: PhaseMatrix) -> np.ndarray:
    """The transform matrix as a raw array, with no validity or unitarity gate.

    Used for numeric verdicts on arbitrary (possibly non-unitary) matrices.
    """
    dim = 1 << pm.n
    bits = bit_table(pm.n)
    exponent = np.mod(bits @ pm.phi @ bits.T, float(dim))  # [y, x]
    return np.exp(2j * np.pi * exponent / dim) / np.sqrt(dim)


def numeric_unitarity_defect(pm: PhaseMatrix) -> float:
    """max |T^dagger T - I| for the raw dense transform."""
    t = phase_dense_raw(pm)
    return float(np.max(np.abs(t.conj().T @ t - np.eye(t.shape[0]))))


def transpose_row_into_column(pm: PhaseMatrix, k: int) -> PhaseMatrix:
    """Exchange row k with column k (the single row/column transposition)."""
    if not 0 <= k < pm.n:
        raise InputError(f"row index {k} out of range for n={pm.n}")
    phi = np.array(pm.phi)
    row, col = phi[k, :].copy(), phi[:, k].copy()
    phi[k, :], phi[:, k] = col, row
    return PhaseMatrix(pm.n, phi)


def normalized_upper(pm: PhaseMatrix, tol: float = CRITERION_TOL) -> PhaseMatrix:
    """Canonicalize: zero out strictly-upper entries that are multiples of 2^n.

    Opt-in; leaves entries that fail the congruence untouched.
    """
    phi = np.array(pm.phi)
    period = float(1 << pm.n)
    for i in range(pm.n):
        for j in range(i + 1, pm.n):
            if wraparound_distance(phi[i, j], 0.0, period) < tol:
                phi[i, j] = 0.0
    return PhaseMatrix(pm.n, phi)
