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

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_cap, check_wires, spec_int, spec_real
from .errors import InputError
from .qstate import _unitarity_defect, bit_table, unit_roots

# Default tolerance for wraparound congruence tests.
CRITERION_TOL = 1e-9
# Signed vectors per chunk of the criterion sweep (its working-set budget).
_BLOCK = 3**9
# Widest phase matrix: its entry bound 4^n overflows float64 from n = 512.
_MAX_WIRES = 511


@dataclass(frozen=True)
class PhaseMatrix:
    """An n x n real phase-exponent matrix with entries bounded by 4^n."""

    n: int
    phi: np.ndarray

    def __post_init__(self):
        check_wires(self.n)
        if self.n > _MAX_WIRES:
            raise InputError(
                f"n={self.n} exceeds {_MAX_WIRES}: the entry bound 4^n overflows float64"
            )
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

    @functools.cached_property
    def residues(self) -> np.ndarray | None:
        """phi mod N as a read-only uint64 array, or None unless every entry
        is an integer and n <= 63: the one integrality decision, which every
        exact integer route reads.  ``np.fmod`` by N is exact and keeps the
        sign, so its remainder fits int64 and the mask takes it to [0, N)."""
        phi = self.phi
        if self.n > 63 or not np.array_equal(phi, np.rint(phi)):
            return None
        dim = self.modulus
        res = (np.fmod(phi, float(dim)).astype(np.int64) & (dim - 1)).astype(np.uint64)
        res.setflags(write=False)
        return res

    def to_json_dict(self) -> dict:
        return {"n": self.n, "phi": [list(map(float, row)) for row in self.phi]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhaseMatrix":
        try:
            n, phi = spec_int(data["n"], "n"), np.array(data["phi"], dtype=object)
            if phi.shape == (n, n):  # any other shape is refused as such
                for v in phi.flat:
                    spec_real(v, "phi")
            return cls(n, phi)
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


def _strict_upper(n: int) -> np.ndarray:
    """Boolean mask of the strictly-upper cells of an n x n matrix."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def check_triangular(
    pm: PhaseMatrix, tol: float = CRITERION_TOL
) -> ValidityReport:
    """Cell-by-cell check of the triangular condition.

    Diagonal entries must equal 2^(n-1) exactly; strictly-upper entries must
    be multiples of 2^n within wraparound distance ``tol``.  Lower entries
    are unconstrained.  A NaN ``tol`` passes no strictly-upper cell.
    """
    n, phi = pm.n, pm.phi
    bad = _strict_upper(n) & ~(wraparound_distance(phi, 0.0, float(1 << n)) < tol)
    np.fill_diagonal(bad, np.diag(phi) != float(1 << (n - 1)))
    if not bad.any():
        return ValidityReport("triangular", True)
    cell = divmod(int(bad.argmax()), n)  # first failing cell in row-major order
    return ValidityReport("triangular", False, witness_cell=cell)


def _signed_vectors(m: int) -> np.ndarray:
    """All of {-1,0,1}^m as int64 rows; wire i is base-3 digit i of the row
    index, with digit 2 standing for -1."""
    digits = np.arange(3**m)[:, None] // 3 ** np.arange(m) % 3
    return np.where(digits == 2, -1, digits)


def _order_parts(z: np.ndarray, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row pieces of the witness order for the wires first.. of ``z``.

    The order is (support, signs) compared as tuples.  With w_i = 2^(n-1-i),
    a support S has rank 2^n + |S| - sum_S w_i - w_(max S) among subsets in
    that (dictionary) order, and at equal support the signs compare as
    sum over the -1 wires of w_i.  So the key of z is
    ``part_low + part_high - min(last_low, last_high) * 2^n``: ``part`` is
    additive over the halves and ``last`` is w of a half's highest wire in
    the support (2^n for an empty half).
    """
    dim = 1 << n
    w = np.int64(1) << (n - 1 - first - np.arange(z.shape[1]))
    support = z != 0
    part = (support.sum(axis=1) - support @ w) * dim + (z < 0) @ w
    last = np.where(support, w, dim).min(axis=1, initial=dim)
    return part, last


def check_general(pm: PhaseMatrix, tol: float = CRITERION_TOL) -> ValidityReport:
    """Exhaustive signed-combination criterion; equivalent to unitarity.

    Every nonzero z in {-1,0,1}^n must admit a column j whose signed row
    combination (z . phi)_j is congruent to 2^(n-1) mod 2^n within ``tol``.

    Meet in the middle (Horowitz & Sahni, JACM 21, 1974): the signed sums of
    the low ceil(n/2) wires form one table, the high-half sums are taken in
    chunks, and each column of a chunk costs one broadcast add and compare
    against the table, O(3^n * n) in all; guarded by the criterion cap.  An
    integral phi is compared in exact integers mod 2^n, a real one in floats.
    The witness is the failing z with the smallest (support, signs) key.
    """
    n = pm.n
    check_cap("criterion", n)
    dim, half = 1 << n, 1 << (n - 1)
    low_n = (n + 1) // 2
    low_z, high_z = _signed_vectors(low_n), _signed_vectors(n - low_n)
    phi = pm.phi
    integral = pm.residues is not None
    if integral:
        # An integer distance d to N/2 is below tol iff d <= k = ceil(tol) - 1,
        # i.e. (s - N/2 + k) mod N <= 2k.  A reach of -1 hits no residue
        # (tol <= 0 or NaN), a reach of N every one (tol > N/2).
        iphi = pm.residues.astype(np.int64)
        if not tol > 0:
            shift, reach = 0, -1
        elif tol > half:
            shift, reach = 0, dim
        else:
            k = math.ceil(tol) - 1
            shift, reach = k - half, 2 * k
        # Under the criterion cap (n <= 20) residues and the sum of two stay
        # below 2^21, so int32 holds them exactly at half the memory traffic.
        low = ((low_z @ iphi[:low_n] + shift) & (dim - 1)).astype(np.int32)
        high = ((high_z @ iphi[low_n:]) & (dim - 1)).astype(np.int32)
    else:
        # low - N/2 in [0, N] and -high in [0, N], so their difference t lies
        # in [-N, N] and its distance to a multiple of N is min(|t|, N - |t|).
        low = np.mod(low_z @ phi[:low_n] - half, dim)
        high = np.mod(-(high_z @ phi[low_n:]), dim)
    low = np.ascontiguousarray(low.T)  # one row per column j
    low_part, low_last = _order_parts(low_z, 0, n)
    high_part, high_last = _order_parts(high_z, low_n, n)

    # Chunk buffers of at most _BLOCK vectors, reused across chunks.
    rows = max(1, _BLOCK // low.shape[1])
    shape = (min(rows, len(high)), low.shape[1])
    sums = np.empty(shape, dtype=low.dtype)
    hits, col_hits = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    best_key = best = None
    for h0 in range(0, len(high), rows):
        chunk = high[h0 : h0 + rows]
        m = len(chunk)
        hit, s, col = hits[:m], sums[:m], col_hits[:m]
        hit.fill(False)
        for j in range(n):
            if integral:
                np.add(low[j], chunk[:, j, None], out=s)
                np.bitwise_and(s, dim - 1, out=s)
                np.less_equal(s, reach, out=col)
            else:
                np.subtract(low[j], chunk[:, j, None], out=s)
                np.abs(s, out=s)
                np.less(np.minimum(s, dim - s), tol, out=col)
            hit |= col
        if h0 == 0:
            hit[0, 0] = True  # the zero vector is exempt
        if hit.all():
            continue
        hi, lo = np.nonzero(~hit)
        hi += h0
        keys = low_part[lo] + high_part[hi] - np.minimum(low_last[lo], high_last[hi]) * dim
        i = int(keys.argmin())
        if best_key is None or keys[i] < best_key:
            best_key, best = keys[i], (hi[i], lo[i])
    if best is None:
        return ValidityReport("general", True)
    z = np.concatenate((low_z[best[1]], high_z[best[0]]))
    plus = tuple(int(i) for i in np.nonzero(z > 0)[0])
    minus = tuple(int(i) for i in np.nonzero(z < 0)[0])
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

    Used for numeric verdicts on arbitrary (possibly non-unitary) matrices;
    guarded by the dense cap.
    """
    check_cap("dense", pm.n)
    dim = 1 << pm.n
    if pm.residues is not None:
        exponents = _doubled_sums(_column_terms(pm, 0, dim), dim - 1)
        return unit_roots(exponents, dim, reduced=True)
    bits = bit_table(pm.n)
    return unit_roots(bits @ pm.phi @ bits.T, dim)


def _doubled_sums(terms: np.ndarray, mask: int, out: np.ndarray | None = None) -> np.ndarray:
    """S[r] = (sum_i r_i * terms[i]) & mask for every r < 2^m, terms (m, w) int64.

    Built by doubling: rows 2^i .. 2^(i+1)-1 are rows 0 .. 2^i-1 plus
    terms[i], masked in place, so every row is reduced as it is written.
    Written into ``out`` ((2^m, w) int64) when given.
    """
    if out is None:
        out = np.empty((1 << terms.shape[0], terms.shape[1]), dtype=np.int64)
    out[0] = 0
    for i, term in enumerate(terms):
        half = out[1 << i : 2 << i]
        np.add(out[: 1 << i], term, out=half)
        np.bitwise_and(half, mask, out=half)
    return out


def _column_terms(pm: PhaseMatrix, start: int, stop: int) -> np.ndarray:
    """W[i, x - start] = sum_j phi[i][j] x_j mod N for the columns x in
    [start, stop), as int64, for an integral phi.

    ``_doubled_sums`` of them gives those columns' exponents
    E[y] = sum_i y_i W[i] = (y . phi . x) mod N, from ``pm.residues`` in
    integers, with no float product or BLAS call.
    """
    x = np.arange(start, stop)
    bits = (x[:, None] >> np.arange(pm.n)) & 1
    return ((bits @ pm.residues.T.astype(np.int64)) & (pm.modulus - 1)).T


def numeric_unitarity_defect(pm: PhaseMatrix) -> float:
    """max |T^dagger T - I| for the raw dense transform."""
    return _unitarity_defect(phase_dense_raw(pm))


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
    phi[_strict_upper(pm.n) & (wraparound_distance(phi, 0.0, float(1 << pm.n)) < tol)] = 0.0
    return PhaseMatrix(pm.n, phi)
