"""Statevector substrate: pure states, primitive gates, circuits, dense unitaries.

Basis convention used across the package: basis index k encodes the bit
vector (x_0, ..., x_{n-1}) as k = sum_i x_i * 2^i, so qubit i carries weight
2^i.  Dense matrices are indexed M[row=y][col=x] = <y|U|x>.

Everything here is a pure function over immutable values: amplitude arrays
are write-locked and each operation returns a fresh state.  Inside, a
circuit runs in place on one private copy, through a (2,)*n strided view in
which each gate touches only the slices its qubits select; a diagonal
diag(1, u11) gate, such as every phase gate of a transform circuit, scales
only its target-1 slice.

State kept across calls is private, and no result aliases it: the root
table's error per size (``_root_table_error``, cached), and a workspace of
byte buffers (``_scratch``) for the column-chunk routes, allocated on first
use and reused, so that a run of them faults in no fresh pages: the chunk,
``spare`` (half a chunk) and ``quarter`` (a quarter chunk).  The workspace
serves one call at a time: the chunk routes are not thread-safe.

A circuit's dense matrix is built one column chunk at a time, from one
chunk source (``_circuit_chunks``): the circuit is compiled once into a plan
(``_growth_plan``), which runs on each chunk (``_grow_chunk``).
``circuit_to_dense`` runs it from each chunk's identity columns with the
kernel's arithmetic, and gathers the chunks into a matrix bit-identical to
one whole-block kernel run.  ``compare`` grows the chunks of a transform
circuit or rotation cascade from each column's support, with the kernel's
own products, which can only flip an exact zero's sign.
``_circuit_distance`` holds each chunk against the matching columns of a
formula, read by a column reader, which dense builders gather
(``_formula_matrix``), and keeps only the largest distance.  The circuit is
certified from its gates (``_gate_bound``), the formula from that and the
distance, so neither takes the exact U^dagger U check unless a bound fails.

Integer exponents are read off one table of N roots (``_root_table``),
whose error (``_root_table_error``) certifies the unitarity of a dense
matrix read off it whose exact entries form a unitary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .config import GATE_TOL, STATE_TOL, check_cap, check_wires, rng_from_seed, spec_int
from .errors import InputError, NotUnitaryError

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def bit_table(n: int) -> np.ndarray:
    """Float 0/1 table of shape (2^n, n): entry [k, i] is bit i of index k."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(
        np.float64
    )


# Float type of the exact roots that ``_root_table_error`` compares the table
# against: the 64-bit-mantissa long double on x86-64 Linux.  Where it is no
# wider than float64 there is no certificate and the exact check runs.
_WIDE = np.longdouble


def _root_table(dim: int) -> np.ndarray:
    """The dim roots w^k / sqrt(dim), k = 0..dim-1, that integer exponents index."""
    return np.exp(2j * np.pi * np.arange(dim, dtype=np.float64) / dim) / np.sqrt(dim)


@functools.cache
def _root_table_error(dim: int) -> float:
    """A bound on max_k |table[k] - w^k / sqrt(dim)| over ``_root_table(dim)``.

    The exact roots are taken in ``_WIDE`` with unit roundoff u = its eps:
    the angle is k/dim (exact, dim = 2^n) times 8 arctan(1), within 16 u of
    2 pi k/dim; cos and sin add an ulp, and the division by sqrt(dim), the
    subtraction and ``hypot`` a few u more, so the reference is within 32 u
    of the exact root and 64 u is added to the computed max.  O(dim), and
    cached per dim (a test that patches ``_root_table`` or ``_WIDE`` clears
    the cache).  NaN when ``_WIDE`` is no wider than float64 or
    the table holds a NaN, so that the caller takes the exact check.
    """
    unit = np.finfo(_WIDE).eps
    if not unit < np.finfo(np.float64).eps:
        return math.nan
    table = _root_table(dim)
    theta = np.arange(dim).astype(_WIDE) / _WIDE(dim) * (8 * np.arctan(_WIDE(1)))
    scale = np.sqrt(_WIDE(dim))
    dist = np.hypot(
        table.real.astype(_WIDE) - np.cos(theta) / scale,
        table.imag.astype(_WIDE) - np.sin(theta) / scale,
    )
    return float(np.max(dist) + 64 * unit)


def unit_roots(exponent, dim: int, reduced: bool = False) -> np.ndarray:
    """w^e / sqrt(dim) for every exponent e, w = exp(2*pi*1j/dim), dim = 2^n.

    Integer exponents (any sign) index one table of the dim roots, built
    with the same float expression as the direct route, so each entry is
    bit-identical to it; float exponents are reduced mod dim and
    exponentiated directly.  Callers that know their exponents are integral
    (``PhaseMatrix.residues``) pass them as integers, and with ``reduced``
    when they already lie in [0, dim), which skips the masked copy.  A dim
    that is not a power of two, where the mask is no reduction mod dim, is
    refused.
    """
    if dim < 1 or dim & (dim - 1):
        raise InputError(f"root count {dim} is not a power of two")
    e = np.asarray(exponent)
    if e.dtype.kind == "f":
        return np.exp(2j * np.pi * np.mod(e, float(dim)) / dim) / np.sqrt(dim)
    return _root_table(dim)[e if reduced else e & (dim - 1)]


def _unitarity_defect(m: np.ndarray) -> float:
    """max |M^dagger M - I| over all entries of a square matrix.

    M^dagger M is Hermitian, so its upper block triangle holds every
    deviation: the product is formed one block row at a time over four
    block rows, G = M[:, i:i+b]^dagger M[:, i:], with 1 taken off G's
    leading diagonal.  That is 10/16 of the full product's multiply-adds,
    and no array of the matrix's own size is allocated.  Blocks are at
    least 4 columns wide, so a matrix up to 4x4 takes the one full product:
    OpenBLAS rounds 1- and 2-column blocks differently from it, which moved
    the last digit of printed defects at n = 2, 3.  A NaN in any block makes
    the result NaN, so a ``not dev <= tol`` test fails closed.
    """
    dim = m.shape[0]
    b = max(dim // 4, 4)
    worst = 0.0
    for i in range(0, dim, b):
        g = m[:, i : i + b].conj().T @ m[:, i:]
        k = np.arange(g.shape[0])
        g[k, k] -= 1.0
        worst = np.maximum(worst, np.max(np.abs(g)))
        del g  # so that no two block products are held at once
    return float(worst)


def bit_reverse(k: int, n: int) -> int:
    """Reverse the n-bit pattern of k (weight 2^i <-> weight 2^(n-1-i))."""
    check_wires(n)
    if not 0 <= k < (1 << n):
        raise InputError(f"index {k} out of range for {n} bits")
    out = 0
    for i in range(n):
        out |= ((k >> i) & 1) << (n - 1 - i)
    return out


@dataclass(frozen=True)
class QState:
    """Normalized pure state on n qubits: 2^n complex amplitudes."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        check_wires(self.n)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise InputError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.n},)"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= STATE_TOL:
            raise InputError(f"state norm {norm!r} deviates from 1 beyond {STATE_TOL}")
        object.__setattr__(self, "amps", _locked(amps))

    @classmethod
    def basis(cls, n: int, k: int) -> "QState":
        """The computational basis state |k>."""
        check_wires(n)
        if not 0 <= k < (1 << n):
            raise InputError(f"basis index {k} out of range for n={n}")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[k] = 1.0
        return cls(n, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _gate_defect(u: np.ndarray) -> float:
    """max |U^dagger U - I| of a 2x2 matrix, from its four entries as scalars."""
    (a, b), (c, d) = u.tolist()
    terms = (
        abs(abs(a) ** 2 + abs(c) ** 2 - 1.0),
        abs(abs(b) ** 2 + abs(d) ** 2 - 1.0),
        abs(a.conjugate() * b + c.conjugate() * d),
    )
    # the builtin max drops a NaN that is not its first argument
    return math.nan if math.isnan(sum(terms)) else max(terms)


@dataclass(frozen=True)
class Controlled:
    """A 2x2 unitary on ``target``, gated on every (qubit, bit) control holding.

    With no controls the gate acts on its target unconditionally.  The
    matrix's ``_gate_defect``, at most ``GATE_TOL``, is kept as ``defect``.
    """

    controls: tuple[tuple[int, int], ...]
    target: int
    u: np.ndarray
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        controls = tuple(
            (spec_int(q, "control qubit"), spec_int(b, "control bit"))
            for q, b in self.controls
        )
        target = spec_int(self.target, "target")
        qubits = [q for q, _ in controls]
        if len(set(qubits)) != len(qubits):
            raise InputError(f"duplicate control qubits in {controls}")
        if any(b not in (0, 1) for _, b in controls):
            raise InputError(f"control bits must be 0/1 in {controls}")
        if target in qubits:
            raise InputError(f"target {target} overlaps controls {controls}")
        u = np.asarray(self.u, dtype=np.complex128)
        if u.shape != (2, 2):
            raise InputError(f"gate matrix has shape {u.shape}, expected (2, 2)")
        dev = _gate_defect(u)
        if not dev <= GATE_TOL:
            raise NotUnitaryError(f"2x2 gate deviates from unitarity by {dev:.3e}")
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "u", _locked(u))
        object.__setattr__(self, "defect", dev)


@dataclass(frozen=True)
class Swap:
    """Exchange two qubits."""

    a: int
    b: int

    def __post_init__(self):
        a, b = spec_int(self.a, "a"), spec_int(self.b, "b")
        if a == b:
            raise InputError("swap needs two distinct qubits")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


Gate = Controlled | Swap


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n qubits (applied left to right).

    The circuit owns the range check: every qubit a gate names lies in [0, n).
    """

    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_wires(self.n)
        gates = tuple(self.gates)
        for g in gates:
            for q in _gate_qubits(g):
                if not 0 <= q < self.n:
                    raise InputError(f"gate index {q} out of range for n={self.n}")
        object.__setattr__(self, "gates", gates)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def _gate_qubits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, Controlled):
        return tuple(q for q, _ in g.controls) + (g.target,)
    if isinstance(g, Swap):
        return (g.a, g.b)
    raise InputError(f"unknown gate type {type(g).__name__}")


def _run_in_place(block: np.ndarray, c: Circuit) -> None:
    """Run ``c`` along axis 0 of ``block`` ((2^n,) or (2^n, m)), overwriting it.

    The gates act on a (2,)*n (+ (m,)) view of the block, where qubit q is
    axis n-1-q; that view must share the block's memory.
    """
    view = block.reshape((2,) * c.n + block.shape[1:])
    assert np.shares_memory(view, block), "reshape copied; in-place gates would be lost"
    axes = range(c.n - 1, -1, -1)
    for g in c.gates:
        _apply_gate_inplace(view, g, axes)


def _is_phase(u: np.ndarray) -> bool:
    """Whether a 2x2 gate is exactly diag(1, u11), as every transform phase gate is."""
    return u[0, 0] == 1 and u[0, 1] == 0 and u[1, 0] == 0


def _apply_gate_inplace(view: np.ndarray, g: Gate, axes) -> None:
    """Apply a Circuit-checked gate in place to an array of amplitudes, in
    which qubit q's bit is axis ``axes[q]`` of ``view``."""
    sel = [slice(None)] * view.ndim
    if isinstance(g, Swap):
        sel[axes[g.a]], sel[axes[g.b]] = slice(0, 1), slice(1, 2)
        a = view[tuple(sel)]
        sel[axes[g.a]], sel[axes[g.b]] = slice(1, 2), slice(0, 1)
        b = view[tuple(sel)]
        saved = a.copy()
        a[...] = b
        b[...] = saved
        return
    for q, bit in g.controls:
        sel[axes[q]] = slice(bit, bit + 1)
    pair = []
    for bit in (0, 1):
        sel[axes[g.target]] = slice(bit, bit + 1)
        pair.append(view[tuple(sel)])
    _apply_2x2(g.u, *pair)


def _apply_2x2(u: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> None:
    """Overwrite the target-0 and target-1 amplitudes a0, a1 with u applied.

    A 2x2 gate computes u00*a0 + u01*a1 and u10*a0 + u11*a1, the float
    operations of the fancy-index reference kernel in the tests.  A gate
    that is exactly diag(1, u11) only computes u11*a1 in place, and leaves
    a0 unread: every nonzero amplitude part keeps its bits, but an exact
    zero keeps the sign of the product instead of that of the sum with
    0*a0.  Every product is taken scalar first, ``np.multiply(u, a)``, which
    gives the same bits at any stride and into any ``out``; ``a *= u`` does
    not, nor does ``out=a`` on a one-element ``a``, which NumPy 2.4 runs
    through an unfused scalar loop (seen with FMA on AVX-512).
    """
    if _is_phase(u):  # a0 stays
        if a1.size > 1:
            np.multiply(u[1, 1], a1, out=a1)
        else:  # in place on one element NumPy takes an unfused loop
            a1[...] = u[1, 1] * a1
        return
    new0 = u[0, 0] * a0 + u[0, 1] * a1
    a1[...] = u[1, 0] * a0 + u[1, 1] * a1
    a0[...] = new0


def apply_gate(state: QState, g: Gate) -> QState:
    """Apply one gate; returns a new state (norm preserved within 1e-9)."""
    return apply_circuit(state, Circuit(state.n, (g,)))


def apply_circuit(state: QState, c: Circuit) -> QState:
    if c.n != state.n:
        raise InputError(f"circuit on {c.n} qubits applied to {state.n}-qubit state")
    amps = np.array(state.amps)  # the input stays locked; gates update this copy
    _run_in_place(amps, c)
    return QState(state.n, amps)


# Bytes of one column chunk of a circuit's dense matrix: the gate kernel runs on
# (2^n, w) chunks, w = max(1, _CHUNK_BYTES // (16 * 2^n)), so that a chunk and
# its temporaries stay in a core's L2.  At n <= 8 the whole block is one chunk.
# Measured on a 2-core Xeon with 2 MiB of L2 per core, Toeplitz circuit:
# 256 KiB to 2 MiB all beat the single block from n = 10 on; 1 MiB was best
# or within noise of it at every n from 9 to 12.
_CHUNK_BYTES = 1 << 20

# The workspace: one flat byte buffer per name, replaced only by a larger one.
_WORKSPACE: dict[str, np.ndarray] = {}


def _scratch(name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """A contiguous ``shape`` view, of type ``dtype``, of the workspace buffer
    ``name``.

    The buffer is allocated on first use and kept, so a run of chunk routes
    reuses the same pages: with a fresh buffer per call, glibc maps each
    1 MiB request anew once no larger block has been freed, and every page
    faults on first touch.  A buffer holds bytes, so one name may be read as
    different types by turns.  A view is valid until ``name`` is asked for
    again.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    flat = _WORKSPACE.get(name)
    if flat is None or flat.size < size:
        flat = _WORKSPACE[name] = np.empty(size, dtype=np.uint8)
    return flat[:size].view(dtype).reshape(shape)


def _defect_bound(ref_defect: float, eps: float, dim: int) -> float:
    """Bound on the exact check's result for B, from a reference D and max |B - D|.

    Let N = 2^n, E = B - D, and let Delta be the true max |D^dagger D - I|.
    Then B^dagger B - I = (D^dagger D - I) + D^dagger E + E^dagger D + E^dagger E,
    and by Cauchy-Schwarz, with |d_j|^2 = (D^dagger D)_jj <= 1 + Delta and
    |e_j| <= sqrt(N) eps for every column j, each entry of B^dagger B - I is
    at most Delta + 2 sqrt((1 + Delta) N) eps + N eps^2.  A computed check
    differs from the true max by at most gamma = 4 N eps_mach: each Gram
    entry is a length-N complex inner product of columns of norm at most
    about 1, whose rounding error is below (N + 2) sqrt(2) u with
    u = eps_mach / 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.1 and 3.6), and the diagonal's subtraction
    of 1 is exact.  So Delta <= delta + gamma, where delta = ``ref_defect``
    is D's computed check or a bound on it, or a bound on Delta itself
    (``_gate_bound``), and the check on B would compute at most

        delta + 2 gamma + 2 sqrt((1 + delta + gamma) N) eps + N eps^2,

    which is returned.  The relative rounding of eps and of this sum is a
    few u on values below 1e-9, far below gamma >= 8 eps_mach.  So when the
    bound is at most ``STATE_TOL``, the exact check on B would have passed.
    NaN in, NaN out, so a ``not bound <= tol`` test fails closed.
    """
    gamma = 4 * dim * np.finfo(np.float64).eps
    return (
        ref_defect
        + 2 * gamma
        + 2 * math.sqrt((1 + ref_defect + gamma) * dim) * eps
        + dim * eps * eps
    )


def _gate_bound(c: Circuit) -> float:
    """A bound on max |C^dagger C - I| for the matrix C that the kernel or
    growth computes for ``c``, from the ``defect`` its gates keep alone.

    Let u = 2^-53.  A gate's true defect delta is at most d + 8u, d its
    ``_gate_defect``: |a| (``hypot``, within an ulp) squared and added to
    |c|^2 is within 6.1u of |a|^2 + |c|^2 <= 1 + GATE_TOL, and taking 1 off
    is exact; the off-diagonal sum of two complex products is within 4u.
    Its matrix U lies within ||U^dagger U - I|| <= 2 delta (a row sum) of
    its unitary polar factor Q in the 2-norm, as |s - 1| <= |s^2 - 1| for
    each singular value s; so does the gate on the register, U on each
    amplitude pair its controls select, of the unitary Q makes.

    The kernel computes u_y0 a0 + u_y1 a1, or u11 a1 alone for
    diag(1, u11), and growth u_yb t, the same value less a zero term.  A
    complex sum is within u, a product within mu |x| |y|, mu = sqrt(2)
    gamma_2 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.6), or 2u with a fused multiply-add (Jeannerod et al., Math.
    Comp. 86, 2017).  So a pair's error is at most nu ||U||_F ||a|| <=
    4u sqrt(2 + 2 delta) ||a||, nu = mu + u (1 + mu), over disjoint pairs;
    a swap copies.
    Each gate maps a computed column c to Q c plus at most eta ||c||,
    eta = 2 delta + 4u sqrt(2 + 2 delta).  By induction over the gates, as
    for a product of plane rotations (section 19.6), column x is q_x + r_x,
    the q_x orthonormal and ||r_x|| <= tau = prod (1 + eta) - 1, so each
    entry of C^dagger C - I is at most 2 tau + tau^2, which is returned.
    The relative rounding of this arithmetic, (G + 4) u over G gates, is
    far below the 3.8u per gate by which 8u exceeds 6.1u, against
    eta < 3e-12.  A NaN defect gives NaN.
    """
    u = np.finfo(np.float64).eps / 2
    growth = 0.0
    for g in c.gates:
        if isinstance(g, Controlled):
            delta = g.defect + 8 * u
            growth += math.log1p(2 * delta + 4 * u * math.sqrt(2 + 2 * delta))
    tau = math.expm1(growth)
    return 2 * tau + tau * tau


@dataclass(frozen=True)
class DenseUnitary:
    """A 2^n x 2^n unitary; unitarity is validated at construction (1e-9).

    The exact check computes max |M^dagger M - I| (``_unitarity_defect``) and
    keeps it as ``defect``.  A builder whose entries lie within a measured
    distance of a matrix that is unitary in exact arithmetic passes
    ``bound``, the ``_defect_bound`` of that distance: the root table's
    (``gqft_dense``) or the factor table's (``rot1_dense``, ``rot2_dense``).
    A bound at most ``STATE_TOL`` is kept as ``defect``, since the exact
    check would have passed; otherwise, the default NaN included, the exact
    check runs, with its verdict and message.
    """

    n: int
    entries: np.ndarray
    bound: InitVar[float] = math.nan
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, bound):
        dim = 1 << self.n
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise InputError(
                f"matrix shape {entries.shape} does not match n={self.n}"
            )
        dev = bound
        if not dev <= STATE_TOL:
            dev = _unitarity_defect(entries)
            if not dev <= STATE_TOL:
                raise NotUnitaryError(f"matrix deviates from unitarity by {dev:.3e}")
        object.__setattr__(self, "defect", dev)
        object.__setattr__(self, "entries", _locked(entries))


# Index slices of ``_slices``: a whole axis, and bit 0 or 1 of a bit's axis.
_ALL, _BIT = slice(None), (slice(0, 1), slice(1, 2))


def _slices(bits: int, fixed: dict, target) -> tuple[tuple, tuple, tuple]:
    """A shape for 2^bits entries, high bit first, that gives each index bit
    in ``fixed`` an axis of length 2 and merges the runs of bits between, and
    two indices into it: a1 holds each such bit at its value in ``fixed``, a0
    likewise but bit ``target`` at 0."""
    shape, a0, a1, top = [], [], [], bits
    for b in sorted(fixed, reverse=True):
        v = _BIT[fixed[b]]
        shape += (1 << (top - b - 1), 2)
        a1 += (_ALL, v)
        a0 += (_ALL, _BIT[0] if b == target else v)
        top = b
    return (*shape, 1 << top), (*a0, _ALL), (*a1, _ALL)


def _growth_plan(c: Circuit, k: int, grow: bool) -> tuple | None:
    """Compile every gate of ``c`` once for all its chunks of 2^k columns,
    for ``_grow_chunk`` to run on each.

    A chunk is held as t, a C-contiguous (2^m, 2^k) block once m wires are
    mixed: t's column c is the chunk's column c, and each newly mixed wire
    becomes the least significant bit of t's row index.  An unmixed wire's
    row bit is a bit b of its column's index: for b < k a bit of c, from k
    on a bit of the chunk's first column j, held fixed over the chunk.  A
    wire is mixed once a gate other than diag(1, u11) has acted on it.  The
    plan starts in one of two ways:

    * growth (``grow``): one amplitude 1 per column, no wire mixed.  A
      circuit grows when each gate that mixes a wire not yet mixed is
      uncontrolled and every wire ends up mixed; for any other, decided on
      the gate list alone, None is returned.
    * identity: the chunk's identity columns, every wire mixed, wire q as
      row bit q.

    Each gate becomes one step:

    * a gate that mixes a wire on column bit b: ("mix", u, b, f, p), which
      writes u[y, x_b] * t[r] to row 2r + y of buffer p (``_grow_chunk``).
      f holds u[y, x_b] as one row of factors per y, or is None for a held
      bit, whose two scalars are picked per chunk.
    * any other gate but a swap: ("gate", u, held, shape, a0, a1), u run on
      the slices t.reshape(shape)[a0] and [a1] where its target holds 0 and
      1 and each control its bit (a held target only holds 1: a0 is a1), in
      the chunks whose j has bit b at v for each (b, v) in ``held``.
    * a swap: nothing; it relabels its wires.

    Returned as (grow, steps, perm): perm is the transposition of the
    (2,)*n + (2^k,) view of a finished chunk that brings its rows into
    natural order, or None where no swap scrambled the wires and growth
    mixed them from n-1 down to 0, as in every transform circuit.
    """
    n = c.n
    cols = np.arange(1 << k)
    # a wire's column bit while unmixed, ~i once i-th mixed
    where = list(range(n)) if grow else [~(n - 1 - q) for q in range(n)]
    steps: list = []
    m = 0 if grow else n

    def t_bit(e):  # the bit of t's flat index that a wire at ``where`` e < k is
        return k + m - 1 - ~e if e < 0 else e

    for g in c.gates:
        if isinstance(g, Swap):
            where[g.a], where[g.b] = where[g.b], where[g.a]
            continue
        e = where[g.target]
        if e >= 0 and not _is_phase(g.u):
            if g.controls:
                return None
            f = g.u[:, (cols >> e) & 1] if e < k else None
            steps.append(("mix", g.u, e, f, (n - 1 - m) % 2))
            where[g.target] = ~m
            m += 1
            continue
        fixed, held = {}, []
        for q, v in g.controls + ((g.target, 1),):
            if where[q] >= k:
                held.append((where[q], v))
            else:
                fixed[t_bit(where[q])] = v
        target = t_bit(e) if e < k else None
        steps.append(("gate", g.u, tuple(held), *_slices(k + m, fixed, target)))
    if m < n:
        return None
    perm = [~where[n - 1 - a] for a in range(n)]
    return grow, steps, None if perm == list(range(n)) else perm + [n]


def _grow_chunk(plan: tuple, chunk: np.ndarray, spare: np.ndarray, j: int) -> None:
    """Run a circuit's ``_growth_plan`` on columns j, j+1, ... into ``chunk``.

    ``plan`` is compiled for ``chunk``'s width w, a power of two, ``chunk``
    is a contiguous (2^n, w) block, j a multiple of w, and ``spare`` a flat
    complex array of half its size.  A growth plan starts each column as one
    amplitude 1, t = ones((1, w)), and each mix grows t into ``spare`` and
    the front of ``chunk`` by turns, the last one over all of ``chunk``.
    Every product is taken scalar (or factor row) first, as in the kernel:
    a factor row in first position gives the bits of its scalar.  An
    identity plan starts from the chunk's identity columns and runs every
    gate with the kernel's arithmetic (``_apply_2x2``) on t = ``chunk``.

    The kernel computes each grown entry as such a product plus one with a
    structural zero, which is the product itself unless a part of the
    product is -0 and the zero +0.  So every grown column holds the
    kernel's values, also through the gates run on mixed wires, and may
    differ from its bits only in the sign of a zero; an identity plan's
    columns are the kernel's bit for bit.
    """
    grow, steps, perm = plan
    w = chunk.shape[1]
    if grow:
        t = np.ones((1, w), dtype=np.complex128)
    else:
        chunk[...] = 0.0
        cols = np.arange(w)
        chunk[j + cols, cols] = 1.0
        t = chunk
    pools = (chunk.reshape(-1), spare)  # t with an even / odd count of wires left
    for kind, u, *args in steps:
        if kind == "mix":
            b, f, p = args
            f = u[:, (j >> b) & 1] if f is None else f
            grown = pools[p][: 2 * t.size].reshape(-1, 2, w)
            for y in (0, 1):
                np.multiply(f[y], t, out=grown[:, y])
            t = grown.reshape(-1, w)
            continue
        held, shape, a0, a1 = args
        if all((j >> b) & 1 == v for b, v in held):
            view = t.reshape(shape)
            _apply_2x2(u, view[a0], view[a1])
    if perm is not None:
        view = chunk.reshape((2,) * (len(perm) - 1) + (w,))
        chunk[...] = view.transpose(perm).reshape(chunk.shape)


def _chunk_columns(dim: int) -> int:
    """Columns per chunk: the largest power of two at most
    ``_CHUNK_BYTES`` // (16 * dim), at least 1, at most dim."""
    return min(dim, 1 << (max(1, _CHUNK_BYTES // (16 * dim)).bit_length() - 1))


def _circuit_chunks(c: Circuit, grow: bool):
    """Yield (j, chunk) over the column chunks of a circuit's dense matrix:
    columns j, j+1, ... as a contiguous (2^n, w) view of the workspace,
    w = ``_chunk_columns(2^n)``, valid until the next chunk is asked for.

    The circuit is compiled once (``_growth_plan``), and the plan runs on
    each chunk (``_grow_chunk``).  With ``grow``, a circuit that grows, as
    transform circuits and rotation cascades do, has columns whose support
    doubles per mixed wire, and each chunk grows from the support of its
    identity columns: it holds the values of the matching columns of one
    whole-block kernel run, and may differ from them in the sign of a zero,
    where a -0 met +0, and in nothing else.  Any other chunk starts from its
    identity columns and holds that run's bits.
    """
    dim = 1 << c.n
    width = _chunk_columns(dim)
    k = width.bit_length() - 1
    plan = _growth_plan(c, k, grow) or _growth_plan(c, k, False)
    spare = _scratch("spare", (dim * width // 2,))  # half a chunk for growth
    for j in range(0, dim, width):
        chunk = _scratch("chunk", (dim, width))
        _grow_chunk(plan, chunk, spare, j)
        yield j, chunk


def _gathered(n: int, chunks) -> np.ndarray:
    """The 2^n x 2^n matrix whose columns j.. are ``chunk`` for each (j, chunk).

    Each chunk, built in the workspace, is copied into its column slice:
    built in a column slice of the result itself, each row's few entries
    would lie 2^n * 16 bytes apart, where they share cache sets.
    """
    out = np.empty((1 << n, 1 << n), dtype=np.complex128)
    for j, chunk in chunks:
        out[:, j : j + chunk.shape[1]] = chunk
    return out


def circuit_to_dense(c: Circuit) -> DenseUnitary:
    """Materialize a circuit: column x of the result is the circuit run on |x>.

    The circuit's plan runs on each chunk's identity columns
    (``_circuit_chunks`` without growth), gathered into the result, so its
    entries are bit-identical to one whole-block kernel run; the exact check
    runs on them.
    """
    check_cap("dense", c.n)
    return DenseUnitary(c.n, _gathered(c.n, _circuit_chunks(c, grow=False)))


def _formula_matrix(n: int, halves) -> np.ndarray:
    """The matrix that a column reader ``halves`` (see ``_circuit_distance``)
    gives, read at compare's chunk width (``_chunk_columns``)."""
    dim = 1 << n
    width = _chunk_columns(dim)
    out = np.empty((dim, dim), dtype=np.complex128)
    for j in range(0, dim, width):
        for r, half in enumerate(halves(j, width)):
            out[r * dim // 2 : (r + 1) * dim // 2, j : j + width] = half
    return out


def _circuit_distance(c: Circuit, halves) -> float:
    """max |C - F| over a circuit's matrix C and a formula matrix F, held
    against each other one column chunk at a time, in row halves.

    ``halves(j, w)`` is F's column reader: it yields F's columns j..j+w-1
    as two (2^n / 2, w) arrays, rows 0..N/2-1 and then N/2..N-1, each valid
    until the next is asked for, and may write them into the workspace
    buffer ``spare``, which growth has finished with once a chunk of C
    (``_circuit_chunks``) is out.  Each half is subtracted in place from the
    chunk's matching rows, and the moduli go into the same bytes of
    ``spare``, read as float64.  So a compare holds the chunk, ``spare`` and
    a formula's quarter-chunk buffer, and no array of the matrices' size.  A
    max is exact, and |C - F| does not depend on the sign of a zero, so the
    result equals the one-shot ``np.max(np.abs(C - F))`` over the kernel's
    C bit for bit; a NaN in either makes it NaN.

    C's defect is bounded from its gates (``_gate_bound``), F's check from
    that and the distance (``_defect_bound``), and C's check is at most its
    bound plus gamma = 4 N eps_mach.  Where a bound is NaN or above
    ``STATE_TOL``, the exact check runs instead on the gathered columns, F's
    first.  C's differ from the kernel's at most in signs of zeros, so
    ``NotUnitaryError`` is raised exactly as by the two exact checks.
    """
    check_cap("dense", c.n)
    dim = 1 << c.n
    worst = 0.0
    for j, chunk in _circuit_chunks(c, grow=True):
        rows = (chunk[: dim // 2], chunk[dim // 2 :])
        for block, formula in zip(rows, halves(j, chunk.shape[1])):
            np.subtract(block, formula, out=block)
            dist = _scratch("spare", block.shape, np.float64)
            np.abs(block, out=dist)
            worst = np.maximum(worst, dist.max())
    eps = float(worst)
    bound = _gate_bound(c)
    if not _defect_bound(bound, eps, dim) <= STATE_TOL:
        DenseUnitary(c.n, _formula_matrix(c.n, halves))
    if not bound + 4 * dim * np.finfo(np.float64).eps <= STATE_TOL:
        DenseUnitary(c.n, _gathered(c.n, _circuit_chunks(c, grow=True)))
    return eps


def apply_dense(state: QState, m: DenseUnitary) -> QState:
    """Dense matrix-vector application; the norm must survive on its own."""
    if m.n != state.n:
        raise InputError(f"{m.n}-qubit matrix applied to {state.n}-qubit state")
    return QState(state.n, m.entries @ state.amps)


def _shot_draws(rng_seed: int, shots: int) -> np.ndarray:
    """The one uniform in [0, 1) per shot that every sampler of outcomes reads."""
    if shots < 1:
        raise InputError(f"need shots >= 1, got {shots}")
    return rng_from_seed(rng_seed).random(shots)


def measure_all(state: QState, rng_seed: int, shots: int) -> dict[int, int]:
    """Sample ``shots`` full measurements; returns {basis index: count}.

    Identical (state, rng_seed, shots) triples give identical histograms.
    """
    draws = _shot_draws(rng_seed, shots)
    cdf = np.cumsum(state.probabilities())
    cdf[-1] = 1.0
    outcomes = np.searchsorted(cdf, draws, side="right")
    values, counts = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
