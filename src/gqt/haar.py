"""The recursive orthogonal (Haar) transform on 2^n points.

Built from A_2 = [[1, 1], [1, -1]] by the block recursion

    A_{2m} = [ A_m  kron  [1,  1] ]
             [ I_m  kron  [1, -1] ],

then row-normalized into the orthogonal matrix P.  Columns have a closed
form: applying A to the basis ket |x_0 ... x_{n-1}> gives

    |0...0>  +  sum_i (-1)^(x_i) |0...0 1 x_0 ... x_{i-1}>,

one summand per leading-one position, so every column of P has exactly
n + 1 nonzeros with magnitudes sqrt(2^i)/sqrt(2^n).

Basis order (module convention, pinned by the 4x4 golden matrix): register
slot 0 is the LEFTMOST ket position and the MOST significant index bit, so
ket (s_0, ..., s_{n-1}) sits at index sum_j s_j * 2^(n-1-j).  Circuits
returned here address qubit n-1-j for slot j, which makes a state's
amplitude vector index-compatible with these matrices under the package's
weight-2^i qubit convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_cap, check_wires
from .errors import InputError
from .qstate import HADAMARD, Circuit, Controlled, QState, Swap, _unitarity_defect


def _slot_bits(n: int, slots) -> tuple[int, ...]:
    slots = tuple(int(b) for b in slots)
    if len(slots) != n or any(b not in (0, 1) for b in slots):
        raise InputError(f"bad slot bits {slots} for n={n}")
    return slots


def _column_terms(x: tuple[int, ...]):
    """(i, ket, sign) for each leading-one summand of A|x>; see the module doc."""
    for i in range(len(x)):
        yield i, (1 << i) + sum(x[k] << (i - 1 - k) for k in range(i)), 1 - 2 * x[i]


def slot_index(n: int, slots) -> int:
    """Index of the ket with the given register-slot bits (slot 0 leftmost)."""
    return sum(b << (n - 1 - j) for j, b in enumerate(_slot_bits(n, slots)))


@dataclass(frozen=True)
class HaarMatrix:
    """The integer recursion matrix ``a`` and its row-normalized form ``p``."""

    n: int
    a: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a)
        p = np.asarray(self.p, dtype=np.float64)
        if not np.all(np.isin(a, (-1, 0, 1))):
            raise InputError("a entries must lie in {-1, 0, 1}")
        if np.any(~a.any(axis=1)):
            raise InputError("a must have no zero row")
        dev = _unitarity_defect(p.T)
        if not dev <= 1e-10:
            raise InputError(f"p rows deviate from orthonormality by {dev:.3e}")
        a.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)


def haar_matrix(n: int) -> HaarMatrix:
    """Build A and P on 2^n points via the block recursion."""
    check_wires(n)
    check_cap("dense", n)
    a = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for m in range(2, n + 1):
        half = 1 << (m - 1)
        a = np.vstack(
            [
                np.kron(a, np.array([[1, 1]], dtype=np.int64)),
                np.kron(np.eye(half, dtype=np.int64), np.array([[1, -1]], dtype=np.int64)),
            ]
        )
    norms = np.sqrt((a * a).sum(axis=1).astype(np.float64))
    return HaarMatrix(n, a, a / norms[:, None])


def haar_apply_basis(n: int, x) -> QState:
    """P applied to the basis ket with slot bits x = (x_0, ..., x_{n-1}).

    Built directly from the closed form (never by matrix multiplication):
    amplitude 1/sqrt(2^n) on the zero ket, plus for each i the amplitude
    (-1)^(x_i) * sqrt(2^i)/sqrt(2^n) on the ket with slots
    (0^(n-i-1), 1, x_0, ..., x_{i-1}).  Equals column ``slot_index(n, x)``
    of ``haar_matrix(n).p``.
    """
    check_cap("state", n)
    x = _slot_bits(n, x)
    dim = 1 << n
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = 1.0
    for i, ket, sign in _column_terms(x):
        amps[ket] = sign * np.sqrt(2.0**i)
    return QState(n, amps / np.sqrt(dim))


def haar_matrix_identity_check(n: int, x, hm: HaarMatrix | None = None) -> bool:
    """Exact integer check: column x of ``a`` equals the closed-form ket sum."""
    hm = hm if hm is not None else haar_matrix(n)
    expected = np.zeros(1 << n, dtype=np.int64)
    expected[0] += 1
    for _, ket, sign in _column_terms(_slot_bits(n, x)):
        expected[ket] += sign
    return bool(np.array_equal(hm.a[:, slot_index(n, x)], expected))


def haar_inverse_apply(n: int, ket: int) -> QState:
    """P^T applied to one basis ket, by closed form.

    Every basis index decomposes uniquely: ket 0 maps to the uniform state;
    a nonzero ket has slots (0^(n-i-1), 1, x_0, ..., x_{i-1}) and maps to

        |x_0 ... x_{i-1}> (|0>-|1>)/sqrt(2) (uniform on the last n-i-1 slots),

    i.e. prefix fixed, a sign from slot i, weight 2^(-(n-i)/2).
    """
    check_wires(n)
    dim = 1 << n
    if not 0 <= ket < dim:
        raise InputError(f"ket index {ket} out of range for n={n}")
    check_cap("state", n)
    idx = np.arange(dim)
    if ket == 0:
        return QState(n, np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))
    i = ket.bit_length() - 1  # leading-one slot is n-1-i; prefix length i
    prefix = ket - (1 << i)
    match = (idx >> (n - i)) == prefix
    sign_bit = (idx >> (n - 1 - i)) & 1
    amps = np.where(match, (-1.0) ** sign_bit, 0.0) / np.sqrt(2.0 ** (n - i))
    return QState(n, amps.astype(np.complex128))


def haar_inverse_swap_count(n: int, i: int) -> int:
    """Adjacent-swap count of the inverse circuit: (i+1)(n-i-1) + i."""
    return (i + 1) * (n - i - 1) + i


def haar_inverse_circuit(n: int, i: int) -> Circuit:
    """Circuit applying P^T to kets of the family (0^(n-i-1), 1, x_0..x_{i-1}).

    Reorders slots to (x_0..x_{i-1}, 1, 0^(n-i-1)) with exactly
    (i+1)(n-i-1) + i adjacent swaps, then applies H to slots i..n-1 (H maps
    the moved |1> to (|0>-|1>)/sqrt(2) and each trailing |0> to uniform).
    Valid on all 2^i kets of the family; slot j addresses qubit n-1-j.
    """
    if not 0 <= i < n:
        raise InputError(f"level index {i} out of range for n={n}")
    check_cap("state", n)
    gates: list = []

    def swap_slots(a: int, b: int):
        qa, qb = n - 1 - a, n - 1 - b
        gates.append(Swap(min(qa, qb), max(qa, qb)))

    p = n - i - 1  # current block start; block = (1, x_0..x_{i-1})
    for _ in range(n - i - 1):
        for r in range(i + 1):
            swap_slots(p - 1 + r, p + r)
        p -= 1
    for r in range(i):
        swap_slots(r, r + 1)
    for s in range(i, n):
        gates.append(Controlled((), n - 1 - s, HADAMARD))
    return Circuit(n, tuple(gates))
