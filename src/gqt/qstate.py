"""Statevector substrate: pure states, primitive gates, circuits, dense unitaries.

Basis convention used across the package: basis index k encodes the bit
vector (x_0, ..., x_{n-1}) as k = sum_i x_i * 2^i, so qubit i carries weight
2^i.  Dense matrices are indexed M[row=y][col=x] = <y|U|x>.

Everything here is a pure function over immutable values: amplitude arrays
are write-locked and each operation returns a fresh state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_LIMITS, GATE_TOL, STATE_TOL, Limits, rng_from_seed
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


def bit_reverse(k: int, n: int) -> int:
    """Reverse the n-bit pattern of k (weight 2^i <-> weight 2^(n-1-i))."""
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
        if self.n < 1:
            raise InputError(f"need at least one qubit, got n={self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise InputError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.n},)"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_TOL:
            raise InputError(f"state norm {norm!r} deviates from 1 beyond {STATE_TOL}")
        object.__setattr__(self, "amps", _locked(amps))

    @classmethod
    def basis(cls, n: int, k: int) -> "QState":
        """The computational basis state |k>."""
        if not 0 <= k < (1 << n):
            raise InputError(f"basis index {k} out of range for n={n}")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[k] = 1.0
        return cls(n, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _check_unitary_2x2(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise InputError(f"gate matrix has shape {u.shape}, expected (2, 2)")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if dev > GATE_TOL:
        raise NotUnitaryError(f"2x2 gate deviates from unitarity by {dev:.3e}")
    return _locked(u)


@dataclass(frozen=True)
class SingleQubit:
    """A 2x2 unitary applied to one target qubit."""

    target: int
    u: np.ndarray

    def __post_init__(self):
        if self.target < 0:
            raise InputError(f"negative target {self.target}")
        object.__setattr__(self, "u", _check_unitary_2x2(self.u))


@dataclass(frozen=True)
class Controlled:
    """A 2x2 unitary on ``target``, gated on every (qubit, bit) control holding."""

    controls: tuple[tuple[int, int], ...]
    target: int
    u: np.ndarray

    def __post_init__(self):
        controls = tuple((int(q), int(b)) for q, b in self.controls)
        if not controls:
            raise InputError("controlled gate needs at least one control")
        qubits = [q for q, _ in controls]
        if len(set(qubits)) != len(qubits):
            raise InputError(f"duplicate control qubits in {controls}")
        if any(b not in (0, 1) for _, b in controls):
            raise InputError(f"control bits must be 0/1 in {controls}")
        if any(q < 0 for q in qubits) or self.target < 0:
            raise InputError("negative qubit index")
        if self.target in qubits:
            raise InputError(f"target {self.target} overlaps controls {controls}")
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "u", _check_unitary_2x2(self.u))


@dataclass(frozen=True)
class Swap:
    """Exchange two qubits."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise InputError("swap needs two distinct qubits")
        if self.a < 0 or self.b < 0:
            raise InputError("negative qubit index")


Gate = SingleQubit | Controlled | Swap


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n qubits (applied left to right)."""

    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need at least one qubit, got n={self.n}")
        gates = tuple(self.gates)
        for g in gates:
            for q in _gate_qubits(g):
                if q >= self.n:
                    raise InputError(f"gate index {q} out of range for n={self.n}")
        object.__setattr__(self, "gates", gates)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def _gate_qubits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, SingleQubit):
        return (g.target,)
    if isinstance(g, Controlled):
        return tuple(q for q, _ in g.controls) + (g.target,)
    if isinstance(g, Swap):
        return (g.a, g.b)
    raise InputError(f"unknown gate type {type(g).__name__}")


def _apply_gate_block(block: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply a Circuit-checked gate along axis 0 of ``block`` ((2^n,) or (2^n, m))."""
    idx = np.arange(1 << n)
    if isinstance(g, Swap):
        a_bit = (idx >> g.a) & 1
        b_bit = (idx >> g.b) & 1
        swapped = idx ^ ((a_bit ^ b_bit) * ((1 << g.a) | (1 << g.b)))
        return block[swapped]
    controls = g.controls if isinstance(g, Controlled) else ()
    t = g.target
    mask = ((idx >> t) & 1) == 0
    for q, bit in controls:
        mask &= ((idx >> q) & 1) == bit
    i0 = idx[mask]
    i1 = i0 | (1 << t)
    out = block.copy()
    a0, a1 = block[i0], block[i1]
    u = g.u
    out[i0] = u[0, 0] * a0 + u[0, 1] * a1
    out[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return out


def apply_gate(state: QState, g: Gate) -> QState:
    """Apply one gate; returns a new state (norm preserved within 1e-9)."""
    return apply_circuit(state, Circuit(state.n, (g,)))


def apply_circuit(state: QState, c: Circuit) -> QState:
    if c.n != state.n:
        raise InputError(f"circuit on {c.n} qubits applied to {state.n}-qubit state")
    amps = np.asarray(state.amps)
    for g in c.gates:
        amps = _apply_gate_block(amps, g, c.n)
    return QState(state.n, amps)


@dataclass(frozen=True)
class DenseUnitary:
    """A 2^n x 2^n unitary; unitarity is validated at construction (1e-9)."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise InputError(
                f"matrix shape {entries.shape} does not match n={self.n}"
            )
        dev = np.max(np.abs(entries.conj().T @ entries - np.eye(dim)))
        if dev > STATE_TOL:
            raise NotUnitaryError(f"matrix deviates from unitarity by {dev:.3e}")
        object.__setattr__(self, "entries", _locked(entries))


def circuit_to_dense(c: Circuit, limits: Limits = DEFAULT_LIMITS) -> DenseUnitary:
    """Materialize a circuit: column x of the result is the circuit run on |x>."""
    limits.check("dense", c.n)
    block = np.eye(1 << c.n, dtype=np.complex128)
    for g in c.gates:
        block = _apply_gate_block(block, g, c.n)
    return DenseUnitary(c.n, block)


def apply_dense(state: QState, m: DenseUnitary) -> QState:
    """Dense matrix-vector application; the norm must survive on its own."""
    if m.n != state.n:
        raise InputError(f"{m.n}-qubit matrix applied to {state.n}-qubit state")
    return QState(state.n, m.entries @ state.amps)


def measure_all(state: QState, rng_seed: int, shots: int) -> dict[int, int]:
    """Sample ``shots`` full measurements; returns {basis index: count}.

    Identical (state, rng_seed, shots) triples give identical histograms.
    """
    if shots < 1:
        raise InputError(f"shots must be positive, got {shots}")
    probs = state.probabilities()
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    draws = rng_from_seed(rng_seed).random(shots)
    outcomes = np.searchsorted(cdf, draws, side="right")
    values, counts = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
