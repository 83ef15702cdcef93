"""Shift recovery from dihedral-style coset states via a phase-matrix transform.

An instance holds a hidden shift d in [0, 2^n) and n sample integers s_i.
The available state is the phase-coded product

    (1/sqrt(N)) prod_i (|0> + w^(d*s_i) |1>)  =  (1/sqrt(N)) sum_x w^(z.x) |x>,

with z_i = d * s_i and w = exp(2*pi*1j/N).  Applying the entrywise conjugate
of the transform built from a lower-triangular phase matrix assembled out of
the samples concentrates probability on the bit-reversal of d:

    amp(y) = (1/N) sum_x w^((z - y.phi) x)  =>  p(y) = prod_i cos^2(pi*lam_i/N),

with lam = z - y.phi.  For samples whose bit matrix is unit upper-triangular
(bit i of s_i set, lower bits clear) the target lambda vanishes identically
and recovery is deterministic.

Since w^N = 1, the conjugate transform is the transform of (-phi) mod N,
which is triangular again; the procedure runs its circuit on the coset state
and builds no 2^n x 2^n matrix, so shift recovery obeys the state cap.

All modular arithmetic here is exact integer mod 2^n; floats appear only in
amplitudes and probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_cap, check_wires
from .errors import InputError
from .gqft import GqftSpec, gqft_circuit
from .phasemat import PhaseMatrix
from .qstate import QState, apply_circuit, bit_reverse, measure_all


@dataclass(frozen=True)
class DhspInstance:
    """A hidden shift d and the sample integers s_0..s_{n-1}, all mod 2^n."""

    n: int
    d: int
    s: tuple[int, ...]

    def __post_init__(self):
        check_wires(self.n)
        dim = 1 << self.n
        if not 0 <= self.d < dim:
            raise InputError(f"d={self.d} out of range [0, {dim})")
        s = tuple(int(v) for v in self.s)
        if len(s) != self.n:
            raise InputError(f"need exactly {self.n} samples, got {len(s)}")
        if any(not 0 <= v < dim for v in s):
            raise InputError(f"samples {s} out of range [0, {dim})")
        object.__setattr__(self, "s", s)

    @property
    def z(self) -> tuple[int, ...]:
        """The phase integers z_i = d * s_i (exact, not reduced)."""
        return tuple(self.d * v for v in self.s)

    def d_bit(self, j: int) -> int:
        return (self.d >> j) & 1

    def shifted_sample(self, j: int, i: int) -> int:
        """S[j][i] = s_i * 2^j mod 2^n."""
        return (self.s[i] << j) % (1 << self.n)


def coset_state(inst: DhspInstance) -> QState:
    """The sample-encoded product state, amp(x) = w^(z.x) / sqrt(N)."""
    n = inst.n
    check_cap("state", n)
    dim = 1 << n
    idx = np.arange(dim)
    zx = np.zeros(dim, dtype=np.float64)
    for i, v in enumerate(inst.z):
        zx += (v % dim) * ((idx >> i) & 1)
    return QState(n, np.exp(2j * np.pi * np.mod(zx, dim) / dim) / np.sqrt(dim))


def phi_from_samples(inst: DhspInstance) -> PhaseMatrix:
    """The lower-triangular recovery matrix.

    Diagonal 2^(n-1); below it, cell (j, i) holds S[n-j-1][i] = s_i * 2^(n-j-1)
    mod 2^n; strictly-upper cells are zero, so the triangular condition holds.
    """
    n = inst.n
    phi = np.zeros((n, n))
    for i in range(n):
        phi[i, i] = float(1 << (n - 1))
        for j in range(i + 1, n):
            phi[j, i] = float(inst.shifted_sample(n - j - 1, i))
    return PhaseMatrix(n, phi)


def run_procedure(inst: DhspInstance, phi: PhaseMatrix | None = None) -> QState:
    """Conjugated transform applied to the coset state, as a circuit.

    The applied matrix has entries w^(-y.phi.x)/sqrt(N), the entrywise
    conjugate of the transform of ``phi``, which gives exactly
    amp(y) = (1/N) sum_x w^((z - y.phi).x).  Since w^N = 1 that conjugate is
    the transform of (-phi) mod N, so its triangular circuit runs on the
    coset state and no 2^n x 2^n matrix is built; the state cap applies, not
    the dense cap.  Defaults to the sample-derived matrix.  A substitute
    ``phi`` must be triangular once reduced mod N; one that is valid only in
    the general regime raises ValidityError.
    """
    pm = phi if phi is not None else phi_from_samples(inst)
    conj = PhaseMatrix(pm.n, np.mod(-pm.phi, pm.modulus))
    return apply_circuit(coset_state(inst), gqft_circuit(GqftSpec(conj)))


def success_probability(
    inst: DhspInstance, y: int, phi: PhaseMatrix | None = None
) -> float:
    """p(y) = prod_i cos^2(pi * lam_i / N), lam = (z - y.phi) mod N.

    The one formula for the outcome law; defaults to the sample-derived
    matrix.  z is reduced mod N in integers first, so lam is exact whenever
    phi is integral with column sums below 2^53 (the default matrix through
    n = 47).  Equals |amp(y)|^2 of ``run_procedure`` for every outcome y.
    """
    n = inst.n
    dim = 1 << n
    if not 0 <= y < dim:
        raise InputError(f"outcome {y} out of range [0, {dim})")
    pm = phi if phi is not None else phi_from_samples(inst)
    z = np.array([v % dim for v in inst.z], dtype=np.float64)
    y_bits = np.array([(y >> j) & 1 for j in range(n)], dtype=np.float64)
    lam = np.mod(z - y_bits @ pm.phi, dim)
    # A wire at exactly N/2 gives 0, where the float cos(pi/2)^2 is 3.7e-33.
    return float(np.prod(np.where(lam == dim / 2, 0.0, np.cos(np.pi * lam / dim) ** 2)))


def lambda_vector(inst: DhspInstance) -> tuple[int, ...]:
    """The exact integer mismatch vector at the bit-reversed target outcome.

    lam_i = sum_{j=n-1-i}^{n-1} S[j][i] * d_j  -  2^(n-1) * d_{n-1-i}.
    """
    n = inst.n
    return tuple(
        sum(inst.shifted_sample(j, i) * inst.d_bit(j) for j in range(n - 1 - i, n))
        - (1 << (n - 1)) * inst.d_bit(n - 1 - i)
        for i in range(n)
    )


@dataclass(frozen=True)
class DhspAnalysis:
    """Derived quantities: recovery matrix, lambda, its probability, and the
    maximum count of nonzero d-segments (cost exponent of brute matching).

    Segment (i, k), k <= i, keeps the bits of d at positions n-1-i .. n-1-k,
    so it is nonzero exactly when one of those bits is set: for k up to
    min(i, n-1-p), with p the lowest set bit of d at or above n-1-i.  The
    count peaks at i = n-1, so f = n - nu(d), where nu(d) is the index of
    d's lowest set bit, and f = 0 for d = 0.
    """

    phi: PhaseMatrix
    lam: tuple[int, ...]
    p_success: float
    f: int


def analyze(inst: DhspInstance) -> DhspAnalysis:
    pm = phi_from_samples(inst)
    p = success_probability(inst, bit_reverse(inst.d, inst.n), pm)
    f = inst.n + 1 - (inst.d & -inst.d).bit_length() if inst.d else 0
    return DhspAnalysis(pm, lambda_vector(inst), p, f)


@dataclass(frozen=True)
class RecoveryResult:
    """One run: the analysis it ran on (``analytic_p`` is its p_success), the
    majority estimate of d, the share of trials reading d, the raw outcomes."""

    analysis: DhspAnalysis
    d_hat: int
    empirical_rate: float
    histogram: dict[int, int]

    @property
    def analytic_p(self) -> float:
        return self.analysis.p_success


def recover_d(inst: DhspInstance, trials: int, rng_seed: int) -> RecoveryResult:
    """Analyze once, run the procedure on that phi, measure ``trials`` times.

    d_hat bit-reverses the majority outcome, the smallest among tied ones;
    empirical_rate is the share of trials that read bit_reverse(d).
    """
    analysis = analyze(inst)
    hist = measure_all(run_procedure(inst, analysis.phi), rng_seed, trials)
    best = max(hist.values())
    d_hat = min(bit_reverse(y, inst.n) for y, c in hist.items() if c == best)
    rate = hist.get(bit_reverse(inst.d, inst.n), 0) / trials
    return RecoveryResult(analysis, d_hat, rate, hist)


def search_perfect_samples(n: int) -> tuple[int, ...]:
    """The smallest samples whose bit matrix is unit upper-triangular.

    Row i must have bit i set and bits below i clear; 2^i is the smallest
    such integer, so the result is (2^0, ..., 2^(n-1)).  For every d the
    resulting lambda vector is identically zero and recovery succeeds with
    certainty.
    """
    return tuple(1 << i for i in range(n))


def samples_random(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """n uniform samples in [0, 2^n)."""
    return tuple(int(v) for v in rng.integers(0, 1 << n, size=n))


def samples_perfect_random(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A random member of the unit-upper-triangular family per row."""
    out = []
    for i in range(n):
        high = int(rng.integers(0, 1 << (n - i - 1))) if i + 1 < n else 0
        out.append((1 << i) | (high << (i + 1)))
    return tuple(out)


def samples_mixed(n: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """First k rows from the triangular family, the rest uniform."""
    if not 0 <= k <= n:
        raise InputError(f"mixed split k={k} out of range [0, {n}]")
    perfect = samples_perfect_random(n, rng)
    uniform = samples_random(n, rng)
    return perfect[:k] + uniform[k:]


def phi0_matrix(inst: DhspInstance) -> PhaseMatrix:
    """The exact-encoding matrix with cell (j, i) = s_i * 2^j (no reduction).

    Satisfies (d_bits . phi0)_i = d * s_i exactly, so z - d.phi = d.(phi0 - phi)
    and the weight of outcome d, |sum_x w^(d (phi0 - phi) x)|^2 / N^2, is
    ``success_probability(inst, inst.d, phi)`` for any phi.
    """
    n = inst.n
    phi = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            phi[j, i] = float(inst.s[i] << j)
    return PhaseMatrix(n, phi)
