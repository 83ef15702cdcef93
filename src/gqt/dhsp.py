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

All modular arithmetic here is exact integer mod 2^n; floats appear only in
amplitudes and probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import InputError
from .gqft import GqftSpec, gqft_dense
from .phasemat import PhaseMatrix
from .qstate import QState, bit_reverse, measure_all


@dataclass(frozen=True)
class DhspInstance:
    """A hidden shift d and the sample integers s_0..s_{n-1}, all mod 2^n."""

    n: int
    d: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need n >= 1, got {self.n}")
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


def coset_state(inst: DhspInstance, limits: Limits = DEFAULT_LIMITS) -> QState:
    """The sample-encoded product state, amp(x) = w^(z.x) / sqrt(N)."""
    n = inst.n
    limits.check("state", n)
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


def run_procedure(
    inst: DhspInstance,
    phi: PhaseMatrix | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> QState:
    """Conjugated transform applied to the coset state.

    The applied matrix has entries w^(-y.phi.x)/sqrt(N) (the entrywise
    conjugate of the transform of ``phi``), which gives exactly
    amp(y) = (1/N) sum_x w^((z - y.phi).x).  Defaults to the sample-derived
    matrix; any valid phase matrix may be substituted.
    """
    pm = phi if phi is not None else phi_from_samples(inst)
    spec = GqftSpec.from_phase_matrix(pm, limits=limits)
    w = np.conj(gqft_dense(spec, limits=limits).entries)
    return QState(inst.n, w @ coset_state(inst, limits=limits).amps)


def success_probability(
    inst: DhspInstance, y: int, phi: PhaseMatrix | None = None
) -> float:
    """p(y) = prod_i cos^2(pi * (z_i - (y.phi)_i) / N).

    Evaluated in exact integers for the default sample-derived matrix.
    Equals |amp(y)|^2 of ``run_procedure`` for every outcome y.
    """
    n = inst.n
    dim = 1 << n
    if not 0 <= y < dim:
        raise InputError(f"outcome {y} out of range [0, {dim})")
    y_bits = [(y >> j) & 1 for j in range(n)]
    if phi is None:
        lam = []
        for i in range(n):
            ytilde = (1 << (n - 1)) * y_bits[i] + sum(
                inst.shifted_sample(n - j - 1, i) * y_bits[j]
                for j in range(i + 1, n)
            )
            lam.append(inst.z[i] - ytilde)
        lam = np.asarray(lam, dtype=np.float64)
    else:
        lam = np.asarray(inst.z, dtype=np.float64) - np.asarray(y_bits) @ phi.phi
    return float(np.prod(np.cos(np.pi * lam / dim) ** 2))


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


def _d_segment(inst: DhspInstance, i: int, k: int) -> int:
    n = inst.n
    return sum(
        inst.d_bit(n - i + j - 1) << (n - i + j - 1) for j in range(i - k + 1)
    )


@dataclass(frozen=True)
class DhspAnalysis:
    """Derived quantities: recovery matrix, lambda, its probability, and the
    maximum count of nonzero d-segments (cost exponent of brute matching)."""

    phi: PhaseMatrix
    lam: tuple[int, ...]
    p_success: float
    f: int


def analyze(inst: DhspInstance) -> DhspAnalysis:
    lam = lambda_vector(inst)
    dim = 1 << inst.n
    p = float(np.prod(np.cos(np.pi * np.asarray(lam, dtype=np.float64) / dim) ** 2))
    f = 0
    for i in range(inst.n):
        f = max(f, sum(1 for k in range(i + 1) if _d_segment(inst, i, k) != 0))
    return DhspAnalysis(phi_from_samples(inst), lam, p, f)


@dataclass(frozen=True)
class RecoveryResult:
    d_hat: int
    empirical_rate: float
    analytic_p: float
    histogram: dict[int, int]


def recover_d(
    inst: DhspInstance,
    trials: int,
    rng_seed: int,
    limits: Limits = DEFAULT_LIMITS,
) -> RecoveryResult:
    """Measure the procedure output ``trials`` times and bit-reverse outcomes.

    d_hat is the majority candidate (ties toward the smallest integer);
    empirical_rate is the fraction of trials recovering the true d.
    """
    state = run_procedure(inst, limits=limits)
    hist = measure_all(state, rng_seed, trials)
    # Bit reversal is a bijection, so no two outcomes share a candidate.
    candidates = {bit_reverse(y, inst.n): c for y, c in hist.items()}
    best = max(candidates.values())
    d_hat = min(d for d, c in candidates.items() if c == best)
    rate = candidates.get(inst.d, 0) / trials
    return RecoveryResult(
        d_hat=d_hat,
        empirical_rate=rate,
        analytic_p=success_probability(inst, bit_reverse(inst.d, inst.n)),
        histogram=hist,
    )


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

    Satisfies (d_bits . phi0)_i = d * s_i exactly, so the procedure's target
    amplitude can be written in terms of phi0 - phi alone.
    """
    n = inst.n
    phi = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            phi[j, i] = float(inst.s[i] << j)
    return PhaseMatrix(n, phi)


def phi0_success_probability(inst: DhspInstance, phi: PhaseMatrix) -> float:
    """p(y = d) = |sum_x w^(d (phi0 - phi) x)|^2 / N^2 for any valid phi.

    Factorizes over columns; agrees with |run_procedure(inst, phi).amps[d]|^2.
    """
    n = inst.n
    dim = 1 << n
    d_bits = np.array([(inst.d >> j) & 1 for j in range(n)], dtype=np.float64)
    w = np.mod(d_bits @ (phi0_matrix(inst).phi - phi.phi), dim)
    total = np.prod(1.0 + np.exp(2j * np.pi * w / dim))
    return float(np.abs(total) ** 2) / dim**2
