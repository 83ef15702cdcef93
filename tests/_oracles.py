"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, kron
products, double sums) so that agreement with the vectorized library code is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gqt import (
    Circuit,
    Controlled,
    DhspInstance,
    GqftSpec,
    PhaseMatrix,
    RotSpec,
    Swap,
    ValidityReport,
    phi0_matrix,
    wraparound_distance,
)
from gqt import rotft
from gqt.config import check_cap
from gqt.gqft import _wire_exponents
from gqt.phasemat import CRITERION_TOL
from gqt.qstate import Gate, _apply_2x2, bit_table, unit_roots

_I2 = np.eye(2, dtype=np.complex128)


def bits(k: int, n: int) -> list[int]:
    """Little-endian bit list of k."""
    return [(k >> i) & 1 for i in range(n)]


def brute_dft(n: int) -> np.ndarray:
    """The plain discrete Fourier matrix by double loop."""
    dim = 1 << n
    w = np.exp(2j * np.pi / dim)
    m = np.empty((dim, dim), dtype=np.complex128)
    for y in range(dim):
        for x in range(dim):
            m[y, x] = w ** (x * y)
    return m / np.sqrt(dim)


def brute_phase_transform(phi: np.ndarray, n: int) -> np.ndarray:
    """Entry (y, x) = exp(2*pi*1j * sum_ij y_i phi_ij x_j / N) / sqrt(N)."""
    dim = 1 << n
    m = np.empty((dim, dim), dtype=np.complex128)
    for y in range(dim):
        yb = bits(y, n)
        for x in range(dim):
            xb = bits(x, n)
            e = sum(yb[i] * phi[i][j] * xb[j] for i in range(n) for j in range(n))
            m[y, x] = np.exp(2j * np.pi * e / dim)
    return m / np.sqrt(dim)


def brute_a_of_z(phi: np.ndarray, n: int, z) -> complex:
    """(1/N) sum_x w^((z Phi) . x_bits) by explicit loop; z may be signed."""
    dim = 1 << n
    zphi = [sum(z[i] * phi[i][j] for i in range(n)) for j in range(n)]
    total = 0j
    for x in range(dim):
        xb = bits(x, n)
        e = sum(zphi[j] * xb[j] for j in range(n))
        total += np.exp(2j * np.pi * e / dim)
    return total / dim


def gate_dense_kron(gate, n: int) -> np.ndarray:
    """Dense matrix of one gate via kron products and projectors.

    Qubit q carries weight 2^q, so the kron chain runs q = n-1 down to 0.
    """
    if isinstance(gate, Swap):
        dim = 1 << n
        m = np.zeros((dim, dim), dtype=np.complex128)
        for x in range(dim):
            xb = bits(x, n)
            xb[gate.a], xb[gate.b] = xb[gate.b], xb[gate.a]
            y = sum(b << q for q, b in enumerate(xb))
            m[y, x] = 1.0
        return m
    assert isinstance(gate, Controlled)
    if not gate.controls:
        factors = [gate.u if q == gate.target else _I2 for q in range(n)]
        return _kron_le(factors)
    ctrl = dict(gate.controls)
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=np.complex128)
    proj = {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}
    for assignment in range(1 << len(ctrl)):
        qubits = sorted(ctrl)
        setting = {q: (assignment >> idx) & 1 for idx, q in enumerate(qubits)}
        fire = all(setting[q] == want for q, want in ctrl.items())
        factors = []
        for q in range(n):
            if q in setting:
                factors.append(proj[setting[q]].astype(np.complex128))
            elif q == gate.target:
                factors.append(gate.u if fire else _I2)
            else:
                factors.append(_I2)
        m += _kron_le(factors)
    return m


def _kron_le(factors: list[np.ndarray]) -> np.ndarray:
    """Kron the per-qubit factors with qubit 0 least significant."""
    m = np.eye(1, dtype=np.complex128)
    for f in factors[::-1]:
        m = np.kron(m, f)
    return m


def circuit_dense_kron(c: Circuit) -> np.ndarray:
    """Product of per-gate kron matrices, last gate leftmost."""
    m = np.eye(1 << c.n, dtype=np.complex128)
    for g in c.gates:
        m = gate_dense_kron(g, c.n) @ m
    return m


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gate(n: int, rng: np.random.Generator):
    kind = rng.integers(0, 3)
    if kind == 0 or n == 1:
        return Controlled((), int(rng.integers(0, n)), random_unitary2(rng))
    if kind == 1:
        a, b = rng.choice(n, size=2, replace=False)
        return Swap(int(a), int(b))
    k = int(rng.integers(1, min(n, 3)))
    chosen = rng.choice(n, size=k + 1, replace=False)
    target = int(chosen[0])
    controls = tuple((int(q), int(rng.integers(0, 2))) for q in chosen[1:])
    return Controlled(controls, target, random_unitary2(rng))


def random_circuit(n: int, rng: np.random.Generator, length: int) -> Circuit:
    return Circuit(n, tuple(random_gate(n, rng) for _ in range(length)))


def random_triangular_phi(n: int, rng: np.random.Generator) -> PhaseMatrix:
    """Diagonal 2^(n-1), uppers random multiples of 2^n, lowers random reals."""
    dim = 1 << n
    phi = np.zeros((n, n))
    for i in range(n):
        phi[i, i] = dim / 2
        for j in range(i + 1, n):
            phi[i, j] = dim * int(rng.integers(-1, 2))
        for j in range(i):
            phi[i, j] = rng.uniform(0.0, dim)
    return PhaseMatrix(n, phi)


def zero_lower_phi(n: int, rng: np.random.Generator) -> PhaseMatrix:
    """A triangular integral phi with some lower entries = 0 mod N: identity phase gates."""
    dim = 1 << n
    phi = np.triu(dim * rng.integers(-1, 2, size=(n, n)), 1).astype(np.float64)
    lower = rng.integers(0, dim, size=(n, n)) * (rng.random((n, n)) < 0.5)
    phi += np.tril(lower + dim * rng.integers(-1, 2, size=(n, n)), -1)
    phi[1, 0] = dim * int(rng.integers(-1, 2))  # at least one cell = 0 mod N
    np.fill_diagonal(phi, dim / 2)
    return PhaseMatrix(n, phi)


def random_cond4_spec(n: int, rng: np.random.Generator) -> GqftSpec:
    return GqftSpec.from_phase_matrix(random_triangular_phi(n, rng))


def random_rot_spec(n: int, variant: str, rng: np.random.Generator) -> RotSpec:
    two_pi = 2 * np.pi
    thetas = {}
    for i in range(1, n):
        for j in range(i):
            if rng.random() < 0.8:
                thetas[(i, j)] = (
                    float(rng.uniform(0, two_pi)),
                    float(rng.uniform(0, two_pi)),
                )
    alpha0 = None
    if variant == "rotation_first":
        alpha0 = tuple(float(a) for a in rng.uniform(0, two_pi, size=n))
    return RotSpec(n, variant, thetas, alpha0)


def brute_coset_amps(inst: DhspInstance) -> np.ndarray:
    n = inst.n
    dim = 1 << n
    z = inst.z
    amps = np.empty(dim, dtype=np.complex128)
    for x in range(dim):
        xb = bits(x, n)
        e = sum(z[i] * xb[i] for i in range(n))
        amps[x] = np.exp(2j * np.pi * (e % dim) / dim)
    return amps / np.sqrt(dim)


def brute_run_amps(inst: DhspInstance, phi: np.ndarray) -> np.ndarray:
    """amp(y) = (1/N) sum_x w^((z - y phi) . x_bits), all by loop."""
    n = inst.n
    dim = 1 << n
    z = inst.z
    out = np.zeros(dim, dtype=np.complex128)
    for y in range(dim):
        yb = bits(y, n)
        lam = [z[i] - sum(yb[j] * phi[j][i] for j in range(n)) for i in range(n)]
        for x in range(dim):
            xb = bits(x, n)
            e = sum(lam[i] * xb[i] for i in range(n))
            out[y] += np.exp(2j * np.pi * (e % dim) / dim)
    return out / dim


def exact_outcome_probability(inst: DhspInstance, y: int) -> float:
    """p(y) for the sample-derived matrix with lam reduced in Python integers.

    Cell (j, i) below the diagonal is s_i * 2^(n-j-1) mod N and the diagonal
    is N/2, so lam_i = (d*s_i - sum_j y_j cell(j, i)) mod N holds exactly at
    every n; only the cosines are floats.
    """
    n = inst.n
    dim = 1 << n
    yb = bits(y, n)
    p = 1.0
    for i in range(n):
        cells = (dim >> 1) * yb[i] + sum(
            yb[j] * ((inst.s[i] << (n - j - 1)) % dim) for j in range(i + 1, n)
        )
        p *= math.cos(math.pi * ((inst.d * inst.s[i] - cells) % dim) / dim) ** 2
    return p


def brute_phi0_probability(inst: DhspInstance, phi: np.ndarray) -> float:
    """Weight of outcome d, |sum_x w^(d (phi0 - phi) . x_bits)|^2 / N^2, by loop."""
    n = inst.n
    dim = 1 << n
    db = bits(inst.d, n)
    phi0 = phi0_matrix(inst).phi
    c = [sum(db[j] * (phi0[j][i] - phi[j][i]) for j in range(n)) for i in range(n)]
    total = 0j
    for x in range(dim):
        xb = bits(x, n)
        e = sum(c[i] * xb[i] for i in range(n))
        total += np.exp(2j * np.pi * (e % dim) / dim)
    return abs(total) ** 2 / dim**2


def coset_product_amps(inst: DhspInstance) -> np.ndarray:
    """Product form of the coset state: kron of (|0> + w^(z_i)|1>) / sqrt(2).

    Qubit i carries weight 2^i, so later factors go to the left of the kron.
    """
    dim = 1 << inst.n
    amps = np.ones(1, dtype=np.complex128)
    for zi in inst.z:
        factor = np.array([1.0, np.exp(2j * np.pi * (zi % dim) / dim)])
        amps = np.kron(factor, amps)
    return amps / np.sqrt(dim)


def lambda_inner_product(inst: DhspInstance) -> tuple[int, ...]:
    """lam_i as the inner product of shifted-sample bits with d-segments.

    lam_i = sum_{k<=i} s~_i[k] * D_i[k], where s~_i[k] = 2^k * s_i[k] (minus
    2^i on the diagonal k = i) and D_i[k] keeps d's bits n-1-i .. n-1-k at
    their own weights.
    """
    n = inst.n
    out = []
    for i in range(n):
        total = 0
        for k in range(i + 1):
            bit = (inst.s[i] >> k) & 1
            s_tilde = (1 << k) * (bit - 1 if k == i else bit)
            d_segment = sum(
                inst.d_bit(n - i + j - 1) << (n - i + j - 1) for j in range(i - k + 1)
            )
            total += s_tilde * d_segment
        out.append(total)
    return tuple(out)


def brute_segment_count(inst: DhspInstance) -> int:
    """f of ``analyze``: the largest number of nonzero d-segments D_i[k],
    k <= i, over the wires i, with D_i[k] as in :func:`lambda_inner_product`."""
    n = inst.n
    best = 0
    for i in range(n):
        count = 0
        for k in range(i + 1):
            d_segment = sum(
                inst.d_bit(n - i + j - 1) << (n - i + j - 1) for j in range(i - k + 1)
            )
            count += d_segment != 0
        best = max(best, count)
    return best


def scan_perfect_samples(n: int) -> tuple[int, ...]:
    """Exhaustive scan: the smallest s in [0, 2^n) per row i with bit i set
    and every bit below i clear."""
    out = []
    for i in range(n):
        low_mask = (1 << i) - 1
        out.append(
            next(s for s in range(1 << n) if (s >> i) & 1 and not s & low_mask)
        )
    return tuple(out)


def consistency_unitary(pm: PhaseMatrix, tol: float = 1e-9) -> bool:
    """Whether max |A(z)| over nonzero signed z is below ``tol`` (and A(0)=1).

    A(z) is evaluated in product form, prod_j (1 + w^(z.phi)_j) / N, for all
    z in {-1,0,1}^n at once; a second route to ``check_general`` and to the
    numeric unitarity defect.
    """
    period = float(1 << pm.n)
    z = np.array(list(itertools.product((-1, 0, 1), repeat=pm.n)), dtype=np.float64)
    zt = np.mod(z @ pm.phi, period)
    a = np.prod(1.0 + np.exp(2j * np.pi * zt / period), axis=1) / period
    zero = ~z.any(axis=1)
    return float(np.max(np.abs(a[~zero]))) < tol and abs(a[zero][0] - 1.0) < tol


def fancy_index_gate(block: np.ndarray, g, n: int) -> np.ndarray:
    """One gate along axis 0 of ``block`` by index masks and fancy indexing.

    The reference gate kernel: it gathers the two amplitude halves into
    copies and scatters u00*a0 + u01*a1 and u10*a0 + u11*a1 back into a
    fresh block, so the library's in-place kernel must match it bit for bit.
    """
    idx = np.arange(1 << n)
    if isinstance(g, Swap):
        a_bit = (idx >> g.a) & 1
        b_bit = (idx >> g.b) & 1
        return block[idx ^ ((a_bit ^ b_bit) * ((1 << g.a) | (1 << g.b)))]
    mask = ((idx >> g.target) & 1) == 0
    for q, bit in g.controls:
        mask &= ((idx >> q) & 1) == bit
    i0 = idx[mask]
    i1 = i0 | (1 << g.target)
    out = block.copy()
    a0, a1 = block[i0], block[i1]
    u = g.u
    out[i0] = u[0, 0] * a0 + u[0, 1] * a1
    out[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return out


def fancy_index_circuit(c: Circuit, block: np.ndarray) -> np.ndarray:
    """Run every gate of ``c`` through :func:`fancy_index_gate`."""
    for g in c.gates:
        block = fancy_index_gate(block, g, c.n)
    return block


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


def one_block_circuit_dense(c: Circuit) -> np.ndarray:
    """A strided-view run of the library's gate arithmetic (``_apply_2x2``)
    on the whole 2^n x 2^n identity block, with no compiled plan.

    Each gate acts on the slices of a (2,)*n view that its qubits select,
    and a swap exchanges two of them through one copy (``_run_in_place``).
    The reference for every route of the plan: ``apply_circuit`` on a
    state's amplitudes and ``circuit_to_dense`` on each chunk's identity
    columns run it gate by gate and must match this bit for bit; the chunks
    that ``compare`` grows must hold its values, and may differ from its
    bits only in the signs of zeros.
    """
    block = np.eye(1 << c.n, dtype=np.complex128)
    _run_in_place(block, c)
    return block


def dense_columns(m: np.ndarray):
    """A built matrix as a column reader for ``_circuit_distance``: views of
    the two row halves of its columns j..j+w-1, with no copy."""
    half = m.shape[0] // 2
    return lambda j, w: (m[:half, j : j + w], m[half:, j : j + w])


def whole_block_gqft(spec: GqftSpec) -> np.ndarray:
    """The transform's entries from one BLAS product over all columns,
    ``unit_roots(bits @ _wire_exponents(spec, bits), N)``: the dense
    builder's route for a real phi or row tables before it read columns."""
    n = spec.pm.n
    bits = bit_table(n)
    return unit_roots(bits @ _wire_exponents(spec, bits), 1 << n)


def whole_block_cascade(spec: RotSpec) -> np.ndarray:
    """A rotation cascade's entries read off its factor table over all
    columns in one block: the products over wires 0..n-2 once, then each
    row half times wire n-1's factors, as the dense builders read them
    before they read columns."""
    dim = 1 << spec.n
    table = rotft._factor_table(spec, rotft._angles(spec))
    scale = np.sqrt(dim) if spec.variant == rotft.HADAMARD_FIRST else None
    partial = rotft._wire_products(table[:-1], np.empty((dim // 2, dim)))
    m = np.empty((dim, dim), dtype=np.complex128)
    for b in (0, 1):
        rotft._last_wire(partial, table[-1, b], scale, m[b * dim // 2 : (b + 1) * dim // 2])
    return m


def loop_check_triangular(pm: PhaseMatrix, tol: float = CRITERION_TOL) -> ValidityReport:
    """The triangular condition cell by cell in row-major order, stopping at
    the first failing cell: diagonal exactly 2^(n-1), strictly-upper entries
    within wraparound distance ``tol`` of a multiple of 2^n."""
    n, phi = pm.n, pm.phi
    target = float(1 << (n - 1))
    period = float(1 << n)
    for i in range(n):
        if phi[i, i] != target:
            return ValidityReport("triangular", False, witness_cell=(i, i))
        for j in range(i + 1, n):
            if not wraparound_distance(phi[i, j], 0.0, period) < tol:
                return ValidityReport("triangular", False, witness_cell=(i, j))
    return ValidityReport("triangular", True)


# Block size of the reference signed-vector sweep.
_BLOCK = 3**9


def _signed_blocks(n: int):
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


def block_check_general(pm: PhaseMatrix, tol: float = CRITERION_TOL) -> ValidityReport:
    """The signed-combination criterion by a float matmul over blocks of all
    3^n vectors, ranking every failing row by its (support, signs) key in a
    Python loop; the reference for the library's meet-in-the-middle sweep."""
    n = pm.n
    check_cap("criterion", n)
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


# The dense-entry formula each builder inlined before ``qstate.unit_roots``:
# reduce every exponent mod N, then exponentiate it.  The root table must
# reproduce these bit for bit.


def _direct_roots(exponent: np.ndarray, dim: int) -> np.ndarray:
    return np.exp(2j * np.pi * exponent / dim) / np.sqrt(dim)


def direct_gqft_dense(spec: GqftSpec) -> np.ndarray:
    n = spec.pm.n
    dim = 1 << n
    bits = bit_table(n)
    return _direct_roots(np.mod(bits @ _wire_exponents(spec, bits), float(dim)), dim)


def direct_phase_dense_raw(pm: PhaseMatrix) -> np.ndarray:
    dim = 1 << pm.n
    bits = bit_table(pm.n)
    return _direct_roots(np.mod(bits @ pm.phi @ bits.T, float(dim)), dim)


def direct_dft_dense(n: int) -> np.ndarray:
    dim = 1 << n
    k = np.arange(dim)
    return _direct_roots(np.mod(np.outer(k, k), dim), dim)


def direct_coset_amps(inst: DhspInstance) -> np.ndarray:
    dim = 1 << inst.n
    idx = np.arange(dim)
    zx = np.zeros(dim, dtype=np.float64)
    for i, v in enumerate(inst.z):
        zx += (v % dim) * ((idx >> i) & 1)
    return _direct_roots(np.mod(zx, dim), dim)


def full_unitarity_defect(m: np.ndarray) -> float:
    """max |M^dagger M - I| from one full product, the check's former formula."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
