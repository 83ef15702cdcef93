"""Rotation-cascade transforms: two real-valued relatives of the Hadamard wall.

Both variants act wire by wire with plane rotations

    R(t) = [[cos t, sin t], [-sin t, cos t]]

whose angles are selected by lower wires still holding their input bits.
With Theta_j(x) = sum_{k<j} theta[j][k](x_k):

* ``hadamard_first``: wire j applies H then R(Theta_j), giving entries

    (1/sqrt(N)) * (-1)^(x.y) * prod_{j>=1} [cos Theta_j + (-1)^(x_j+y_j) sin Theta_j].

* ``rotation_first``: wire j applies R(alpha0[j]) then the cascade, giving

    prod_j cos(Psi_j + pi*y_j/2),  Psi_j = alpha_j(x_j) + Theta_j(x),

  where alpha_j(1) = alpha_j(0) - pi/2 is derived, never stored; that offset
  is exactly what makes the per-wire map unitary.

Circuits realize each angle pair (t0, t1) as an unconditional R(t0) followed
by a controlled R(t1 - t0); identity factors are skipped, so the gate count
is at most n + n(n-1).

Each formula is one column reader (``_cascade_columns``) of a table of
per-wire factors (``_factor_table``): ``compare`` streams it against the
circuit, certified from the circuit's gates, and the dense builders gather
it, certified from the table's error against the exact cascade at the same
computed angles (``_cascade_error``) in place of the O(8^n) exact check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import qstate
from .config import check_cap, check_wires, spec_int
from .errors import InputError
from .qstate import (
    HADAMARD,
    Circuit,
    Controlled,
    DenseUnitary,
    _defect_bound,
    _formula_matrix,
    _scratch,
    bit_table,
)

HADAMARD_FIRST = "hadamard_first"
ROTATION_FIRST = "rotation_first"
_TWO_PI = 2.0 * np.pi


def rotation(theta: float) -> np.ndarray:
    """The plane rotation R(theta) = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=np.complex128)


@dataclass(frozen=True)
class RotSpec:
    """Angles for one rotation-cascade transform.

    thetas maps (i, j) with j < i to the branch pair (theta(0), theta(1));
    missing cells default to (0, 0).  Angles live in [0, 2*pi).  alpha0
    holds the per-wire base angles of the rotation_first variant.
    """

    n: int
    variant: str
    thetas: Mapping[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict
    )
    alpha0: tuple[float, ...] | None = None

    def __post_init__(self):
        check_wires(self.n)
        if self.variant not in (HADAMARD_FIRST, ROTATION_FIRST):
            raise InputError(f"unknown variant {self.variant!r}")
        thetas = {}
        for (i, j), pair in dict(self.thetas).items():
            i, j = spec_int(i, "i"), spec_int(j, "j")
            if not 0 <= j < i < self.n:
                raise InputError(f"theta cell ({i},{j}) is not strictly lower")
            t0, t1 = float(pair[0]), float(pair[1])
            if not (0.0 <= t0 < _TWO_PI and 0.0 <= t1 < _TWO_PI):
                raise InputError(f"theta ({i},{j}) = ({t0}, {t1}) outside [0, 2*pi)")
            thetas[(i, j)] = (t0, t1)
        object.__setattr__(self, "thetas", thetas)
        if self.variant == ROTATION_FIRST:
            if self.alpha0 is None or len(self.alpha0) != self.n:
                raise InputError("rotation_first needs one alpha0 per wire")
            alpha0 = tuple(float(a) for a in self.alpha0)
            if any(not 0.0 <= a < _TWO_PI for a in alpha0):
                raise InputError("alpha0 entries must lie in [0, 2*pi)")
            object.__setattr__(self, "alpha0", alpha0)
        elif self.alpha0 is not None:
            raise InputError("alpha0 is only meaningful for rotation_first")

    def theta(self, i: int, j: int) -> tuple[float, float]:
        return self.thetas.get((i, j), (0.0, 0.0))


def _angles(spec: RotSpec) -> np.ndarray:
    """The computed angle of each wire j at each column x, [j, x]:
    Theta_j(x) = sum_{k<j} theta[j][k](x_k) mod 2*pi for hadamard_first,
    Psi_j(x) = alpha_j(x_j) + Theta_j(x) mod 2*pi for rotation_first."""
    n = spec.n
    m0 = np.zeros((n, n))
    m1 = np.zeros((n, n))
    for (i, j), (t0, t1) in spec.thetas.items():
        m0[i, j], m1[i, j] = t0, t1
    bits = bit_table(n)
    # Wire 0 has no lower wires; masking is implicit since cells require j<i.
    theta = np.mod(m0 @ (1.0 - bits.T) + m1 @ bits.T, _TWO_PI)
    if spec.variant == HADAMARD_FIRST:
        return theta
    alpha = np.asarray(spec.alpha0)[:, None] - (np.pi / 2.0) * bits.T
    return np.mod(alpha + theta, _TWO_PI)


def _factor_table(spec: RotSpec, angles: np.ndarray) -> np.ndarray:
    """g[j, b, x]: wire j's factor of the entries [y, x] with y_j = b.

    hadamard_first: cos Theta + s sin Theta, s = +1 where b = x_j and -1
    otherwise, times (-1)^(x_j b), so that the product over the wires holds
    the parity sign (-1)^(x.y) as well; a sign flip is exact, so that
    product equals the sign times the product of the unsigned factors bit
    for bit.  rotation_first: cos(Psi + (pi/2) b), two values per wire and
    column.  The entry [y, x] is prod_j g[j, y_j, x], over sqrt(N) for
    hadamard_first.
    """
    n = spec.n
    g = np.empty((n, 2, 1 << n))
    if spec.variant == HADAMARD_FIRST:
        sign = 1.0 - 2.0 * bit_table(n).T  # (-1)^(x_j)
        cos, ssin = np.cos(angles), sign * np.sin(angles)
        np.add(cos, ssin, out=g[:, 0])
        np.multiply(cos - ssin, sign, out=g[:, 1])
    else:
        for b in (0, 1):
            g[:, b] = np.cos(angles + (np.pi / 2.0) * float(b))
    return g


def _cascade_error(spec: RotSpec, angles: np.ndarray, table: np.ndarray) -> float:
    """A bound on max |B - M*| for the matrix B read off ``table``
    (``_factor_table``) and a matrix M* that is unitary in exact arithmetic,
    so that ``_defect_bound(0, eps, N)`` bounds B's exact check (M* has no
    defect).  NaN when ``qstate._WIDE`` is no wider than float64 or the
    table holds a NaN, so that the caller takes the exact check.

    M* is the cascade at the computed angles, in exact arithmetic.  For
    hadamard_first its factors are g*[j, b, x] = cos T + s sin T times
    (-1)^(x_j b), at T = the computed Theta_j(x), which depends on x_{<j}
    alone: per wire, R(T) H conditioned on the lower wires, so M* is
    unitary for any T.  For rotation_first they are cos(A + (pi/2)(b - x_j)),
    A = the computed Psi_j at x_j = 0, again a function of x_{<j}: per wire
    R(A), since cos(A - pi/2) = sin A.  The computed Psi_j at x_j = 1 is
    only near A - pi/2, by the rounding of pi/2, of alpha's sum and of the
    mod; measuring against g* carries all of that.

    The factor error e_f = max |g - g*| is measured over the 2 n N entries
    against references in ``_WIDE`` (unit roundoff u_W), which lie within
    32 u_W of g*: an argument of modulus below 8, with pi/2 taken as
    2 arctan(1), is within 4 u_W of the exact one, and cos, sin and the
    sums of two add a few u_W.  64 u_W is added.

    Then, with u = 2^-53 and |g*| <= G (G = sqrt 2 for cos T +- sin T,
    1 for a cosine), each computed partial product is the last one times g
    times (1 + d), |d| <= u, and g (1 + d) = g* + e with
    |e| <= e' = e_f + u (G + e_f).  Expanding prod_j (g*_j + e_j) - prod_j g*_j
    bounds it by (G + e')^n - G^n = G^n ((1 + e'/G)^n - 1).  For
    rotation_first that is the entry error; the cast to complex is exact.
    For hadamard_first G^n = sqrt N, and the complex division by sqrt N
    multiplies by fl(1 / fl(sqrt N)) = (1 + h) / sqrt N, |h| <= 3u, then
    rounds once more; the entries of M* have modulus at most 1, so the
    entry error is at most (1 + 5u)((1 + e'/G)^n - 1) + 5u.  The relative
    rounding of this arithmetic is a few u, far below the slack of
    ``_defect_bound``.  O(n N) time and O(N) memory, once per spec.
    """
    wide = qstate._WIDE
    unit = np.finfo(wide).eps
    if not unit < np.finfo(np.float64).eps:
        return math.nan
    x = np.arange(1 << spec.n)
    half_pi = 2 * np.arctan(wide(1))
    worst = 0.0
    for j, (angle, factors) in enumerate(zip(angles, table)):
        x_j = ((x >> j) & 1).astype(wide)
        if spec.variant == HADAMARD_FIRST:
            t, sign = angle.astype(wide), 1 - 2 * x_j
            cos, ssin = np.cos(t), sign * np.sin(t)
            ref = (cos + ssin, (cos - ssin) * sign)
        else:
            base = angle[x & ~(1 << j)].astype(wide)  # Psi_j at x_j = 0
            ref = [np.cos(base + half_pi * (b - x_j)) for b in (0, 1)]
        for g, r in zip(factors, ref):
            worst = np.maximum(worst, np.max(np.abs(g - r)))
    e_f = float(worst + 64 * unit)
    u = np.finfo(np.float64).eps / 2
    size = math.sqrt(2.0) if spec.variant == HADAMARD_FIRST else 1.0
    growth = math.expm1(spec.n * math.log1p((e_f + u * (size + e_f)) / size))
    return (1 + 5 * u) * growth + 5 * u if spec.variant == HADAMARD_FIRST else growth


def _wire_products(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[r] = prod_i g[i, r_i] for every r < 2^m, g (m, 2, w), into ``out``
    ((2^m, w) float64).

    Built by doubling: rows 2^i .. 2^(i+1)-1 are rows 0 .. 2^i-1 times
    g[i, 1], and rows 0 .. 2^i-1 are then multiplied by g[i, 0] in place, so
    every product is taken from 1 in wire order.
    """
    out[0] = 1.0
    for i, (f0, f1) in enumerate(g):
        lo = out[: 1 << i]
        np.multiply(lo, f1, out=out[1 << i : 2 << i])
        np.multiply(lo, f0, out=lo)
    return out


def _last_wire(partial: np.ndarray, factors: np.ndarray, scale, out: np.ndarray) -> np.ndarray:
    """One row half into ``out`` (complex): the products over wires 0..n-2,
    ``partial``, times wire n-1's ``factors``, cast to complex, and divided
    by ``scale`` as complex numbers where it is not None.  The complex
    division multiplies by fl(1 / scale); dividing the float products
    instead would round differently."""
    np.multiply(partial, factors, out=out)
    if scale is not None:
        np.divide(out, scale, out=out)
    return out


def _dense(spec: RotSpec, variant: str) -> DenseUnitary:
    """The matrix ``_cascade_columns`` reads, gathered (``_formula_matrix``),
    with the certified defect of its factor table as its bound."""
    if spec.variant != variant:
        raise InputError(f"spec variant is {spec.variant}, expected {variant}")
    check_cap("dense", spec.n)
    angles = _angles(spec)
    table = _factor_table(spec, angles)
    bound = _defect_bound(0.0, _cascade_error(spec, angles, table), 1 << spec.n)
    return DenseUnitary(spec.n, _formula_matrix(spec.n, _cascade_columns(spec, table)), bound)


def rot1_dense(spec: RotSpec) -> DenseUnitary:
    """Dense matrix of the hadamard_first transform."""
    return _dense(spec, HADAMARD_FIRST)


def rot2_dense(spec: RotSpec) -> DenseUnitary:
    """Dense matrix of the rotation_first transform."""
    return _dense(spec, ROTATION_FIRST)


def _cascade_columns(spec: RotSpec, table: np.ndarray | None = None):
    """The transform's column reader (see ``qstate._circuit_distance``) over
    ``table``, by default the spec's ``_factor_table``: the products over
    wires 0..n-2 once into the workspace buffer ``quarter``
    (``_wire_products``), then each row half into ``spare`` (``_last_wire``).
    """
    check_cap("dense", spec.n)
    dim = 1 << spec.n
    if table is None:
        table = _factor_table(spec, _angles(spec))
    scale = np.sqrt(dim) if spec.variant == HADAMARD_FIRST else None

    def halves(j: int, w: int):
        g = table[:, :, j : j + w]
        partial = _wire_products(g[:-1], _scratch("quarter", (dim // 2, w), np.float64))
        for b in (0, 1):
            yield _last_wire(partial, g[-1, b], scale, _scratch("spare", (dim // 2, w)))

    return halves


def _cascade_circuit(spec: RotSpec, first) -> Circuit:
    """Per wire i, high to low: the gate ``first(i)``, then the two-branch
    controlled rotations feeding wire i, highest k first."""
    gates: list = []
    for i in range(spec.n - 1, -1, -1):
        gates.append(Controlled((), i, first(i)))
        for k in range(i - 1, -1, -1):
            t0, t1 = spec.theta(i, k)
            if t0 != 0.0:
                gates.append(Controlled((), i, rotation(t0)))
            if t1 != t0:
                gates.append(Controlled(((k, 1),), i, rotation(t1 - t0)))
    return Circuit(spec.n, tuple(gates))


def rot1_circuit(spec: RotSpec) -> Circuit:
    """Circuit for hadamard_first: per wire (high to low), H then the cascade."""
    if spec.variant != HADAMARD_FIRST:
        raise InputError(f"spec variant is {spec.variant}, expected hadamard_first")
    return _cascade_circuit(spec, lambda i: HADAMARD)


def rot2_circuit(spec: RotSpec) -> Circuit:
    """Circuit for rotation_first: per wire, R(alpha0) then the cascade."""
    if spec.variant != ROTATION_FIRST:
        raise InputError(f"spec variant is {spec.variant}, expected rotation_first")
    return _cascade_circuit(spec, lambda i: rotation(spec.alpha0[i]))
