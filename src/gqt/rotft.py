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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import check_cap, check_wires, spec_int
from .errors import InputError
from .qstate import HADAMARD, Circuit, Controlled, DenseUnitary, bit_table

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


def _theta_sums(spec: RotSpec, bits: np.ndarray) -> np.ndarray:
    """Theta[j, x] = sum_{k<j} theta[j][k](x_k), reduced mod 2*pi; bits is [x, k]."""
    m0 = np.zeros((spec.n, spec.n))
    m1 = np.zeros((spec.n, spec.n))
    for (i, j), (t0, t1) in spec.thetas.items():
        m0[i, j], m1[i, j] = t0, t1
    theta = m0 @ (1.0 - bits.T) + m1 @ bits.T  # [j, x]
    # Wire 0 has no lower wires; masking is implicit since cells require j<i.
    return np.mod(theta, _TWO_PI)


def rot1_dense(spec: RotSpec) -> DenseUnitary:
    """Dense matrix of the hadamard_first transform."""
    if spec.variant != HADAMARD_FIRST:
        raise InputError(f"spec variant is {spec.variant}, expected hadamard_first")
    n = spec.n
    check_cap("dense", n)
    dim = 1 << n
    bits = bit_table(n)
    theta = _theta_sums(spec, bits)  # [j, x]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    sign = 1.0 - 2.0 * bits.T  # (-1)^(x_j) over [j, x], and (-1)^(y_j) over [j, y]
    m = np.ones((dim, dim))
    for j in range(n):
        # Wire 0 contributes cos(0) + sign*sin(0) = 1, matching its absence.
        m *= cos_t[j][None, :] + np.outer(sign[j], sign[j] * sin_t[j])
    parity = (bits @ bits.T) % 2.0  # [y, x] = x.y mod 2
    m *= 1.0 - 2.0 * parity
    return DenseUnitary(n, m.astype(np.complex128) / np.sqrt(dim))


def rot2_dense(spec: RotSpec) -> DenseUnitary:
    """Dense matrix of the rotation_first transform."""
    if spec.variant != ROTATION_FIRST:
        raise InputError(f"spec variant is {spec.variant}, expected rotation_first")
    n = spec.n
    check_cap("dense", n)
    dim = 1 << n
    bits = bit_table(n)
    alpha = np.asarray(spec.alpha0)[:, None] - (np.pi / 2.0) * bits.T  # [j, x]
    psi = np.mod(alpha + _theta_sums(spec, bits), _TWO_PI)
    m = np.ones((dim, dim))
    for j in range(n):
        m *= np.cos(psi[j][None, :] + (np.pi / 2.0) * bits[:, j][:, None])
    return DenseUnitary(n, m.astype(np.complex128))


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
