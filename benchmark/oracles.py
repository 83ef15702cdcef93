"""Expected task outputs, computed by routes the timed tasks do not take.

Phases are reduced in exact Python integers wherever the inputs are integral;
floats appear only when a phase becomes an amplitude.  Every check raises
``Mismatch`` with a reason; the benchmark counts that task as failed.
"""

from __future__ import annotations

import math

import numpy as np

# Amplitude agreement required of a circuit run against its entry formula.
AMP_TOL = 1e-9
# Agreement required of a probability evaluated by two routes.
PROB_TOL = 1e-12


class Mismatch(Exception):
    """A task's output disagrees with its oracle."""


def require(ok: bool, why: str) -> None:
    if not ok:
        raise Mismatch(why)


def require_close(got, expected, tol: float, what: str) -> None:
    got = np.asarray(got)
    expected = np.asarray(expected)
    require(got.shape == expected.shape, f"{what}: shape {got.shape} != {expected.shape}")
    dev = float(np.max(np.abs(got - expected))) if got.size else 0.0
    require(dev <= tol, f"{what}: max deviation {dev:.3e} > {tol:.0e}")


def bits(k: int, n: int) -> list[int]:
    """Little-endian bits of k: qubit i carries weight 2^i."""
    return [(k >> i) & 1 for i in range(n)]


# ---------------------------------------------------------------------------
# state-vector columns


def integer_phase_column(wire_exponents: list[int], n: int) -> np.ndarray:
    """(1/sqrt(N)) sum_y w^(sum_i y_i W_i) |y>, exponents reduced mod N exactly."""
    modulus = 1 << n
    e = np.zeros(1, dtype=np.int64)
    for w in wire_exponents:  # appending wire i doubles the index range
        e = np.concatenate([e, (e + w % modulus) % modulus])
    return np.exp(2j * np.pi * e / modulus) / math.sqrt(modulus)


def gqft_column(phi: list[list[int]], x: int, n: int) -> np.ndarray:
    """Column x of the phase-matrix transform: W_i(x) = sum_j phi[i][j] x_j."""
    xb = bits(x, n)
    return integer_phase_column([sum(p * b for p, b in zip(row, xb)) for row in phi], n)


def dft_column(x: int, n: int) -> np.ndarray:
    """Column x of the standard transform: w^(x*y) = prod_i w^(y_i * x * 2^i)."""
    return integer_phase_column([x << i for i in range(n)], n)


def _product_column(factors: list[tuple[float, float]]) -> np.ndarray:
    """Tensor product of per-wire pairs (f(0), f(1)); factor j is wire j."""
    out = np.ones(1)
    for f in factors:
        out = np.kron(np.asarray(f, dtype=np.float64), out)
    return out


def _theta_sum(thetas: dict, x_bits: list[int], j: int) -> float:
    return sum(thetas.get((j, k), (0.0, 0.0))[x_bits[k]] for k in range(j))


def rot1_column(thetas: dict, x: int, n: int) -> np.ndarray:
    """Column x of hadamard_first: wire j contributes, for output bit b,
    (-1)^(x_j b) (cos T_j + (-1)^(x_j + b) sin T_j), T_j = sum_k theta[j][k](x_k)."""
    xb = bits(x, n)
    factors = []
    for j in range(n):
        t = _theta_sum(thetas, xb, j)
        factors.append(
            tuple(
                (-1) ** (xb[j] * b) * (math.cos(t) + (-1) ** (xb[j] + b) * math.sin(t))
                for b in (0, 1)
            )
        )
    return _product_column(factors) / math.sqrt(1 << n)


def rot2_column(thetas: dict, alpha0: tuple, x: int, n: int) -> np.ndarray:
    """Column x of rotation_first: wire j contributes cos(P_j + pi*b/2), with
    P_j = alpha0_j - (pi/2) x_j + sum_k theta[j][k](x_k)."""
    xb = bits(x, n)
    factors = []
    for j in range(n):
        psi = alpha0[j] - (math.pi / 2) * xb[j] + _theta_sum(thetas, xb, j)
        factors.append(tuple(math.cos(psi + (math.pi / 2) * b) for b in (0, 1)))
    return _product_column(factors)


def check_histogram(hist: dict, probs: np.ndarray, shots: int) -> None:
    """Shots add up, and no outcome of probability zero was drawn."""
    require(sum(hist.values()) == shots, f"histogram holds {sum(hist.values())} != {shots} shots")
    for y in hist:
        require(0 <= y < probs.size, f"outcome {y} out of range")
        require(probs[y] > 1e-15, f"outcome {y} drawn but has probability {probs[y]:.3e}")


# ---------------------------------------------------------------------------
# criterion


def hits_half(phi: list[list[int]], z: list[int], n: int) -> bool:
    """Whether some column j has (z . phi)_j = N/2 (mod N), in exact integers."""
    modulus = 1 << n
    return any(
        sum(z[i] * phi[i][j] for i in range(n)) % modulus == modulus // 2
        for j in range(n)
    )


def first_triangular_failure(phi: list[list[int]], n: int):
    """First cell, in row-major order over the diagonal and above, that breaks
    the triangular condition (diagonal N/2, upper a multiple of N); else None."""
    modulus = 1 << n
    for i in range(n):
        if phi[i][i] != modulus // 2:
            return (i, i)
        for j in range(i + 1, n):
            if phi[i][j] % modulus:
                return (i, j)
    return None


# ---------------------------------------------------------------------------
# shift recovery


def bit_reverse(k: int, n: int) -> int:
    return int(format(k, f"0{n}b")[::-1], 2)


def is_perfect_family(s: tuple[int, ...], n: int) -> bool:
    """Row i has bit i set and every lower bit clear."""
    return all((v >> i) & 1 and v & ((1 << i) - 1) == 0 for i, v in enumerate(s))


def target_probability(n: int, d: int, s: tuple[int, ...]) -> float:
    """p(bit-reverse(d)) = prod_i cos^2(pi lam_i / N) with lam_i = d s_i - (y.phi)_i,
    where phi has diagonal N/2 and phi[j][i] = s_i 2^(n-j-1) mod N below it;
    lam is reduced mod N in exact integers."""
    modulus = 1 << n
    y = bits(bit_reverse(d, n), n)
    p = 1.0
    for i in range(n):
        y_phi = y[i] * (modulus // 2) + sum(
            y[j] * ((s[i] << (n - j - 1)) % modulus) for j in range(i + 1, n)
        )
        lam = (d * s[i] - y_phi) % modulus
        p *= math.cos(math.pi * lam / modulus) ** 2
    return p


def binomial_band(p: float, trials: int) -> float:
    """Half-width of an acceptance band for an empirical rate: six standard
    deviations plus one shot."""
    return 6.0 * math.sqrt(p * (1.0 - p) / trials) + 1.0 / trials
