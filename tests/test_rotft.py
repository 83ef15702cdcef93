"""Rotation-cascade transforms: both variants, formulas vs circuits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    CapExceededError,
    InputError,
    RotSpec,
    circuit_to_dense,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
    rotation,
)

from _oracles import random_rot_spec

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def h_tensor(n: int) -> np.ndarray:
    m = np.eye(1, dtype=np.complex128)
    for _ in range(n):
        m = np.kron(m, H)
    return m


def theta_sum(spec: RotSpec, j: int, xb) -> float:
    return sum(spec.theta(j, k)[xb[k]] for k in range(j))


def brute_rot1(spec: RotSpec) -> np.ndarray:
    """Entry formula, written independently: (1/sqrt N)(-1)^(x.y) *
    prod_{j>=1} [cos(T_j) + (-1)^(x_j+y_j) sin(T_j)]."""
    n, dim = spec.n, 1 << spec.n
    m = np.empty((dim, dim), dtype=np.complex128)
    for y in range(dim):
        yb = [(y >> q) & 1 for q in range(n)]
        for x in range(dim):
            xb = [(x >> q) & 1 for q in range(n)]
            val = (-1.0) ** sum(a * b for a, b in zip(xb, yb))
            for j in range(1, n):
                t = theta_sum(spec, j, xb)
                val *= np.cos(t) + (-1.0) ** (xb[j] + yb[j]) * np.sin(t)
            m[y, x] = val
    return m / np.sqrt(dim)


def brute_rot2(spec: RotSpec) -> np.ndarray:
    """Entry = prod_j cos(psi_j + pi*y_j/2), psi_j = alpha_j(x_j) + T_j."""
    n, dim = spec.n, 1 << spec.n
    m = np.empty((dim, dim), dtype=np.complex128)
    for y in range(dim):
        yb = [(y >> q) & 1 for q in range(n)]
        for x in range(dim):
            xb = [(x >> q) & 1 for q in range(n)]
            val = 1.0
            for j in range(n):
                alpha = spec.alpha0[j] - (np.pi / 2) * xb[j]
                psi = alpha + theta_sum(spec, j, xb)
                val *= np.cos(psi + np.pi * yb[j] / 2)
            m[y, x] = val
    return m


def exp_sum_rot2(spec: RotSpec) -> np.ndarray:
    """Cross-check via the complex-exponential expansion of the cosine
    product: prod_j cos(c_j) = 2^{-n} sum over sign choices of exp(i sum s_j c_j)."""
    n, dim = spec.n, 1 << spec.n
    m = np.zeros((dim, dim), dtype=np.complex128)
    for y in range(dim):
        yb = [(y >> q) & 1 for q in range(n)]
        for x in range(dim):
            xb = [(x >> q) & 1 for q in range(n)]
            angles = []
            for j in range(n):
                alpha = spec.alpha0[j] - (np.pi / 2) * xb[j]
                angles.append(alpha + theta_sum(spec, j, xb) + np.pi * yb[j] / 2)
            total = 0j
            for signs in range(1 << n):
                s = sum(
                    (1 if (signs >> j) & 1 else -1) * angles[j] for j in range(n)
                )
                total += np.exp(1j * s)
            m[y, x] = total / (1 << n)
    return m


def test_rotation_matrix_shape_and_composition():
    r = rotation(0.3)
    np.testing.assert_allclose(r @ r.conj().T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        rotation(0.3) @ rotation(0.4), rotation(0.7), atol=1e-12
    )
    np.testing.assert_allclose(rotation(0.0), np.eye(2), atol=0)


def test_spec_validation():
    with pytest.raises(InputError):
        RotSpec(2, "other")
    with pytest.raises(InputError):
        RotSpec(2, HADAMARD_FIRST, {(0, 1): (0.0, 1.0)})  # not strictly lower
    with pytest.raises(InputError):
        RotSpec(2, HADAMARD_FIRST, {(1, 0): (7.0, 0.0)})  # angle outside [0, 2pi)
    with pytest.raises(InputError):
        RotSpec(2, ROTATION_FIRST, {})  # missing alpha0
    with pytest.raises(InputError):
        RotSpec(2, HADAMARD_FIRST, {}, alpha0=(0.1, 0.2))  # alpha0 not allowed
    with pytest.raises(InputError):
        RotSpec(2, ROTATION_FIRST, {}, alpha0=(0.1,))  # wrong length
    # A fractional cell index is refused, not rounded down to cell (1, 0).
    with pytest.raises(InputError, match="'i' must be an integer, got 1.7"):
        RotSpec(2, HADAMARD_FIRST, {(1.7, 0): (0.3, 1.1)})
    with pytest.raises(InputError, match="'j' must be an integer, got 0.3"):
        RotSpec(2, HADAMARD_FIRST, {(1, 0.3): (0.3, 1.1)})
    assert RotSpec(2, HADAMARD_FIRST, {(1.0, 0.0): (0.3, 1.1)}).thetas == {
        (1, 0): (0.3, 1.1)
    }


def test_rot1_no_angles_degenerates_to_hadamard_tensor():
    for n in (1, 2, 3, 4):
        spec = RotSpec(n, HADAMARD_FIRST)
        np.testing.assert_allclose(rot1_dense(spec).entries, h_tensor(n), atol=1e-12)
        circ = rot1_circuit(spec)
        assert circ.gate_count == n  # bare Hadamards


def test_rot1_two_qubit_worked_column():
    # theta_10 = (0, pi/2); input x = (1, 0) [index 1]: the second factor
    # rotates fully, turning H's (+,+) into (+,-): column = (1,-1,-1,1)/2.
    spec = RotSpec(2, HADAMARD_FIRST, {(1, 0): (0.0, np.pi / 2)})
    col = rot1_dense(spec).entries[:, 1]
    np.testing.assert_allclose(col, np.array([1, -1, -1, 1]) / 2, atol=1e-12)
    # columns with x_0 = 0 are plain H (x) H columns
    full = rot1_dense(spec).entries
    np.testing.assert_allclose(full[:, 0], h_tensor(2)[:, 0], atol=1e-12)
    np.testing.assert_allclose(full[:, 2], h_tensor(2)[:, 2], atol=1e-12)


def test_rot1_dense_matches_brute_formula():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            spec = random_rot_spec(n, HADAMARD_FIRST, rng)
            np.testing.assert_allclose(
                rot1_dense(spec).entries, brute_rot1(spec), atol=1e-11
            )


def test_rot2_single_wire_golden():
    spec = RotSpec(1, ROTATION_FIRST, {}, alpha0=(np.pi / 4,))
    expected = np.array([[1, 1], [-1, 1]], dtype=np.complex128) / np.sqrt(2)
    np.testing.assert_allclose(rot2_dense(spec).entries, expected, atol=1e-12)
    circ = rot2_circuit(spec)
    assert circ.gate_count == 1
    np.testing.assert_allclose(circ.gates[0].u, rotation(np.pi / 4), atol=1e-15)


def test_rot2_factorizes_without_couplings():
    f = np.array(
        [[np.cos(np.pi / 4), np.cos(-np.pi / 4)],
         [np.cos(np.pi / 4 + np.pi / 2), np.cos(-np.pi / 4 + np.pi / 2)]],
        dtype=np.complex128,
    )
    for n in (2, 3):
        spec = RotSpec(n, ROTATION_FIRST, {}, alpha0=tuple([np.pi / 4] * n))
        m = np.eye(1, dtype=np.complex128)
        for _ in range(n):
            m = np.kron(m, f)
        np.testing.assert_allclose(rot2_dense(spec).entries, m, atol=1e-12)


def test_rot2_dense_matches_brute_formula_and_exp_sum():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        for _ in range(5):
            spec = random_rot_spec(n, ROTATION_FIRST, rng)
            got = rot2_dense(spec).entries
            np.testing.assert_allclose(got, brute_rot2(spec), atol=1e-11)
            np.testing.assert_allclose(got, exp_sum_rot2(spec), atol=1e-10)


def test_both_variants_unitary_on_random_specs():
    rng = np.random.default_rng(43)
    for n in range(1, 6):
        for _ in range(8):
            # DenseUnitary's constructor enforces unitarity at 1e-9
            rot1_dense(random_rot_spec(n, HADAMARD_FIRST, rng))
            rot2_dense(random_rot_spec(n, ROTATION_FIRST, rng))


def test_circuits_match_dense_on_random_specs():
    rng = np.random.default_rng(44)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            s1 = random_rot_spec(n, HADAMARD_FIRST, rng)
            np.testing.assert_allclose(
                circuit_to_dense(rot1_circuit(s1)).entries,
                rot1_dense(s1).entries,
                atol=1e-9,
            )
            s2 = random_rot_spec(n, ROTATION_FIRST, rng)
            np.testing.assert_allclose(
                circuit_to_dense(rot2_circuit(s2)).entries,
                rot2_dense(s2).entries,
                atol=1e-9,
            )


def test_gate_counts_and_structure():
    rng = np.random.default_rng(45)
    for n in (2, 3, 5):
        s1 = random_rot_spec(n, HADAMARD_FIRST, rng)
        c1 = rot1_circuit(s1)
        assert c1.gate_count <= n + n * (n - 1)
        s2 = random_rot_spec(n, ROTATION_FIRST, rng)
        c2 = rot2_circuit(s2)
        assert c2.gate_count <= n + n * (n - 1)
    # dense thetas with distinct nonzero branches hit the ceiling exactly
    thetas = {}
    k = 1
    for i in range(1, 3):
        for j in range(i):
            thetas[(i, j)] = (0.1 * k, 0.1 * k + 0.7)
            k += 1
    c = rot1_circuit(RotSpec(3, HADAMARD_FIRST, thetas))
    assert c.gate_count == 3 + 3 * 2


def test_rot2_first_gate_per_wire_is_the_base_rotation():
    spec = RotSpec(3, ROTATION_FIRST, {(2, 0): (0.4, 1.0)}, alpha0=(0.3, 0.9, 2.2))
    circ = rot2_circuit(spec)
    seen = {}
    for g in circ.gates:
        if not g.controls and g.target not in seen:
            seen[g.target] = g.u
    for wire, alpha in enumerate(spec.alpha0):
        np.testing.assert_allclose(seen[wire], rotation(alpha), atol=1e-15)


def test_controlled_branch_decomposition():
    # theta(0) nonzero: unconditional R(theta0) then controlled R(theta1-theta0)
    spec = RotSpec(2, HADAMARD_FIRST, {(1, 0): (0.5, 1.7)})
    gates = rot1_circuit(spec).gates
    uncond = [g for g in gates if not g.controls and g.target == 1]
    cond = [g for g in gates if g.controls]
    # H + the base rotation on wire 1
    assert any(np.allclose(g.u, rotation(0.5)) for g in uncond)
    assert len(cond) == 1
    np.testing.assert_allclose(cond[0].u, rotation(1.7 - 0.5), atol=1e-15)
    # equal branches need no controlled gate at all
    spec_eq = RotSpec(2, HADAMARD_FIRST, {(1, 0): (0.8, 0.8)})
    assert not any(g.controls for g in rot1_circuit(spec_eq).gates)


def test_dense_cap_enforced():
    with pytest.raises(CapExceededError):
        rot1_dense(RotSpec(13, HADAMARD_FIRST))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_rot_circuits_agree_with_formulas(n, seed):
    rng = np.random.default_rng(seed)
    s1 = random_rot_spec(n, HADAMARD_FIRST, rng)
    assert (
        np.max(
            np.abs(
                circuit_to_dense(rot1_circuit(s1)).entries - rot1_dense(s1).entries
            )
        )
        < 1e-9
    )
    s2 = random_rot_spec(n, ROTATION_FIRST, rng)
    assert (
        np.max(
            np.abs(
                circuit_to_dense(rot2_circuit(s2)).entries - rot2_dense(s2).entries
            )
        )
        < 1e-9
    )
