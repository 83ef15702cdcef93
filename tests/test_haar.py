"""Orthonormal ladder basis: recursion matrix, closed forms, inverse circuits."""

import numpy as np
import pytest

from gqt import (
    CapExceededError,
    InputError,
    QState,
    Swap,
    apply_circuit,
    haar_apply_basis,
    haar_inverse_apply,
    haar_inverse_circuit,
    haar_inverse_swap_count,
    haar_matrix,
    haar_matrix_identity_check,
    slot_index,
)


def test_smallest_cases_golden():
    hm1 = haar_matrix(1)
    np.testing.assert_allclose(
        hm1.p, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )
    hm2 = haar_matrix(2)
    r2 = np.sqrt(2.0)
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [r2, -r2, 0, 0],
            [0, 0, r2, -r2],
        ]
    )
    np.testing.assert_allclose(hm2.p, expected, atol=1e-15)
    assert hm2.a.dtype == np.int64
    np.testing.assert_array_equal(
        hm2.a,
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 0, 0], [0, 0, 1, -1]],
    )


def test_rows_orthonormal_and_matrix_orthogonal():
    for n in range(1, 7):
        p = haar_matrix(n).p
        np.testing.assert_allclose(p @ p.T, np.eye(1 << n), atol=1e-12)
        np.testing.assert_allclose(p.T @ p, np.eye(1 << n), atol=1e-12)


def test_slot_index_is_big_endian():
    assert slot_index(3, (1, 0, 0)) == 4
    assert slot_index(3, (0, 0, 1)) == 1
    assert slot_index(1, (1,)) == 1
    assert slot_index(4, (1, 0, 1, 1)) == 0b1011
    with pytest.raises(InputError):
        slot_index(2, (1, 2))
    with pytest.raises(InputError):
        slot_index(2, (1,))


def test_integer_identity_check_exact():
    for n in range(1, 9):
        hm = haar_matrix(n)
        for x_idx in range(1 << n):
            x = [(x_idx >> (n - 1 - j)) & 1 for j in range(n)]
            assert haar_matrix_identity_check(n, x, hm)


def test_identity_check_rejects_tampered_matrix():
    hm = haar_matrix(2)
    a = hm.a.copy()
    a[0, 0] = -1
    p = a / np.sqrt((a * a).sum(axis=1, dtype=np.float64))[:, None]
    # rows stay orthonormal only if they do; build bypassing that gate
    try:
        bad = haar_matrix(2).__class__(2, a, p)
    except InputError:
        # tampering broke orthonormality; flip a full row sign instead,
        # which preserves orthonormality but breaks the ladder identity
        a = hm.a.copy()
        a[1, :] *= -1
        p = hm.p.copy()
        p[1, :] *= -1
        bad = haar_matrix(2).__class__(2, a, p)
    assert not haar_matrix_identity_check(2, (0, 0), bad)


def test_closed_form_matches_matrix_columns():
    for n in range(1, 7):
        p = haar_matrix(n).p
        for x_idx in range(1 << n):
            x = [(x_idx >> (n - 1 - j)) & 1 for j in range(n)]
            np.testing.assert_allclose(
                haar_apply_basis(n, x).amps, p[:, x_idx], atol=1e-12
            )


def test_columns_have_exactly_n_plus_1_nonzeros():
    for n in range(1, 8):
        a = haar_matrix(n).a
        counts = (a != 0).sum(axis=0)
        assert np.all(counts == n + 1)


def test_inverse_apply_returns_matrix_rows():
    for n in range(1, 7):
        p = haar_matrix(n).p
        for k in range(1 << n):
            np.testing.assert_allclose(
                haar_inverse_apply(n, k).amps, p[k, :], atol=1e-12
            )


def test_forward_then_inverse_round_trip():
    n = 4
    p = haar_matrix(n).p
    for x_idx in range(1 << n):
        x = [(x_idx >> (n - 1 - j)) & 1 for j in range(n)]
        fwd = haar_apply_basis(n, x).amps
        back = p.T @ (p @ QState.basis(n, x_idx).amps)
        np.testing.assert_allclose(back, QState.basis(n, x_idx).amps, atol=1e-12)
        np.testing.assert_allclose(p @ QState.basis(n, x_idx).amps, fwd, atol=1e-12)


def test_inverse_circuits_match_closed_form_on_their_ket_family():
    for n in range(1, 7):
        for i in range(n):
            circ = haar_inverse_circuit(n, i)
            for prefix in range(1 << i):
                ket = (1 << i) + prefix
                got = apply_circuit(QState.basis(n, ket), circ).amps
                want = haar_inverse_apply(n, ket).amps
                np.testing.assert_allclose(got, want, atol=1e-10)


def test_zero_ket_handled_by_the_i0_circuit():
    for n in range(1, 6):
        circ = haar_inverse_circuit(n, 0)
        got = apply_circuit(QState.basis(n, 0), circ).amps
        np.testing.assert_allclose(got, haar_inverse_apply(n, 0).amps, atol=1e-12)


def test_swap_counts_exact_and_gate_ceiling():
    for n in range(1, 7):
        for i in range(n):
            circ = haar_inverse_circuit(n, i)
            swaps = sum(isinstance(g, Swap) for g in circ.gates)
            assert swaps == haar_inverse_swap_count(n, i)
            assert swaps == (i + 1) * (n - i - 1) + i
            hadamards = circ.gate_count - swaps
            assert hadamards == n - i
            assert circ.gate_count <= n * n + 2 * n


def test_input_errors():
    with pytest.raises(InputError):
        haar_matrix(0)
    with pytest.raises(InputError):
        haar_apply_basis(2, (0, 1, 1))
    with pytest.raises(InputError):
        haar_apply_basis(2, (0, 2))
    with pytest.raises(InputError):
        haar_inverse_apply(2, 4)
    with pytest.raises(InputError):
        haar_inverse_apply(2, -1)
    with pytest.raises(InputError):
        haar_inverse_circuit(3, 3)
    with pytest.raises(InputError):
        haar_inverse_circuit(0, 0)


def test_caps():
    with pytest.raises(CapExceededError):
        haar_matrix(13)
    with pytest.raises(CapExceededError):
        haar_inverse_circuit(21, 1)
    with pytest.raises(CapExceededError):
        haar_apply_basis(21, (0,) * 21)
