"""Phase-exponent matrices: the two validity regimes and the A(z) diagnostic.

The signed-difference check is cross-examined against brute-force numeric
unitarity throughout, including the matrices where a subset-only (all-ones
sign pattern) scan would give the wrong answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt import (
    CapExceededError,
    InputError,
    Limits,
    PhaseMatrix,
    a_of_z,
    check_general,
    check_triangular,
    normalized_upper,
    numeric_unitarity_defect,
    phase_dense_raw,
    transpose_row_into_column,
    wraparound_distance,
)

from _oracles import brute_a_of_z, consistency_unitary, random_triangular_phi

NUMERIC_TOL = 1e-9


def numeric_unitary(pm: PhaseMatrix) -> bool:
    return numeric_unitarity_defect(pm) < NUMERIC_TOL


def test_phase_matrix_validation():
    with pytest.raises(InputError):
        PhaseMatrix(2, [[1.0, 2.0]])  # wrong shape
    with pytest.raises(InputError):
        PhaseMatrix(1, [[np.inf]])
    with pytest.raises(InputError):
        PhaseMatrix(2, [[100.0, 0.0], [0.0, 2.0]])  # beyond 4^n bound
    pm = PhaseMatrix(2, [[2, 0], [1, 2]])
    assert pm.modulus == 4
    with pytest.raises(ValueError):
        pm.phi[0, 0] = 9.0  # frozen array


def test_phase_matrix_json_round_trip():
    pm = PhaseMatrix(2, [[2.0, 4.0], [0.5, 2.0]])
    again = PhaseMatrix.from_json_dict(pm.to_json_dict())
    np.testing.assert_array_equal(again.phi, pm.phi)
    with pytest.raises(InputError):
        PhaseMatrix.from_json_dict({"n": 2})


def test_wraparound_distance_basics():
    assert wraparound_distance(2.0, 2.0, 4.0) == 0.0
    assert wraparound_distance(6.0, 2.0, 4.0) == 0.0
    assert wraparound_distance(-2.0, 2.0, 4.0) == 0.0
    assert wraparound_distance(3.9, 0.0, 4.0) == pytest.approx(0.1)


def test_triangular_accepts_the_defining_family():
    assert check_triangular(PhaseMatrix(1, [[1.0]])).valid
    for a in (-3.0, 0.0, 0.25, 1.0, 2.0, 3.9):
        rep = check_triangular(PhaseMatrix(2, [[2.0, 0.0], [a, 2.0]]))
        assert rep.valid and rep.witness_cell is None
    # strictly-upper entries may be any multiple of 2^n
    assert check_triangular(PhaseMatrix(2, [[2.0, 4.0], [0.7, 2.0]])).valid
    assert check_triangular(PhaseMatrix(2, [[2.0, -4.0], [0.7, 2.0]])).valid


def test_triangular_rejects_bad_diagonal_and_upper():
    rep = check_triangular(PhaseMatrix(2, [[1.0, 0.0], [0.0, 2.0]]))
    assert not rep.valid and rep.witness_cell == (0, 0)
    rep = check_triangular(PhaseMatrix(2, [[2.0, 1.0], [0.0, 2.0]]))
    assert not rep.valid and rep.witness_cell == (0, 1)
    # witness is the first failing cell in row-major order
    rep = check_triangular(PhaseMatrix(3, [[4.0, 1.0, 1.0], [0.0, 4.0, 1.0], [0, 0, 4.0]]))
    assert rep.witness_cell == (0, 1)


def test_general_accepts_identity_scaled_and_lower_triangular():
    for n in (1, 2, 3):
        pm = PhaseMatrix(n, np.eye(n) * (1 << (n - 1)))
        assert check_general(pm).valid
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for _ in range(10):
            pm = random_triangular_phi(n, rng)
            assert check_general(pm).valid  # subsumption of the triangular family


def test_general_rejects_zero_and_reports_signed_witness():
    rep = check_general(PhaseMatrix(2, [[2.0, 0.0], [0.0, 0.0]]))
    assert not rep.valid
    assert rep.witness_plus == (1,) and rep.witness_minus == ()
    rep = check_general(PhaseMatrix(2, np.zeros((2, 2))))
    assert not rep.valid and rep.witness_plus == (0,)


def test_signed_differences_are_necessary_not_just_subsets():
    """Matrix whose every 0/1 row-subset hits the half-period target in some
    column, yet the transform is singular: rows 0 and 1 are identical, so the
    signed combination (+1, -1) exposes it.  A subset-only scan says "valid";
    the numeric defect is macroscopic."""
    pm = PhaseMatrix(2, [[2.0, 1.0], [2.0, 1.0]])
    dim = pm.modulus
    # subset-only scan (the insufficient test), done here by hand:
    for rows in [(0,), (1,), (0, 1)]:
        sums = [sum(pm.phi[r][j] for r in rows) for j in range(2)]
        assert any(wraparound_distance(s, 2.0, dim) < 1e-9 for s in sums)
    rep = check_general(pm)
    assert not rep.valid
    assert rep.witness_plus == (0,) and rep.witness_minus == (1,)
    assert not numeric_unitary(pm)


def test_two_by_two_families_match_numeric_verdicts():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = float(rng.uniform(-4.0, 4.0))
        fam1 = PhaseMatrix(2, [[2.0, 0.0], [a, 2.0]])
        fam2 = PhaseMatrix(2, [[2.0, a], [0.0, 2.0]])
        fam3 = PhaseMatrix(2, [[2.0, a], [2.0, 2.0 - a]])
        for pm in (fam1, fam2, fam3):
            assert check_general(pm).valid == numeric_unitary(pm)
        assert check_general(fam1).valid
        assert check_general(fam2).valid


def test_third_family_is_unitary_exactly_for_even_integers():
    for a in (-2.0, 0.0, 2.0, 4.0):
        pm = PhaseMatrix(2, [[2.0, a], [2.0, 2.0 - a]])
        assert check_general(pm).valid and numeric_unitary(pm)
    for a in (0.5, 1.0, 3.0):
        pm = PhaseMatrix(2, [[2.0, a], [2.0, 2.0 - a]])
        assert not check_general(pm).valid
        assert not numeric_unitary(pm)


def test_a_of_z_matches_brute_force_sum():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(10):
            phi = rng.uniform(-(1 << n), 1 << n, size=(n, n))
            pm = PhaseMatrix(n, phi)
            for z_int in range(3**n):
                z = [(z_int // 3**j) % 3 - 1 for j in range(n)]  # entries in {-1,0,1}
                got = a_of_z(pm, z)
                want = brute_a_of_z(phi, n, z)
                assert abs(got - want) < 1e-10


def test_a_of_z_known_values():
    assert a_of_z(PhaseMatrix(2, [[2.0, 0.0], [0.0, 2.0]]), (0, 0)) == pytest.approx(1.0)
    assert abs(a_of_z(PhaseMatrix(2, [[2.0, 0.0], [0.0, 2.0]]), (1, 0))) < 1e-12
    got = a_of_z(PhaseMatrix(2, [[1.0, 0.0], [0.0, 2.0]]), (1, 0))
    assert got == pytest.approx((1 + 1j) / 2)


def test_consistency_unitary_examples():
    for n in (1, 2, 3, 4):
        assert consistency_unitary(PhaseMatrix(n, np.eye(n) * (1 << (n - 1))))
    assert consistency_unitary(PhaseMatrix(2, [[2.0, 1.0], [0.0, 2.0]]))  # unitary family
    assert not consistency_unitary(PhaseMatrix(2, np.zeros((2, 2))))


def test_three_verdicts_agree_on_random_matrices():
    rng = np.random.default_rng(24)
    for n in (2, 3):
        for _ in range(60):
            if rng.random() < 0.5:
                phi = rng.uniform(0, 1 << n, size=(n, n))
            else:  # near the structured families, where ties are interesting
                phi = np.eye(n) * (1 << (n - 1))
                phi[rng.integers(0, n), rng.integers(0, n)] += rng.choice(
                    [0.0, 1.0, 2.0 ** (n - 1), 1 << n]
                )
            pm = PhaseMatrix(n, phi)
            combinatorial = check_general(pm).valid
            diagnostic = consistency_unitary(pm)
            numeric = numeric_unitary(pm)
            assert combinatorial == numeric
            assert diagnostic == numeric


def test_exhaustive_coarse_grid_n2_agreement():
    values = (0.0, 1.0, 2.0, 4.0)  # {0, 2^{n-2}, 2^{n-1}, 2^n} at n=2
    for i0 in values:
        for i1 in values:
            for i2 in values:
                for i3 in values:
                    pm = PhaseMatrix(2, [[i0, i1], [i2, i3]])
                    assert check_general(pm).valid == numeric_unitary(pm)


def test_triangular_validity_implies_general_validity():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            pm = random_triangular_phi(n, rng)
            assert check_triangular(pm).valid
            assert check_general(pm).valid


def test_row_column_transposition_preserves_validity_at_n2():
    rng = np.random.default_rng(26)
    for _ in range(25):
        pm = random_triangular_phi(2, rng)
        for k in range(2):
            moved = transpose_row_into_column(pm, k)
            assert check_general(moved).valid
            assert numeric_unitary(moved)


def test_row_column_transposition_can_fail_at_n3():
    """Moving row 1 of this valid lower-triangular matrix into column 1
    produces a non-unitary matrix; the check agrees with brute force, which
    is the contract (the operation itself carries no validity guarantee)."""
    pm = PhaseMatrix(3, [[4.0, 0.0, 0.0], [1.0, 4.0, 0.0], [1.0, 1.0, 4.0]])
    assert check_triangular(pm).valid
    moved = transpose_row_into_column(pm, 1)
    np.testing.assert_array_equal(
        moved.phi, [[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 4.0]]
    )
    assert not check_general(moved).valid
    assert not numeric_unitary(moved)


def test_transposition_agreement_with_numeric_at_n3():
    rng = np.random.default_rng(27)
    for _ in range(15):
        pm = random_triangular_phi(3, rng)
        for k in range(3):
            moved = transpose_row_into_column(pm, k)
            assert check_general(moved).valid == numeric_unitary(moved)


def test_normalized_upper_zeroes_uppers_without_changing_the_transform():
    pm = PhaseMatrix(3, [[4.0, 8.0, -8.0], [0.3, 4.0, 16.0], [1.9, 2.5, 4.0]])
    normed = normalized_upper(pm)
    assert np.all(normed.phi[np.triu_indices(3, k=1)] == 0.0)
    np.testing.assert_array_equal(np.tril(normed.phi), np.tril(pm.phi))
    np.testing.assert_allclose(
        phase_dense_raw(normed), phase_dense_raw(pm), atol=1e-12
    )


def test_criterion_cap_is_enforced():
    pm = PhaseMatrix(3, np.eye(3) * 4.0)
    with pytest.raises(CapExceededError):
        check_general(pm, limits=Limits(criterion_cap=2))


def test_validity_report_json_shape():
    rep = check_general(PhaseMatrix(2, np.zeros((2, 2))))
    data = rep.to_json_dict()
    assert data["regime"] == "general"
    assert data["valid"] is False
    assert data["witness_plus"] == [0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_checker_never_disagrees_with_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, 1 << n, size=(n, n))
    if rng.random() < 0.3:
        phi = np.round(phi)  # integer matrices hit degenerate cases more often
    pm = PhaseMatrix(n, phi)
    assert check_general(pm).valid == numeric_unitary(pm)
