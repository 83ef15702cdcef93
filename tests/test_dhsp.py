"""Hidden-shift recovery pipeline: coset states, recovery matrix, statistics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt import (
    CapExceededError,
    DhspInstance,
    GqftSpec,
    InputError,
    PhaseMatrix,
    RecoveryResult,
    ValidityError,
    analyze,
    bit_reverse,
    check_general,
    check_triangular,
    coset_state,
    gqft_dense,
    lambda_vector,
    phi0_matrix,
    phi_from_samples,
    recover_d,
    run_procedure,
    samples_mixed,
    samples_perfect_random,
    samples_random,
    search_perfect_samples,
    success_probability,
    toeplitz_phi,
)

from _oracles import (
    brute_coset_amps,
    brute_phi0_probability,
    brute_segment_count,
    brute_run_amps,
    coset_product_amps,
    exact_outcome_probability,
    lambda_inner_product,
    random_triangular_phi,
    scan_perfect_samples,
)


def random_instance(n: int, rng: np.random.Generator) -> DhspInstance:
    return DhspInstance(
        n, int(rng.integers(0, 1 << n)), samples_random(n, rng)
    )


def test_instance_validation():
    with pytest.raises(InputError):
        DhspInstance(0, 0, ())
    with pytest.raises(InputError):
        DhspInstance(2, 4, (1, 2))
    with pytest.raises(InputError):
        DhspInstance(2, -1, (1, 2))
    with pytest.raises(InputError):
        DhspInstance(2, 1, (1, 2, 3))
    with pytest.raises(InputError):
        DhspInstance(2, 1, (1, 4))


def test_phase_integers_are_unreduced_products():
    inst = DhspInstance(3, 5, (3, 2, 7))
    assert inst.z == (15, 10, 35)
    assert inst.shifted_sample(2, 0) == (3 << 2) % 8 == 4
    assert inst.d_bit(0) == 1 and inst.d_bit(1) == 0 and inst.d_bit(2) == 1


def test_coset_state_matches_brute_loop():
    rng = np.random.default_rng(50)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            inst = random_instance(n, rng)
            np.testing.assert_allclose(
                coset_state(inst).amps, brute_coset_amps(inst), atol=1e-12
            )


def every_shift_instance(seed: int):
    """Every d for n <= 6, under three seeded random sample tuples per n."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for _ in range(3):
            s = samples_random(n, rng)
            for d in range(1 << n):
                yield DhspInstance(n, d, s)


def test_coset_state_matches_product_form():
    for inst in every_shift_instance(62):
        diff = np.max(np.abs(coset_state(inst).amps - coset_product_amps(inst)))
        assert diff < 1e-12


def test_lambda_matches_inner_product_form():
    for inst in every_shift_instance(63):
        assert lambda_vector(inst) == lambda_inner_product(inst)


def test_recovery_matrix_layout_frozen():
    inst = DhspInstance(3, 1, (3, 2, 5))
    np.testing.assert_array_equal(
        phi_from_samples(inst).phi,
        [[4, 0, 0], [6, 4, 0], [3, 2, 4]],
    )


def test_recovery_matrix_always_triangular_valid():
    rng = np.random.default_rng(51)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            inst = random_instance(n, rng)
            assert check_triangular(phi_from_samples(inst)).valid


def test_run_procedure_matches_brute_double_loop():
    rng = np.random.default_rng(52)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            inst = random_instance(n, rng)
            np.testing.assert_allclose(
                run_procedure(inst).amps,
                brute_run_amps(inst, phi_from_samples(inst).phi),
                atol=1e-10,
            )


def test_run_procedure_matches_conjugated_dense_transform():
    # The dense route, conj(G) @ coset, is the oracle for the circuit route.
    rng = np.random.default_rng(64)
    for n in range(1, 7):
        for _ in range(3):
            inst = random_instance(n, rng)
            for pm in (phi_from_samples(inst), random_triangular_phi(n, rng)):
                dense = np.conj(gqft_dense(GqftSpec(pm)).entries)
                want = dense @ coset_state(inst).amps
                got = run_procedure(inst, phi=pm).amps
                assert np.max(np.abs(got - want)) < 1e-12


def test_run_procedure_past_the_dense_cap():
    n = 14
    rng = np.random.default_rng(65)
    inst = random_instance(n, rng)
    amps = run_procedure(inst).amps
    outcomes = [bit_reverse(inst.d, n)] + [int(y) for y in rng.integers(0, 1 << n, 31)]
    for y in outcomes:
        assert abs(abs(amps[y]) ** 2 - success_probability(inst, y)) < 1e-12


def test_run_procedure_needs_a_triangular_phi():
    # The transposed Toeplitz matrix gives the transposed (still unitary)
    # transform, but its strictly-upper cells are not multiples of N.
    n = 3
    pm = PhaseMatrix(n, toeplitz_phi(n).phi.T)
    assert check_general(pm).valid and not check_triangular(pm).valid
    with pytest.raises(ValidityError):
        run_procedure(DhspInstance(n, 5, (3, 2, 7)), phi=pm)


def test_success_probability_equals_outcome_weight():
    rng = np.random.default_rng(53)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            inst = random_instance(n, rng)
            amps = run_procedure(inst).amps
            total = 0.0
            for y in range(1 << n):
                p = success_probability(inst, y)
                assert abs(p - abs(amps[y]) ** 2) < 1e-10
                total += p
            assert abs(total - 1.0) < 1e-9


def test_success_probability_is_exactly_zero_with_a_wire_at_half():
    # lam_i = N/2 gives a zero factor, not the float cos(pi/2)^2 = 3.7e-33.
    assert success_probability(DhspInstance(1, 0, (1,)), 1) == 0.0
    rng = np.random.default_rng(57)
    for n in (2, 3, 4):
        dim = 1 << n
        for _ in range(5):
            inst = random_instance(n, rng)
            phi = phi_from_samples(inst).phi
            for y in range(dim):
                lam = [
                    (inst.z[i] - sum((y >> j) & 1 and int(phi[j, i]) for j in range(n))) % dim
                    for i in range(n)
                ]
                assert (success_probability(inst, y) == 0.0) == (dim // 2 in lam)


def test_success_probability_integer_and_float_paths_agree():
    # The default matrix and the same matrix passed explicitly agree.
    rng = np.random.default_rng(54)
    for _ in range(10):
        inst = random_instance(3, rng)
        pm = phi_from_samples(inst)
        for y in range(8):
            a = success_probability(inst, y)
            b = success_probability(inst, y, phi=pm)
            assert abs(a - b) < 1e-12


def test_lambda_two_wire_closed_forms_exhaustive():
    for d in range(4):
        for s0 in range(4):
            for s1 in range(4):
                inst = DhspInstance(2, d, (s0, s1))
                lam = lambda_vector(inst)
                d0, d1 = d & 1, (d >> 1) & 1
                s00 = s0 & 1
                s10, s11 = s1 & 1, (s1 >> 1) & 1
                assert lam[0] == 2 * (s00 - 1) * d1
                assert lam[1] == (s1 - 2) * d0 + 2 * s10 * d1


def test_lambda_matches_probability_at_target_outcome():
    rng = np.random.default_rng(55)
    for n in (2, 3, 4):
        for _ in range(10):
            inst = random_instance(n, rng)
            lam = np.asarray(lambda_vector(inst), dtype=np.float64)
            p = np.prod(np.cos(np.pi * lam / (1 << n)) ** 2)
            target = bit_reverse(inst.d, n)
            assert abs(p - success_probability(inst, target)) < 1e-12


def test_perfect_samples_zero_lambda_for_every_shift():
    rng = np.random.default_rng(56)
    for n in (2, 3, 4, 5):
        canon = DhspInstance(n, 0, search_perfect_samples(n))
        for d in range(1 << n):
            inst = DhspInstance(n, d, canon.s)
            assert lambda_vector(inst) == (0,) * n
            assert success_probability(inst, bit_reverse(d, n)) == 1.0
        for _ in range(5):
            s = samples_perfect_random(n, rng)
            d = int(rng.integers(0, 1 << n))
            inst = DhspInstance(n, d, s)
            assert lambda_vector(inst) == (0,) * n


@pytest.mark.parametrize("n", [27, 30, 40, 47])
def test_perfect_samples_certain_past_float_range_of_z(n):
    # z = d*s reaches 2^(2n), beyond float64's 53 bits; reduced mod N first,
    # the target lambda is exactly zero.
    rng = np.random.default_rng(n)
    for _ in range(4):
        d = int(rng.integers(0, 1 << n))
        for s in (search_perfect_samples(n), samples_perfect_random(n, rng)):
            inst = DhspInstance(n, d, s)
            assert success_probability(inst, bit_reverse(d, n)) == 1.0
            assert analyze(inst).p_success == 1.0


@pytest.mark.parametrize("n", [20, 30, 40])
def test_success_probability_matches_exact_integer_law(n):
    # Mixed samples span target weights from tiny (k = 0) to certain (k = n).
    rng = np.random.default_rng(100 + n)
    for k in range(0, n + 1, 2):
        d = int(rng.integers(0, 1 << n))
        inst = DhspInstance(n, d, samples_mixed(n, k, rng))
        pm = phi_from_samples(inst)
        target = bit_reverse(d, n)
        for y in (target, target ^ (1 << (n - 1)), int(rng.integers(0, 1 << n))):
            want = exact_outcome_probability(inst, y)
            assert abs(success_probability(inst, y) - want) < 1e-15
            assert abs(success_probability(inst, y, pm) - want) < 1e-15


def test_search_perfect_samples_canonical_and_uncapped():
    assert search_perfect_samples(1) == (1,)
    assert search_perfect_samples(3) == (1, 2, 4)
    assert search_perfect_samples(5) == (1, 2, 4, 8, 16)
    for n in range(1, 9):
        assert search_perfect_samples(n) == scan_perfect_samples(n)
    # The closed form costs O(n), so it needs no size cap.
    assert search_perfect_samples(12) == tuple(1 << i for i in range(12))


def test_perfect_random_samples_bit_structure():
    rng = np.random.default_rng(57)
    for n in (1, 2, 4, 6):
        for _ in range(10):
            s = samples_perfect_random(n, rng)
            for i, v in enumerate(s):
                assert (v >> i) & 1 == 1
                assert v & ((1 << i) - 1) == 0


def test_mixed_samples_split_and_validation():
    rng = np.random.default_rng(58)
    n = 4
    s = samples_mixed(n, 2, rng)
    assert len(s) == n
    for i in range(2):
        assert (s[i] >> i) & 1 == 1 and s[i] & ((1 << i) - 1) == 0
    assert all(0 <= v < 16 for v in s)
    with pytest.raises(InputError):
        samples_mixed(n, -1, rng)
    with pytest.raises(InputError):
        samples_mixed(n, 5, rng)


def test_recovery_certain_with_perfect_samples():
    for n in (2, 3, 4):
        for d in (0, 1, (1 << n) - 1):
            inst = DhspInstance(n, d, search_perfect_samples(n))
            res = recover_d(inst, trials=300, rng_seed=99)
            assert res.d_hat == d
            assert res.empirical_rate == 1.0
            assert res.analytic_p == 1.0
            assert sum(res.histogram.values()) == 300


def test_recovery_deterministic_per_seed():
    rng = np.random.default_rng(59)
    inst = random_instance(3, rng)
    a = recover_d(inst, trials=500, rng_seed=7)
    b = recover_d(inst, trials=500, rng_seed=7)
    assert a.histogram == b.histogram
    assert a.d_hat == b.d_hat and a.empirical_rate == b.empirical_rate
    c = recover_d(inst, trials=500, rng_seed=8)
    assert sum(c.histogram.values()) == 500


def test_majority_ties_go_to_the_smallest_reversed_outcome():
    # Few shots over random samples spread the outcomes, so top counts tie.
    rng = np.random.default_rng(61)
    ties = 0
    for case in range(160):
        n = int(rng.integers(2, 7))
        trials = (1, 2, 3, 5)[case % 4]
        inst = random_instance(n, rng)
        rec = recover_d(inst, trials=trials, rng_seed=case)
        best = max(rec.histogram.values())
        top = [y for y, c in rec.histogram.items() if c == best]
        ties += len(top) > 1
        assert rec.d_hat == min(bit_reverse(y, n) for y in top)
        target = rec.histogram.get(bit_reverse(inst.d, n), 0)
        assert rec.empirical_rate == target / trials
    assert ties > 20


def test_recovery_carries_the_analysis_it_ran_on():
    rng = np.random.default_rng(62)
    for n in (1, 2, 3, 5):
        for _ in range(4):
            inst = random_instance(n, rng)
            rec = recover_d(inst, trials=20, rng_seed=3)
            want = analyze(inst)
            np.testing.assert_array_equal(rec.analysis.phi.phi, want.phi.phi)
            assert rec.analysis.phi.n == want.phi.n
            assert rec.analysis.lam == want.lam
            assert rec.analysis.p_success == want.p_success
            assert rec.analysis.f == want.f
            assert rec.analytic_p == rec.analysis.p_success
    assert "analytic_p" not in {f.name for f in dataclasses.fields(RecoveryResult)}


def test_exact_encoding_matrix_reproduces_phase_integers():
    rng = np.random.default_rng(60)
    for n in (2, 3, 4):
        for _ in range(10):
            inst = random_instance(n, rng)
            d_bits = np.array([(inst.d >> j) & 1 for j in range(n)], dtype=float)
            prods = d_bits @ phi0_matrix(inst).phi
            for i in range(n):
                assert prods[i] == inst.d * inst.s[i]


def test_exact_encoding_probability_matches_procedure():
    # The weight of outcome d in terms of phi0 - phi is the outcome law at y = d.
    rng = np.random.default_rng(61)
    for n in (2, 3):
        for _ in range(8):
            inst = random_instance(n, rng)
            # sample-derived matrix, then an arbitrary valid substitute
            for pm in (phi_from_samples(inst), random_triangular_phi(n, rng)):
                p = success_probability(inst, inst.d, pm)
                assert abs(p - brute_phi0_probability(inst, pm.phi)) < 1e-10
                amp = run_procedure(inst, phi=pm).amps[inst.d]
                assert abs(p - abs(amp) ** 2) < 1e-10


def test_analysis_bundle():
    inst = DhspInstance(2, 3, (1, 2))
    a = analyze(inst)
    assert a.f == 2
    assert a.lam == lambda_vector(inst)
    assert abs(a.p_success - success_probability(inst, bit_reverse(3, 2))) < 1e-12
    np.testing.assert_array_equal(a.phi.phi, phi_from_samples(inst).phi)
    assert analyze(DhspInstance(3, 0, (1, 2, 4))).f == 0


def test_segment_count_closed_form_matches_brute_force():
    # f = n - nu(d), nu the lowest set bit of d, against the segment count.
    for n in range(1, 9):
        samples = search_perfect_samples(n)
        for d in range(1 << n):
            inst = DhspInstance(n, d, samples)
            assert analyze(inst).f == brute_segment_count(inst)


def test_outcome_range_checked():
    inst = DhspInstance(2, 1, (1, 2))
    with pytest.raises(InputError):
        success_probability(inst, 4)
    with pytest.raises(InputError):
        success_probability(inst, -1)


def test_state_cap_applies():
    with pytest.raises(CapExceededError):
        coset_state(DhspInstance(21, 1, search_perfect_samples(21)))
    with pytest.raises(CapExceededError):
        run_procedure(DhspInstance(21, 1, search_perfect_samples(21)))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_distribution_is_normalized(n, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(n, rng)
    amps = run_procedure(inst).amps
    probs = [success_probability(inst, y) for y in range(1 << n)]
    assert abs(sum(probs) - 1.0) < 1e-9
    np.testing.assert_allclose(probs, np.abs(amps) ** 2, atol=1e-10)
