"""Acceptance gate: nine end-to-end checks at fixed tolerances.

Every expected value below is computed inside this module (literals or
independent loop formulas), never by calling the code under test twice.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from gqt import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    DhspInstance,
    GqftSpec,
    PhaseMatrix,
    QState,
    Swap,
    apply_circuit,
    bit_reverse,
    check_general,
    circuit_to_dense,
    gqft_circuit,
    gqft_dense,
    haar_apply_basis,
    haar_inverse_apply,
    haar_inverse_circuit,
    haar_matrix,
    haar_matrix_identity_check,
    lambda_vector,
    measure_all,
    numeric_unitarity_defect,
    recover_d,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
    run_procedure,
    samples_random,
    search_perfect_samples,
    success_probability,
    toeplitz_phi,
)

from _oracles import random_rot_spec, random_triangular_phi

# Child interpreters run from here, so `python -m gqt` imports this checkout.
SRC = Path(__file__).resolve().parents[1] / "src"


def h_tensor(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    m = np.eye(1, dtype=np.complex128)
    for _ in range(n):
        m = np.kron(m, h)
    return m


def test_criterion_1_golden_small_transforms():
    # single wire: the transform of [[1]] is the 2x2 Hadamard
    got = gqft_dense(GqftSpec(PhaseMatrix(1, [[1.0]]))).entries
    assert np.max(np.abs(got - h_tensor(1))) < 1e-12

    # two-wire family [[2, a], [0, 2]]: columns x=(0,0) and x=(1,0) are
    # plain sign patterns; columns with x_1 = 1 pick up the factor i^a.
    for a in (0.0, 1.0, 2.0, 3.0, 0.5):
        ia = np.exp(1j * np.pi * a / 2.0)
        expected = 0.5 * np.array(
            [
                [1, 1, 1, 1],
                [1, -1, ia, -ia],
                [1, 1, -1, -1],
                [1, -1, -ia, ia],
            ],
            dtype=np.complex128,
        )
        pm = PhaseMatrix(2, [[2.0, a], [0.0, 2.0]])
        got = gqft_dense(GqftSpec.from_phase_matrix(pm)).entries
        assert np.max(np.abs(got - expected)) < 1e-12

    # the printed 4x4 averaging matrix
    r2 = np.sqrt(2.0)
    p4 = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [r2, -r2, 0, 0], [0, 0, r2, -r2]]
    )
    assert np.max(np.abs(haar_matrix(2).p - p4)) < 1e-12
    print("criterion 1 (golden small transforms): PASS")


def test_criterion_2_hadamard_and_standard_transform_reductions():
    for n in range(1, 7):
        pm = PhaseMatrix(n, np.eye(n) * float(1 << (n - 1)))
        got = gqft_dense(GqftSpec(pm)).entries
        assert np.max(np.abs(got - h_tensor(n))) < 1e-12

    for n in range(1, 7):
        dim = 1 << n
        w = np.exp(2j * np.pi / dim)
        dft = np.array(
            [[w ** (x * y) for x in range(dim)] for y in range(dim)]
        ) / np.sqrt(dim)
        got = gqft_dense(GqftSpec(toeplitz_phi(n))).entries
        for y in range(dim):
            assert np.max(np.abs(got[y] - dft[bit_reverse(y, n)])) < 1e-10
    print("criterion 2 (hadamard and standard-transform reductions): PASS")


def test_criterion_3_unitarity_criterion_agreement():
    # exhaustive 2x2 grid over entries {0, 1, 2, 3, 4}
    for e in itertools.product(range(5), repeat=4):
        pm = PhaseMatrix(2, [[float(e[0]), float(e[1])], [float(e[2]), float(e[3])]])
        assert check_general(pm).valid == (numeric_unitarity_defect(pm) < 1e-9)

    # 500 random real matrices at n in {2, 3}
    rng = np.random.default_rng(1729)
    for k in range(500):
        n = 2 if k % 2 == 0 else 3
        phi = rng.uniform(0.0, 4.0**n, size=(n, n))
        if k % 3 == 0:
            phi = np.round(phi)
        pm = PhaseMatrix(n, phi)
        assert check_general(pm).valid == (numeric_unitarity_defect(pm) < 1e-9)

    # one-parameter families, 20 random parameters each
    for _ in range(20):
        a = float(rng.uniform(0.0, 8.0))
        for phi in ([[2.0, 0.0], [a, 2.0]], [[2.0, a], [0.0, 2.0]]):
            pm = PhaseMatrix(2, phi)
            assert check_general(pm).valid
            assert numeric_unitarity_defect(pm) < 1e-9
        pm3 = PhaseMatrix(2, [[2.0, a], [2.0, 2.0 - a]])
        assert check_general(pm3).valid == (numeric_unitarity_defect(pm3) < 1e-9)
    for a in (-2.0, 0.0, 2.0, 4.0, 6.0):
        pm3 = PhaseMatrix(2, [[2.0, a], [2.0, 2.0 - a]])
        assert check_general(pm3).valid
        assert numeric_unitarity_defect(pm3) < 1e-9
    print("criterion 3 (unitarity criterion agreement): PASS")


def test_criterion_4_circuits_match_dense_forms():
    rng = np.random.default_rng(4)
    for k in range(100):
        n = 2 + k % 5  # 2..6
        spec = GqftSpec(random_triangular_phi(n, rng))
        diff = np.max(
            np.abs(circuit_to_dense(gqft_circuit(spec)).entries - gqft_dense(spec).entries)
        )
        assert diff < 1e-9
        assert gqft_circuit(spec).gate_count <= n + n * (n - 1) // 2

    for k in range(100):
        n = 1 + k % 5  # 1..5
        if k % 2 == 0:
            spec = random_rot_spec(n, HADAMARD_FIRST, rng)
            dense, circ = rot1_dense(spec).entries, rot1_circuit(spec)
        else:
            spec = random_rot_spec(n, ROTATION_FIRST, rng)
            dense, circ = rot2_dense(spec).entries, rot2_circuit(spec)
        assert np.max(np.abs(circuit_to_dense(circ).entries - dense)) < 1e-9
        assert circ.gate_count <= n + n * (n - 1)
    print("criterion 4 (circuits match dense forms): PASS")


def test_criterion_5_perfect_sample_recovery_certain():
    for n in range(2, 6):
        s = search_perfect_samples(n)
        for d in range(1 << n):
            inst = DhspInstance(n, d, s)
            assert lambda_vector(inst) == (0,) * n
            assert abs(success_probability(inst, bit_reverse(d, n)) - 1.0) < 1e-12
            res = recover_d(inst, trials=200, rng_seed=1729 + d)
            assert res.d_hat == d
            assert res.empirical_rate == 1.0
    print("criterion 5 (perfect-sample recovery certain): PASS")


def test_criterion_6_outcome_distribution_exact():
    rng = np.random.default_rng(6)
    for k in range(50):
        n = 1 + k % 5  # 1..5
        inst = DhspInstance(
            n, int(rng.integers(0, 1 << n)), samples_random(n, rng)
        )
        amps = run_procedure(inst).amps
        total = 0.0
        for y in range(1 << n):
            p = success_probability(inst, y)
            assert abs(p - abs(amps[y]) ** 2) < 1e-9
            total += p
        assert abs(total - 1.0) < 1e-9
    print("criterion 6 (outcome distribution exact): PASS")


def test_criterion_7_ladder_basis_identities():
    # exact integer identity on every column, up to 256 points
    for n in range(1, 9):
        hm = haar_matrix(n)
        for col in range(1 << n):
            x = [(col >> (n - 1 - j)) & 1 for j in range(n)]
            assert haar_matrix_identity_check(n, x, hm)

    # closed-form columns
    for n in range(1, 7):
        p = haar_matrix(n).p
        for col in range(1 << n):
            x = [(col >> (n - 1 - j)) & 1 for j in range(n)]
            assert np.max(np.abs(haar_apply_basis(n, x).amps - p[:, col])) < 1e-10

    # inverse circuits and their exact swap counts
    for n in range(1, 7):
        for i in range(n):
            circ = haar_inverse_circuit(n, i)
            swaps = sum(isinstance(g, Swap) for g in circ.gates)
            assert swaps == (i + 1) * (n - i - 1) + i
            for prefix in range(1 << i):
                ket = (1 << i) + prefix
                got = apply_circuit(QState.basis(n, ket), circ).amps
                want = haar_inverse_apply(n, ket).amps
                assert np.max(np.abs(got - want)) < 1e-10
    print("criterion 7 (ladder basis identities): PASS")


def test_criterion_8_measurement_statistics():
    rng = np.random.default_rng(1729)
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    states = [
        QState.basis(2, 2),
        QState(2, np.sqrt([0.5, 0.25, 0.125, 0.125]).astype(np.complex128)),
        QState(3, raw / np.linalg.norm(raw)),
    ]
    shots = 100_000
    for state in states:
        probs = np.abs(state.amps) ** 2
        for seed in range(20):
            hist = measure_all(state, seed, shots)
            assert measure_all(state, seed, shots) == hist
            assert sum(hist.values()) == shots
            for k, p in enumerate(probs):
                count = hist.get(k, 0)
                sigma = np.sqrt(shots * p * (1.0 - p))
                assert abs(count - shots * p) <= 4.0 * sigma + 1e-9
    print("criterion 8 (measurement statistics): PASS")


def test_criterion_9_cli_byte_determinism(tmp_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(
        json.dumps({"n": 2, "phi": [[2.0, 0.0], [1.0, 2.0]]})
    )
    rot_path = tmp_path / "rot.json"
    rot_path.write_text(
        json.dumps(
            {
                "n": 2,
                "variant": "hadamard_first",
                "theta": [{"i": 1, "j": 0, "t0": 0.3, "t1": 1.1}],
            }
        )
    )
    circ_path = tmp_path / "circ.json"
    setup = subprocess.run(
        [
            sys.executable, "-m", "gqt", "matrix", "--kind", "gqft",
            "--spec", str(phi_path), "--emit-circuit", str(circ_path),
        ],
        capture_output=True,
        cwd=SRC,
    )
    assert setup.returncode == 0

    commands = [
        ["matrix", "--kind", "gqft", "--spec", str(phi_path)],
        ["check-unitary", "--spec", str(phi_path)],
        ["simulate", "--spec", str(circ_path), "--basis", "1", "--trials", "100"],
        ["compare", "--spec", str(rot_path)],
        ["dhsp", "--n", "3", "--d", "5", "--samples", "mixed:2", "--trials", "100"],
        ["haar", "--n", "3"],
    ]
    for cmd in commands:
        full = [sys.executable, "-m", "gqt", *cmd]
        first = subprocess.run(full, capture_output=True, cwd=SRC)
        second = subprocess.run(full, capture_output=True, cwd=SRC)
        assert first.returncode == 0, (cmd, first.stderr)
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout
        json.loads(first.stdout)  # every report must parse as JSON
    print("criterion 9 (cli byte determinism): PASS")
