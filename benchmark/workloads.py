"""The workloads: seeded inputs, the timed tasks, and their oracle checks.

Every workload is a closed loop with one client.  Task i of a run is
``tasks[i % len(tasks)]``; the pool repeats a fixed cycle of task kinds, so
the share of each kind (and so which size mode each percentile falls in) does
not depend on the seed or on how fast the program is.  The seed only picks
the parameters: phase entries, angles, basis inputs, shifts and samples.

Library calls go through the ``gqt`` namespace so that the traced run sees
them; oracle checks use ``oracles`` and run outside the timed interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gqt
import gqt.cli
import oracles
from oracles import require, require_close

SHOTS = 4096
DHSP_TRIALS = 2000
# Distinct cycles of inputs built at set-up; longer runs reuse them.
POOL_CYCLES = 4

# Sizes per workload.  Full sizes are the benchmark; smoke sizes run the same
# code in well under a second per task kind.
SIZES = {
    "full": {
        "dense_cli": {"matrix": 5, "small": 7, "mid": 8, "large": 9, "vector": 9},
        "criterion": {"valid": 9, "failing": 11},
        "dhsp": {"n": 10},
    },
    "smoke": {
        "dense_cli": {"matrix": 3, "small": 3, "mid": 4, "large": 4, "vector": 4},
        "criterion": {"valid": 5, "failing": 6},
        "dhsp": {"n": 4},
    },
}

# Task-kind cycles.  Each is laid out so that the median lands in the middle
# of one size mode and the tail percentile in the middle of a costlier one,
# and both follow NumPy-bound work rather than per-entry Python loops:
#   dense_cli:   12/45 cheap tasks (matrix dumps at n=5, rot compares at n=7,
#                simulate and haar runs on n=9 state vectors), 27/45
#                random-triangular compares at n=8 (the median), 4/45 of
#                them at n=9 (p90) and 2/45 Toeplitz compares at n=9.
#   criterion:   5/6 valid at n=9, 1/6 failing at n=11.
#   dhsp:        one task per k = n .. 0, all dense-build bound.
# The costly tasks are sized so that a 25 s run holds at least ten of them
# beyond the tail percentile even when the machine runs slow.
CYCLES = {
    # (kind, size): "m_" kinds are `matrix` dumps, "c_" kinds `compare` runs,
    # "s_" kinds `simulate` runs and "h_haar" a `haar --ket --i` run.
    "dense_cli": [
        ("m_gqft", "matrix"), ("c_tri", "mid"), ("c_tri", "mid"), ("s_gqft", "vector"),
        ("c_tri", "large"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_tri", "mid"),
        ("m_rot1", "matrix"), ("c_tri", "mid"), ("c_tri", "mid"), ("s_dft", "vector"),
        ("c_toeplitz", "large"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_tri", "mid"),
        ("m_rot2", "matrix"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_rot1", "small"),
        ("c_tri", "large"), ("c_tri", "mid"), ("c_tri", "mid"), ("s_rot1", "vector"),
        ("m_dft", "matrix"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_rot2", "small"),
        ("c_tri", "large"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_tri", "mid"),
        ("m_haar", "matrix"), ("c_tri", "mid"), ("c_tri", "mid"), ("s_rot2", "vector"),
        ("c_toeplitz", "large"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_tri", "mid"),
        ("h_haar", "vector"), ("c_tri", "mid"), ("c_tri", "mid"), ("c_tri", "mid"),
        ("c_tri", "large"),
    ],
    "criterion": ["valid_toeplitz", "valid_tri", "valid_tri", "valid_toeplitz", "valid_tri", "failing"],
}

# Tail percentile per workload: in the middle of the costly size mode, with at
# least ten samples beyond it in a 25 s run.  It is fixed, not recomputed per
# run, so that a faster program, which completes more tasks, is measured at
# the same rank.
TAIL_PERCENTILE = {"dense_cli": 90, "criterion": 90, "dhsp": 80}

WORKLOADS = tuple(TAIL_PERCENTILE)


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    tasks: list[Task]  # POOL_CYCLES whole cycles
    tail_percentile: float

    @property
    def cycle(self) -> int:
        """Tasks per cycle of kinds; a run measures whole cycles."""
        return len(self.tasks) // POOL_CYCLES


def random_triangular_phi(n: int, rng: np.random.Generator) -> list[list[int]]:
    """Diagonal N/2, strictly-upper multiples of N, lower entries uniform."""
    modulus = 1 << n
    phi = [[0] * n for _ in range(n)]
    for i in range(n):
        phi[i][i] = modulus // 2
        for j in range(n):
            if j < i:
                phi[i][j] = int(rng.integers(0, modulus))
            elif j > i:
                phi[i][j] = modulus * int(rng.integers(-1, 3))
    return phi


def toeplitz_phi(n: int) -> list[list[int]]:
    """phi[i][j] = 2^(n-1-i+j) as integers (the standard transform's matrix)."""
    return [[1 << (n - 1 - i + j) for j in range(n)] for i in range(n)]


def failing_phi(n: int, rng: np.random.Generator) -> list[list[int]]:
    """A random triangular phi whose first n-4 diagonal entries are N/2 + 1.

    A z fails only if it is supported on those wires, so at most 3^(n-4) - 1
    of the 3^n vectors fail and the sweep, not witness selection, dominates.
    Row 0 holds no N/2, so z = e_0 fails every column, and it is the smallest
    witness in the library's order."""
    phi = random_triangular_phi(n, rng)
    for i in range(n - 4):
        phi[i][i] += 1
    return phi


def random_thetas(n: int, rng: np.random.Generator) -> dict:
    """Cascade angles (theta(0), theta(1)) for every lower cell, both random."""
    return {
        (i, j): (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for i in range(n)
        for j in range(i)
    }


def random_alpha0(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=n))


def rot_spec_json(n: int, variant: str, thetas: dict, alpha0) -> dict:
    data = {
        "n": n,
        "variant": variant,
        "theta": [{"i": i, "j": j, "t0": t0, "t1": t1} for (i, j), (t0, t1) in thetas.items()],
    }
    if alpha0 is not None:
        data["alpha0"] = list(alpha0)
    return data


# ---------------------------------------------------------------------------
# dense_cli


def _cli_task(kind: str, argv: list[str], out: Path, check_report) -> Task:
    def run():
        return gqt.cli.main(argv)

    def check(code):
        require(code == 0, f"gqt {' '.join(argv)} exited {code}")
        text = out.read_text()
        out.unlink()  # the next task must write its own report
        check_report(text)

    return Task(kind, run, check)


def _matrix_task(kind: str, n: int, rng: np.random.Generator, workdir: Path, tag: str) -> Task:
    out = workdir / "report.json"
    argv = ["matrix", "--kind", kind]
    if kind == "gqft":
        phi = random_triangular_phi(n, rng)
        spec_path = workdir / f"{tag}.json"
        spec_path.write_text(json.dumps({"n": n, "phi": phi}))
        argv += ["--spec", str(spec_path)]

        def expected():
            spec = gqt.GqftSpec(gqt.PhaseMatrix(n, phi))
            return gqt.circuit_to_dense(gqt.gqft_circuit(spec)).entries

    elif kind in ("rot1", "rot2"):
        variant = gqt.HADAMARD_FIRST if kind == "rot1" else gqt.ROTATION_FIRST
        thetas = random_thetas(n, rng)
        alpha0 = random_alpha0(n, rng) if kind == "rot2" else None
        spec_path = workdir / f"{tag}.json"
        spec_path.write_text(json.dumps(rot_spec_json(n, variant, thetas, alpha0)))
        argv += ["--spec", str(spec_path)]

        def expected():
            spec = gqt.RotSpec(n, variant, thetas, alpha0)
            circ = gqt.rot1_circuit(spec) if kind == "rot1" else gqt.rot2_circuit(spec)
            return gqt.circuit_to_dense(circ).entries

    elif kind == "dft":
        argv += ["--n", str(n)]

        def expected():
            return gqt.circuit_to_dense(gqt.dft_circuit(n)).entries

    elif kind == "haar":
        argv += ["--n", str(n)]

        def expected():
            # P is real orthogonal, so row k of P is P^T applied to ket k.
            return np.array(
                [gqt.haar_inverse_apply(n, k).amps for k in range(1 << n)]
            )

    else:
        raise ValueError(kind)
    argv += ["--out", str(out)]

    def check_report(text):
        got = gqt.cli.parse_matrix_report(text)
        require_close(got, expected(), oracles.AMP_TOL, f"matrix --kind {kind} n={n}")

    return _cli_task(f"m_{kind}", argv, out, check_report)


def _compare_task(kind: str, n: int, rng: np.random.Generator, workdir: Path, tag: str) -> Task:
    out = workdir / "report.json"
    spec_path = workdir / f"{tag}.json"
    if kind == "c_tri":
        spec = {"n": n, "phi": random_triangular_phi(n, rng)}
    elif kind == "c_toeplitz":
        spec = {"n": n, "phi": toeplitz_phi(n)}
    else:
        variant = gqt.HADAMARD_FIRST if kind == "c_rot1" else gqt.ROTATION_FIRST
        thetas = random_thetas(n, rng)
        alpha0 = random_alpha0(n, rng) if kind == "c_rot2" else None
        spec = rot_spec_json(n, variant, thetas, alpha0)
    spec_path.write_text(json.dumps(spec))
    argv = ["compare", "--spec", str(spec_path), "--out", str(out)]

    def check_report(text):
        report = json.loads(text)
        require(report["pass"] is True, f"compare {kind} n={n} did not pass")
        require(report["n"] == n, f"compare {kind} reports n={report['n']}")
        require(
            report["max_abs_diff"] < oracles.AMP_TOL,
            f"compare {kind} max_abs_diff {report['max_abs_diff']}",
        )
        require(report["within_ceiling"] is True, f"compare {kind} exceeds its gate ceiling")
        if kind == "c_toeplitz":
            require(
                report.get("dft_swap_max_abs_diff", 1.0) < oracles.AMP_TOL,
                "Toeplitz compare misses the swapped standard transform",
            )

    return _cli_task(f"{kind}_n{n}", argv, out, check_report)


def _simulate_task(kind: str, n: int, rng: np.random.Generator, workdir: Path, tag: str) -> Task:
    """`simulate` a seeded circuit dump on a basis state, with 4096 shots."""
    x = int(rng.integers(0, 1 << n))
    meas_seed = int(rng.integers(0, 2**31))
    if kind == "gqft":
        phi = random_triangular_phi(n, rng)
        circuit = gqt.gqft_circuit(gqt.GqftSpec(gqt.PhaseMatrix(n, phi)))

        def expected():
            return oracles.gqft_column(phi, x, n)

    elif kind == "dft":
        circuit = gqt.dft_circuit(n)

        def expected():
            return oracles.dft_column(x, n)

    elif kind == "rot1":
        thetas = random_thetas(n, rng)
        circuit = gqt.rot1_circuit(gqt.RotSpec(n, gqt.HADAMARD_FIRST, thetas))

        def expected():
            return oracles.rot1_column(thetas, x, n)

    elif kind == "rot2":
        thetas = random_thetas(n, rng)
        alpha0 = random_alpha0(n, rng)
        circuit = gqt.rot2_circuit(gqt.RotSpec(n, gqt.ROTATION_FIRST, thetas, alpha0))

        def expected():
            return oracles.rot2_column(thetas, alpha0, x, n)

    else:
        raise ValueError(kind)
    spec_path = workdir / f"{tag}.json"
    spec_path.write_text(json.dumps(gqt.cli.circuit_to_json_dict(circuit)))
    out = workdir / "report.json"
    argv = ["simulate", "--spec", str(spec_path), "--basis", str(x),
            "--trials", str(SHOTS), "--seed", str(meas_seed), "--out", str(out)]

    def check_report(text):
        report = json.loads(text)
        amps = np.array([complex(re, im) for re, im in report["amps"]])
        want = expected()
        require_close(amps, want, oracles.AMP_TOL, f"simulate {kind} n={n} column {x}")
        hist = {int(k): int(v) for k, v in report["histogram"]}
        oracles.check_histogram(hist, np.abs(want) ** 2, SHOTS)

    return _cli_task(f"s_{kind}", argv, out, check_report)


def _haar_task(n: int, rng: np.random.Generator, workdir: Path) -> Task:
    """`haar --ket x --i level`: the inverse transform of one ket by its closed
    form, and the inverse circuit of its level; the two must agree."""
    level = int(rng.integers(0, n))
    x = (1 << level) | int(rng.integers(0, 1 << level))  # a ket of family `level`
    out = workdir / "report.json"
    argv = ["haar", "--n", str(n), "--ket", str(x), "--i", str(level), "--out", str(out)]

    def check_report(text):
        report = json.loads(text)
        got = np.array([complex(re, im) for re, im in report["inverse_amps"]])
        circuit = gqt.cli.circuit_from_json_dict(report["inverse_circuit"])
        via_circuit = gqt.apply_circuit(gqt.QState.basis(n, x), circuit).amps
        require_close(got, via_circuit, oracles.AMP_TOL, f"haar n={n} ket {x}")
        require(abs(np.linalg.norm(got) - 1.0) < oracles.AMP_TOL, f"haar n={n} ket {x} norm")

    return _cli_task("h_haar", argv, out, check_report)


def build_dense_cli(sizes: dict, rng: np.random.Generator, workdir: Path) -> list[Task]:
    tasks = []
    for c in range(POOL_CYCLES):
        for slot, (kind, size) in enumerate(CYCLES["dense_cli"]):
            tag = f"spec-{c}-{slot}"
            n = sizes[size]
            if kind.startswith("m_"):
                tasks.append(_matrix_task(kind[2:], n, rng, workdir, tag))
            elif kind.startswith("s_"):
                tasks.append(_simulate_task(kind[2:], n, rng, workdir, tag))
            elif kind == "h_haar":
                tasks.append(_haar_task(n, rng, workdir))
            else:
                tasks.append(_compare_task(kind, n, rng, workdir, tag))
    return tasks


# ---------------------------------------------------------------------------
# criterion

SPOT_CHECKS = 64


def _criterion_task(kind: str, n: int, rng: np.random.Generator) -> Task:
    if kind == "valid_toeplitz":
        phi = toeplitz_phi(n)
    elif kind == "valid_tri":
        phi = random_triangular_phi(n, rng)
    else:
        phi = failing_phi(n, rng)
    spot = []
    while len(spot) < SPOT_CHECKS:
        z = [int(v) for v in rng.integers(-1, 2, size=n)]
        if any(z):
            spot.append(z)

    def run():
        pm = gqt.PhaseMatrix(n, phi)
        return gqt.check_triangular(pm), gqt.check_general(pm)

    def check(out):
        tri, gen = out
        cell = oracles.first_triangular_failure(phi, n)
        if kind == "failing":
            require(not tri.valid and tuple(tri.witness_cell) == cell,
                    f"triangular witness {tri.witness_cell} != {cell}")
            require(not gen.valid, f"general check passed a phi with row 0 free of N/2 (n={n})")
            z = [0] * n
            for i in gen.witness_plus:
                z[i] = 1
            for i in gen.witness_minus:
                z[i] = -1
            require(any(z), "general witness is the zero vector")
            require(not oracles.hits_half(phi, z, n), f"general witness {z} hits N/2")
            require(
                (tuple(gen.witness_plus), tuple(gen.witness_minus)) == ((0,), ()),
                f"general witness {z} is not the smallest, e_0",
            )
        else:
            require(cell is None and tri.valid, f"triangular check rejected a valid phi at {cell}")
            require(gen.valid, f"general check rejected a triangular phi (n={n})")
            for z in spot:
                require(oracles.hits_half(phi, z, n), f"valid phi misses N/2 for z={z}")

    return Task(kind, run, check)


def build_criterion(sizes: dict, rng: np.random.Generator, workdir: Path) -> list[Task]:
    return [
        _criterion_task(kind, sizes["failing" if kind == "failing" else "valid"], rng)
        for _ in range(POOL_CYCLES)
        for kind in CYCLES["criterion"]
    ]


# ---------------------------------------------------------------------------
# dhsp


def _dhsp_task(n: int, k: int, rng: np.random.Generator) -> Task:
    d = int(rng.integers(0, 1 << n))
    sample_seed = int(rng.integers(0, 2**31))
    meas_seed = int(rng.integers(0, 2**31))

    def run():
        inst = gqt.DhspInstance(n, d, gqt.samples_mixed(n, k, gqt.rng_from_seed(sample_seed)))
        analysis = gqt.analyze(inst)
        rec = gqt.recover_d(inst, DHSP_TRIALS, meas_seed)
        p = gqt.success_probability(inst, gqt.bit_reverse(d, n))
        return inst.s, analysis, rec, p

    def check(out):
        s, analysis, rec, p = out
        want = oracles.target_probability(n, d, s)
        for what, got in (("analytic_p", rec.analytic_p), ("analyze", analysis.p_success),
                          ("success_probability", p)):
            require(abs(got - want) <= oracles.PROB_TOL, f"{what} {got!r} != exact {want!r}")
        require(sum(rec.histogram.values()) == DHSP_TRIALS, "histogram shot count")
        if k == n:
            require(oracles.is_perfect_family(s, n), f"samples {s} are not perfect")
            require(want == 1.0, f"perfect samples give p={want!r}")
            require(rec.empirical_rate == 1.0 and rec.d_hat == d,
                    f"perfect instance recovered {rec.d_hat} at rate {rec.empirical_rate}")
        else:
            band = oracles.binomial_band(want, DHSP_TRIALS)
            require(abs(rec.empirical_rate - want) <= band,
                    f"rate {rec.empirical_rate} outside {want:.4f} +- {band:.4f}")

    return Task(f"k{k}", run, check)


def build_dhsp(sizes: dict, rng: np.random.Generator, workdir: Path) -> list[Task]:
    n = sizes["n"]
    return [_dhsp_task(n, k, rng) for _ in range(POOL_CYCLES) for k in range(n, -1, -1)]


_BUILDERS = {
    "dense_cli": build_dense_cli,
    "criterion": build_criterion,
    "dhsp": build_dhsp,
}


def largest_array_bytes(wl: Workload) -> int:
    """A lower bound on the workload's working set: its largest array, from
    the array's shape (temporaries such as the U^dagger U product not counted)."""
    n = max(wl.sizes.values())
    if wl.name == "criterion":
        # One block of the signed-vector sweep: float64, one row per vector.
        return 8 * n * min(3**n, gqt.phasemat._BLOCK)
    if wl.name == "dense_cli":
        n = wl.sizes["large"]
    return 16 << (2 * n)  # a dense 2^n x 2^n complex matrix


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """The workload's seeded task pool; spec files go under ``workdir``."""
    sizes = SIZES["smoke" if smoke else "full"][name]
    rng = np.random.default_rng(seed)
    tasks = _BUILDERS[name](sizes, rng, workdir)
    return Workload(name, sizes, tasks, TAIL_PERCENTILE[name])

