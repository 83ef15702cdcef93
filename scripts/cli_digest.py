#!/usr/bin/env python3
"""Fingerprint the bytes of every gqt subcommand, for byte-identity sweeps.

Runs each subcommand in-process through ``gqt.cli.main`` on seeded spec
files at n = 1..max-n, in JSON and CSV, plus malformed inputs.  Every kind
that has a circuit (gqft, rot1, rot2, dft) dumps it with ``--emit-circuit``
at each n, and ``simulate`` runs each dump.  Prints one
line per run: the exit code (or the name of an exception that escaped
``main``), the SHA-256 of stdout followed by any file the run wrote, the
SHA-256 of stderr, and the argv with the temp dir shown as <tmp>.  A last
line digests all of them, so two checkouts agree on every run iff they
print the same digest; where they differ, a line diff names the runs.
An exception that escapes ``main`` has its traceback written to stderr and
makes the script exit 1; otherwise it exits 0.

Usage:
    PYTHONPATH=src python3 scripts/cli_digest.py --max-n 8
"""

import hashlib
import io
import json
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from gqt.cli import Parser, int_at_least
from gqt.cli import main as cli_main
from gqt.config import DEFAULT_SEED, rng_from_seed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _phase_specs(tmp: Path, n: int, rng: np.random.Generator) -> dict[str, str]:
    """Spec files at width n: Toeplitz, integral and real triangular, general."""
    dim = 1 << n
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    toeplitz = 2.0 ** (n - 1 - i + j)
    upper = np.triu(dim * rng.integers(-1, 2, size=(n, n)), 1)
    integral = upper + np.tril(rng.integers(-2 * dim, 2 * dim, size=(n, n)), -1)
    np.fill_diagonal(integral, dim // 2)
    real = upper + np.tril(rng.uniform(-dim, dim, size=(n, n)), -1)
    np.fill_diagonal(real, dim / 2)
    general = rng.integers(-dim, dim, size=(n, n))
    phis = {"tri": toeplitz, "int": integral, "real": real, "gen": general}
    return {
        name: _write(tmp / f"{name}{n}.json", {"n": n, "phi": phi.astype(float).tolist()})
        for name, phi in phis.items()
    }


def _rot_specs(tmp: Path, n: int, rng: np.random.Generator) -> dict[str, str]:
    theta = []
    for a in range(n):
        for b in range(a):
            t0, t1 = rng.uniform(0.0, 2 * np.pi, size=2)
            theta.append({"i": a, "j": b, "t0": float(t0), "t1": float(t1)})
    rot1 = {"n": n, "variant": "hadamard_first", "theta": theta}
    rot2 = {**rot1, "variant": "rotation_first",
            "alpha0": rng.uniform(0.0, 2 * np.pi, size=n).tolist()}
    return {
        "rot1": _write(tmp / f"rot1_{n}.json", rot1),
        "rot2": _write(tmp / f"rot2_{n}.json", rot2),
    }


def runs_at(tmp: Path, n: int, rng: np.random.Generator) -> list[list[str]]:
    """Every subcommand at width n; each list is one argv."""
    phase = _phase_specs(tmp, n, rng)
    rot = _rot_specs(tmp, n, rng)
    circuit = str(tmp / f"circuit{n}.json")
    d = int(rng.integers(0, 1 << n))
    basis = str(int(rng.integers(0, 1 << n)))
    runs = [
        ["matrix", "--kind", "gqft", "--spec", phase["tri"], "--emit-circuit", circuit],
        ["simulate", "--spec", circuit, "--basis", basis, "--trials", "64"],
    ]
    for fmt in ("json", "csv"):
        tail = ["--format", fmt]
        runs += [["matrix", "--kind", "gqft", "--spec", p, *tail] for p in phase.values()]
        runs += [["matrix", "--kind", k, "--spec", rot[k], *tail] for k in ("rot1", "rot2")]
        runs += [["matrix", "--kind", k, "--n", str(n), *tail] for k in ("haar", "dft")]
        runs.append(["simulate", "--spec", circuit, "--basis", basis, *tail])
        for samples in ("perfect", "random", f"mixed:{n // 2}"):
            runs.append(["dhsp", "--n", str(n), "--d", str(d), "--samples", samples,
                         "--trials", "64", *tail])
        runs.append(["haar", "--n", str(n), *tail])
    runs += [["check-unitary", "--spec", p] for p in phase.values()]
    runs += [["compare", "--spec", p] for p in (phase["tri"], phase["int"], phase["real"])]
    runs += [["compare", "--spec", rot[k]] for k in ("rot1", "rot2")]
    runs.append(["haar", "--n", str(n), "--basis", basis, "--ket", basis,
                 "--i", str(n - 1)])
    for kind in ("rot1", "rot2", "dft"):
        source = ["--n", str(n)] if kind == "dft" else ["--spec", rot[kind]]
        dump = str(tmp / f"{kind}_circuit{n}.json")
        runs += [["matrix", "--kind", kind, *source, "--emit-circuit", dump],
                 ["simulate", "--spec", dump, "--basis", basis, "--trials", "64"]]
    return runs


def malformed_runs(tmp: Path) -> list[list[str]]:
    """Edge and malformed inputs; each must end in an exit code, not an exception."""
    bad_json = tmp / "bad.json"
    bad_json.write_text("not json{")
    half_n = _write(tmp / "half_n.json", {"n": 1.5, "phi": [[1.0]]})
    wide = _write(tmp / "wide.json", {"n": 512, "phi": np.zeros((512, 512)).tolist()})
    wrong = _write(tmp / "wrong.json", {"n": 2, "phi": [[2.0, 0.0], [0.0, 1.0]]})
    tri = _write(tmp / "small_tri.json", {"n": 2, "phi": [[2.0, 0.0], [1.0, 2.0]]})
    circuit = str(tmp / "c2.json")
    return [
        ["matrix", "--kind", "gqft", "--spec", str(tmp / "missing.json")],
        ["matrix", "--kind", "gqft", "--spec", str(bad_json)],
        ["matrix", "--kind", "gqft", "--spec", half_n],
        ["matrix", "--kind", "gqft", "--spec", wrong],
        ["matrix", "--kind", "bogus", "--n", "2"],
        ["matrix", "--kind", "dft", "--n", "13"],
        ["matrix", "--kind", "gqft", "--spec", tri, "--emit-circuit", circuit],
        ["check-unitary", "--spec", tri, "--format", "csv"],
        ["check-unitary", "--spec", tri, "--tol", "nan"],
        ["check-unitary", "--spec", tri, "--seed", "-1"],
        ["check-unitary", "--spec", wide],
        ["compare", "--spec", wrong],
        ["compare", "--spec", tri, "--seed", "-1"],
        ["matrix", "--kind", "dft", "--n", "2", "--seed", "-1"],
        ["simulate", "--spec", circuit, "--seed", "-1"],
        ["simulate", "--spec", circuit, "--trials", "5", "--seed", "-1"],
        ["simulate", "--spec", circuit, "--basis", "4"],
        ["dhsp", "--n", "3", "--d", "1", "--seed", "-1"],
        ["dhsp", "--n", "3", "--d", "9"],
        ["dhsp", "--n", "48", "--d", "1"],
        ["dhsp", "--n", "3", "--d", "1", "--samples", "1,2"],
        ["dhsp", "--n", "0", "--d", "0"],
        ["haar", "--n", "2", "--basis", "9"],
        ["nonsense"],
    ]


def run_one(argv: list[str], tmp: str) -> tuple[str, str, str]:
    """(exit, stdout digest, stderr digest) of one in-process run, with the
    temp dir masked in both streams."""
    written = [Path(argv[k + 1]) for k, flag in enumerate(argv)
               if flag in ("--emit-circuit", "--out")]
    out, err = io.StringIO(), io.StringIO()
    trace = ""
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = str(cli_main(argv))
        except Exception as exc:  # an escape is a fault; name it and go on
            code = f"raised:{type(exc).__name__}"
            print(f"{type(exc).__name__}: {exc}", file=err)
            trace = traceback.format_exc()
    sys.stderr.write(trace)
    data = out.getvalue().replace(tmp, "<tmp>").encode()
    data += b"".join(p.read_bytes() for p in written if p.exists())
    return code, _sha(data), _sha(err.getvalue().replace(tmp, "<tmp>").encode())


def main(argv=None) -> int:
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--max-n", type=int_at_least(1, "max-n"), default=8,
        help="largest width of the per-n runs",
    )
    ap.add_argument("--seed", type=int_at_least(0, "seed"), default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    rng = rng_from_seed(args.seed)
    lines = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        runs = [run for n in range(1, args.max_n + 1) for run in runs_at(tmp, n, rng)]
        for run in runs + malformed_runs(tmp):
            code, out, err = run_one(run, name)
            lines.append(f"{code} {out} {err} {' '.join(run).replace(name, '<tmp>')}")
            print(lines[-1])
    print("digest", _sha("\n".join(lines).encode()))
    return 1 if any(line.startswith("raised:") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
