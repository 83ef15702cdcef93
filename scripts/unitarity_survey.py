#!/usr/bin/env python3
"""Survey the signed-combination unitarity criterion against direct numerics.

Three passes:

1. every 2x2 phase matrix with integer entries in [0, grid_max];
2. random real matrices at a chosen width;
3. three one-parameter families of 2x2 matrices, tabulated over a parameter
   grid (two are valid for every real parameter; the third only at even
   integers).

Each pass compares the structural verdict (check_general) with the numeric
one (Gram-matrix defect of the induced transform) and reports agreement.

Usage:
    python3 scripts/unitarity_survey.py --grid-max 4 --samples 300 --n 3
"""

import csv
import itertools
import sys

import numpy as np

from gqt import PhaseMatrix, check_general, numeric_unitarity_defect
from gqt.cli import Parser, int_at_least
from gqt.config import DEFAULT_SEED, rng_from_seed
from gqt.errors import GqtError
from gqt.phasemat import CRITERION_TOL


def verdicts(pm: PhaseMatrix) -> tuple[bool, bool, float]:
    structural = check_general(pm).valid
    defect = numeric_unitarity_defect(pm)
    return structural, bool(defect < CRITERION_TOL), float(defect)


def grid_pass(grid_max: int) -> dict:
    total = valid = disagree = 0
    for e in itertools.product(range(grid_max + 1), repeat=4):
        pm = PhaseMatrix(2, [[e[0], e[1]], [e[2], e[3]]])
        structural, numeric, _ = verdicts(pm)
        total += 1
        valid += structural
        disagree += structural != numeric
    return {"total": total, "valid": valid, "disagreements": disagree}


def random_pass(n: int, samples: int, rng: np.random.Generator) -> dict:
    valid = disagree = 0
    for k in range(samples):
        phi = rng.uniform(0.0, 4.0**n, size=(n, n))
        if k % 3 == 0:
            phi = np.round(phi)  # integer-valued draws hit the valid set more
        structural, numeric, _ = verdicts(PhaseMatrix(n, phi))
        valid += structural
        disagree += structural != numeric
    return {"total": samples, "valid": valid, "disagreements": disagree}


FAMILIES = {
    "lower-coupled [[2,0],[a,2]]": lambda a: [[2.0, 0.0], [a, 2.0]],
    "upper-coupled [[2,a],[0,2]]": lambda a: [[2.0, a], [0.0, 2.0]],
    "tied-diagonal [[2,a],[2,2-a]]": lambda a: [[2.0, a], [2.0, 2.0 - a]],
}


def family_table(params) -> list[dict]:
    rows = []
    for name, build in FAMILIES.items():
        for a in params:
            structural, numeric, defect = verdicts(PhaseMatrix(2, build(a)))
            rows.append(
                {
                    "family": name,
                    "a": a,
                    "structural_valid": structural,
                    "numeric_valid": numeric,
                    "defect": defect,
                }
            )
    return rows


def main(argv=None) -> int:
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--grid-max", type=int_at_least(0, "grid-max"), default=4,
        help="grid upper bound",
    )
    ap.add_argument(
        "--samples", type=int_at_least(0, "samples"), default=300,
        help="random draws",
    )
    ap.add_argument("--n", type=int, default=3, help="width of the random pass")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=None, help="write the family table as CSV")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except GqtError as exc:  # report it as the CLI does, with its exit code
        print(f"unitarity_survey: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def run(args) -> int:
    g = grid_pass(args.grid_max)
    print(
        f"grid pass: {g['valid']}/{g['total']} valid, "
        f"{g['disagreements']} disagreements"
    )

    r = random_pass(args.n, args.samples, rng_from_seed(args.seed))
    print(
        f"random pass (n={args.n}): {r['valid']}/{r['total']} valid, "
        f"{r['disagreements']} disagreements"
    )

    params = (-2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
    rows = family_table(params)
    print(f"{'family':<30} {'a':>5} {'structural':>11} {'numeric':>8} {'defect':>10}")
    for row in rows:
        print(
            f"{row['family']:<30} {row['a']:>5.1f} "
            f"{str(row['structural_valid']):>11} {str(row['numeric_valid']):>8} "
            f"{row['defect']:>10.2e}"
        )

    if g["disagreements"] or r["disagreements"]:
        print("verdict mismatch detected", file=sys.stderr)
        return 1
    if any(row["structural_valid"] != row["numeric_valid"] for row in rows):
        print("family verdict mismatch detected", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
