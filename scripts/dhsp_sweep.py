#!/usr/bin/env python3
"""Sweep shift-recovery success against sample quality.

For a register of n wires, the recovery procedure is driven by n sample
integers.  Samples drawn from the unit-upper-triangular family make recovery
certain; uniform samples degrade it.  This script mixes the two — the first k
rows ideal, the rest uniform — and measures how the empirical recovery rate
and the analytic target probability decay as k drops from n to 0.
Outcomes are sampled wire by wire, with no 2^n statevector, so n runs up to
the shift cap of 47.

Usage:
    python3 scripts/dhsp_sweep.py --n 4 --trials 300 --reps 25 --out sweep.csv
"""

import csv
import sys

import numpy as np

from gqt import DhspInstance, recover_d, samples_mixed
from gqt.cli import Parser, int_at_least
from gqt.config import DEFAULT_SEED, rng_from_seed
from gqt.errors import GqtError, InputError


def sweep_row(args, k: int, rng: np.random.Generator) -> dict:
    """Average recovery statistics over ``reps`` fresh instances at split k."""
    rates = np.empty(args.reps)
    probs = np.empty(args.reps)
    hits = 0
    for r in range(args.reps):
        d = int(rng.integers(0, 1 << args.n))
        inst = DhspInstance(args.n, d, samples_mixed(args.n, k, rng))
        res = recover_d(inst, args.trials, int(rng.integers(0, 2**31)))
        rates[r] = res.empirical_rate
        probs[r] = res.analytic_p
        hits += res.d_hat == d
    return {
        "k": k,
        "mean_rate": float(rates.mean()),
        "mean_target_p": float(probs.mean()),
        "majority_hit_fraction": hits / args.reps,
    }


def run_sweep(args) -> list[dict]:
    rng = rng_from_seed(args.seed)
    return [sweep_row(args, k, rng) for k in range(args.n, -1, -1)]


def main(argv=None) -> int:
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4, help="register width")
    ap.add_argument(
        "--trials", type=int_at_least(1, "trials"), default=300,
        help="shots per instance",
    )
    ap.add_argument(
        "--reps", type=int_at_least(1, "reps"), default=25,
        help="instances per split k",
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=None, help="also write the table as CSV")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except GqtError as exc:  # report it as the CLI does, with its exit code
        print(f"dhsp_sweep: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def run(args) -> int:
    rows = run_sweep(args)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc

    print(f"n={args.n}  trials={args.trials}  reps={args.reps}  seed={args.seed}")
    print(f"{'k':>3} {'mean rate':>10} {'mean p(target)':>15} {'majority hit':>13}")
    for row in rows:
        print(
            f"{row['k']:>3} {row['mean_rate']:>10.4f} "
            f"{row['mean_target_p']:>15.4f} {row['majority_hit_fraction']:>13.4f}"
        )
    if args.out:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
