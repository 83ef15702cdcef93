#!/usr/bin/env python3
"""Benchmark gqt on one workload and print every metric by name and unit.

Usage (from the root of a checkout):
    python3 benchmark/run.py --workload dense_cli --seed 20261017 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time is the median over
several fresh interpreters, the rest come from one closed-loop worker.
``--trace 1`` measures the per-layer metrics from a separate traced worker.
``--smoke`` runs the same code at tiny sizes.  The last stdout line is the
JSON result; a fuller record, with the environment, goes to
``.bench_work/results/``.  See benchmark/README.md for the metric list.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"

# The workload seed used unless --seed is given.  Seed 4099 is kept out of
# tuning, to confirm claims made on other seeds (see README.md).
DEFAULT_SEED = 20261017

# Fresh interpreters whose time-to-ready gives setup_s (the timed worker's own
# set-up is one more sample); one unmeasured start comes first to warm the
# file cache and write byte code.
SETUP_PROBES = 6
# Every worker is stopped once the whole run has taken this long.
DEADLINE_S = 170.0


def _worker_cmd(args, *extra: str) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(WORKDIR),
    ]
    if args.smoke:
        cmd.append("--smoke")
    return cmd + list(extra)


def start_worker(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run a worker; returns (seconds from spawn to READY, remaining stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - t0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - t0)
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return ready, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "gqt" / "__init__.py").is_file():
        print(f"error: no gqt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    deadline = perf_counter() + DEADLINE_S
    try:
        setup = []
        if not args.trace:
            probes = 1 if args.smoke else SETUP_PROBES
            start_worker(_worker_cmd(args, "--setup-only"), deadline)
            for _ in range(probes):
                setup.append(start_worker(_worker_cmd(args, "--setup-only"), deadline)[0])
        cmd = _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
        ready, out = start_worker(cmd, deadline)
        setup.append(ready)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = result["metrics"]
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        raw["setup_s"] = statistics.median(setup)
    metrics = {m["name"]: {"value": float(raw.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in specs}
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "attempted": attempted,
        "failed": failed, "metrics": metrics, "all_metrics": raw,
        "setup_samples_s": setup, "details": result["details"],
        "environment": result["environment"],
    }
    results_dir = WORKDIR / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  attempted {attempted}  failed {failed}")
    for m in specs:
        print(f"  {m['name']:<48} {metrics[m['name']]['value']:>16.6g} {m['unit']:<8}"
              f" {m['better']} is better")
    if not args.trace:
        d = result["details"]
        print(f"  {'task_fail_frac':<48} {raw['task_fail_frac']:>16.6g} {'ratio':<8} lower is better")
        print(f"  task_tail_ms is p{d['tail_percentile']:g} with {d['tail_samples_beyond']}"
              f" of {d['completed']} completed tasks beyond it")
    else:
        d = result["details"]
        print(f"  tracing overhead {raw['bench.trace_overhead_frac']:.3%}, unattributed"
              f" {raw['bench.unattributed_frac']:.3%}, {d['spans']} spans in {d['trace_file']}")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
