"""One workload in one fresh interpreter.

Imports ``gqt`` from the checkout's ``src``, builds the seeded inputs, prints
``READY`` (the end of set-up), and unless ``--setup-only`` runs the closed
loop.  The last stdout line is a JSON object for ``run.py``.

With ``--trace 0`` the loop runs untraced for ``--seconds`` of task time.
With ``--trace 1`` each pass over the task pool runs untraced and then again
with the layer wrappers installed, until the untraced passes add up to half
of that; the two timings give the tracing overhead.  Per-layer totals are
divided by the number of cycles traced, so they do not grow with the budget.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gqt  # noqa: E402

if not Path(gqt.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gqt imported from {gqt.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Failures shown in full on stderr; the rest are only counted.
SHOWN_FAILURES = 5


class Loop:
    """Closed loop over a task pool: one task at a time, oracle after each."""

    def __init__(self, tasks: list, tracer: Tracer | None = None):
        self.tasks = tasks
        self.tracer = tracer
        self.ok_seconds: list[float] = []
        self.ok_kinds: list[str] = []
        # Every attempted task, in order: (seconds, whether it passed).
        self.record: list[tuple[float, bool]] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    def step(self, index: int) -> None:
        task = self.tasks[index % len(self.tasks)]
        if self.tracer is not None:
            self.tracer.begin_task(index)
        error = None
        t0 = perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a task that raises is a failed task
            error = exc
        elapsed = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.end_task()
        if error is None:
            try:
                task.check(out)
            except Exception as exc:  # Mismatch, or an oracle that cannot read the output
                error = exc
        self.attempted += 1
        self.busy += elapsed
        self.record.append((elapsed, error is None))
        if error is None:
            self.ok_seconds.append(elapsed)
            self.ok_kinds.append(task.kind)
            return
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"task {index} ({task.kind}) failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)

    def run_for(self, seconds: float, cycle: int) -> None:
        """Run tasks 0, 1, ... until ``seconds`` of task time have passed, then
        to the end of the cycle, so that every run measures the same mix.
        At least one cycle runs."""
        while self.attempted == 0 or self.busy < seconds or self.attempted % cycle:
            self.step(self.attempted)


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def cycle_rates(loop: Loop, cycle: int) -> list[float]:
    """Verified tasks per second of task time, one figure per whole cycle."""
    rates = []
    for first in range(0, len(loop.record) - cycle + 1, cycle):
        part = loop.record[first:first + cycle]
        rates.append(sum(ok for _, ok in part) / sum(secs for secs, _ in part))
    return rates


def end_to_end(loop: Loop, tail_q: float, cycle: int) -> tuple[dict, dict]:
    if loop.ok_seconds:
        tail, beyond = percentile(loop.ok_seconds, tail_q)
        p50 = statistics.median(loop.ok_seconds)
    else:
        tail, beyond, p50 = 0.0, 0, 0.0
    metrics = {
        # The median over cycles, so that a slow stretch of the shared machine
        # within the run moves it no more than it moves the percentiles.
        "tasks_per_s": statistics.median(cycle_rates(loop, cycle)),
        "task_p50_ms": p50 * 1e3,
        "task_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "task_fail_frac": loop.failed / loop.attempted,
    }
    by_kind: dict[str, list[float]] = {}
    for kind, secs in zip(loop.ok_kinds, loop.ok_seconds):
        by_kind.setdefault(kind, []).append(secs)
    details = {
        "tail_percentile": tail_q,
        "tail_samples_beyond": beyond,
        "completed": len(loop.ok_seconds),
        "cycles": loop.attempted // cycle,
        "timed_seconds": loop.busy,
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
    }
    return metrics, details


def traced(wl, seconds: float, trace_path: Path) -> tuple[dict, dict, Loop, Loop]:
    """Each pass over the pool runs once untraced, then again with the
    wrappers installed; at least one pass runs.

    Alternating keeps the two timings under the same machine load, so their
    ratio measures the tracing overhead.  Whole passes make every per-cycle
    figure a property of the seed alone, not of how many passes fit."""
    tracer = Tracer()
    plain, replay = Loop(wl.tasks), Loop(wl.tasks, tracer)
    pool = len(wl.tasks)
    while plain.attempted == 0 or plain.busy < seconds / 2:
        first = plain.attempted
        for index in range(first, first + pool):
            plain.step(index)
        tracer.install()
        try:
            for index in range(first, first + pool):
                replay.step(index)
        finally:
            tracer.uninstall()
    tracer.write(trace_path)
    metrics = layer_metrics(tracer, replay.attempted // wl.cycle)
    metrics["bench.trace_overhead_frac"] = replay.busy / plain.busy - 1.0
    metrics["bench.unattributed_frac"] = 1.0 - tracer.self_seconds() / replay.busy
    details = {"cycles_traced": replay.attempted // wl.cycle, "spans": len(tracer.spans),
               "untraced_seconds": plain.busy, "traced_seconds": replay.busy}
    return metrics, details, plain, replay


def _run_text(cmd: list[str]) -> str | None:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _git_commit() -> str | None:
    """HEAD, when the checkout itself (not a directory above it) is a repository."""
    out = _run_text(["git", "rev-parse", "--show-toplevel", "HEAD"])
    if out is None:
        return None
    top, head = out.splitlines()
    return head if Path(top).resolve() == ROOT else None


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(wl) -> dict:
    """What the figures were measured on, and the computed working sets."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cache = {k: _run_text(["getconf", k]) for k in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")}
    l3 = int(cache["LEVEL3_CACHE_SIZE"]) if cache["LEVEL3_CACHE_SIZE"] else None
    working = {f"n{n}": {"state_bytes": 16 << n, "dense_bytes": 16 << (2 * n)}
               for n in sorted(set(wl.sizes.values()))}
    largest = workloads.largest_array_bytes(wl)
    env = {
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "l2_bytes_per_core": int(cache["LEVEL2_CACHE_SIZE"]) if cache["LEVEL2_CACHE_SIZE"] else None,
        "l3_bytes_shared": l3,
        "working_set": working,
        "largest_array_bytes": largest,
    }
    if l3 and largest < 4 * l3:
        env["bandwidth_note"] = (
            f"largest working set {largest} B is below 4x LLC ({4 * l3} B): byte "
            "figures are computed from array sizes, and no bandwidth claim is made"
        )
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        wl = workloads.build(args.workload, args.seed, scratch, args.smoke)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            trace_path = args.workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, details, plain, replay = traced(wl, args.seconds, trace_path)
            attempted = plain.attempted + replay.attempted
            failed = plain.failed + replay.failed
            details["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            loop = Loop(wl.tasks)
            loop.run_for(args.seconds, wl.cycle)
            metrics, details = end_to_end(loop, wl.tail_percentile, wl.cycle)
            attempted, failed = loop.attempted, loop.failed
        details["sizes"] = wl.sizes
        print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics,
                          "details": details, "environment": environment(wl)}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
