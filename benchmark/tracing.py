"""Layer spans recorded from outside the library.

``Tracer.install`` wraps every public function of the traced ``gqt`` modules,
plus ``DenseUnitary`` and ``GqftSpec`` construction, without editing the
library.  ``from .x import f`` copies a binding, so each wrapper is rebound
under every name in every ``gqt`` module that holds the original function.

A span records its name, start, end, parent span and task index.  Spans stay
in memory and are written out once, after the run.  Self time is a span's
duration minus the durations of its direct children; the self times of all
spans therefore add up to the time covered by top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

TRACED_MODULES = ("qstate", "phasemat", "gqft", "rotft", "haar", "dhsp", "cli")
# Constructors whose validation is a layer of its own: (module, class).
TRACED_CONSTRUCTORS = (("qstate", "DenseUnitary"), ("gqft", "GqftSpec"))


def _out_bytes(args) -> int:
    argv = list(args.get("argv") or ())
    if "--out" not in argv:
        return 0
    path = Path(argv[argv.index("--out") + 1])
    return path.stat().st_size if path.exists() else 0


# Counters taken at a span's boundary: name -> f(bound arguments, result).
_COUNTERS = {
    "qstate.apply_circuit": lambda a, r: {"n": a["c"].n, "gates": a["c"].gate_count},
    "qstate.circuit_to_dense": lambda a, r: {"n": a["c"].n, "gates": a["c"].gate_count},
    "qstate.measure_all": lambda a, r: {"shots": a["shots"]},
    "phasemat.check_general": lambda a, r: {"n": a["pm"].n, "valid": r.valid},
    "dhsp.recover_d": lambda a, r: {
        "trials": a["trials"],
        "hits": round(r.empirical_rate * a["trials"]),
    },
    "cli.main": lambda a, r: {"report_bytes": _out_bytes(a)},
}


class Tracer:
    """Records spans while ``on``; a wrapper called while off costs one test."""

    def __init__(self):
        self.on = False
        self.task = -1
        # Each span: [name, parent index, task, start, end, child seconds, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}  # original function -> wrapper
        for short in TRACED_MODULES:
            mod = sys.modules[f"gqt.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        gqt_modules = [
            m for name, m in list(sys.modules.items())
            if name == "gqt" or name.startswith("gqt.")
        ]
        for mod in gqt_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name in TRACED_CONSTRUCTORS:
            cls = getattr(sys.modules[f"gqt.{short}"], cls_name)
            post_init = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", post_init))
            cls.__post_init__ = self._wrap(f"{short}.{cls_name}", post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, self.task, 0.0, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[4] - span[3]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = counter(bound.arguments, result)
            return result

        return wrapper

    # -- task boundaries ----------------------------------------------------

    def begin_task(self, index: int) -> None:
        self.task = index
        self.on = True

    def end_task(self) -> None:
        self.on = False
        self._stack.clear()

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> float:
        return sum(s[4] - s[3] - s[5] for s in self.spans)

    def by_name(self) -> dict[str, dict]:
        """Per span name: number of calls and total self seconds."""
        out: dict[str, dict] = {}
        for name, _, _, start, end, child, counters in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, task, start, end, child, counters) in enumerate(
                self.spans
            ):
                rec = {
                    "id": i,
                    "name": name,
                    "parent": parent,
                    "task": task,
                    "start": start,
                    "end": end,
                    "self_s": end - start - child,
                }
                if counters:
                    rec["counters"] = counters
                fh.write(json.dumps(rec) + "\n")


def _rate(num: float, seconds: float) -> float:
    return num / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Every per-layer metric the benchmark defines, from the recorded spans.

    Totals (calls, self seconds, gates, bytes) are per cycle of task kinds,
    averaged over the ``cycles`` traced; rates and shares are not.  A layer
    that did not run on the workload reads 0.
    """
    out: dict[str, float] = {}
    for name, agg in tracer.by_name().items():
        out[f"{name}.calls"] = agg["calls"] / cycles
        out[f"{name}.self_s"] = agg["self_s"] / cycles

    amp = {}  # n -> [amplitude updates, self seconds]
    gates = bytes_computed = 0
    dense_updates = dense_s = 0.0
    shots = shots_s = 0.0
    zvecs = sweep_s = 0.0
    valid_s = failing_s = 0.0
    hits = trials = 0
    report_bytes = 0
    for name, _, _, start, end, child, c in tracer.spans:
        self_s = end - start - child
        if c is None:
            continue
        if name == "qstate.apply_circuit":
            n, g = c["n"], c["gates"]
            slot = amp.setdefault(n, [0.0, 0.0])
            slot[0] += g * (1 << n)
            slot[1] += self_s
            gates += g
            bytes_computed += g * (1 << n) * 32
        elif name == "qstate.circuit_to_dense":
            dense_updates += c["gates"] * (1 << (2 * c["n"]))
            dense_s += self_s
        elif name == "qstate.measure_all":
            shots += c["shots"]
            shots_s += self_s
        elif name == "phasemat.check_general":
            zvecs += 3 ** c["n"]
            sweep_s += end - start  # the whole sweep, its distance kernel included
            if c["valid"]:
                valid_s += self_s
            else:
                failing_s += self_s
        elif name == "dhsp.recover_d":
            hits += c["hits"]
            trials += c["trials"]
        elif name == "cli.main":
            report_bytes += c["report_bytes"]
    for n, (updates, secs) in amp.items():
        out[f"qstate.apply_circuit.n{n}.amp_updates_per_s"] = _rate(updates, secs)
    out["qstate.apply_circuit.gates"] = gates / cycles
    out["qstate.apply_circuit.bytes_computed"] = bytes_computed / cycles
    out["qstate.circuit_to_dense.amp_updates_per_s"] = _rate(dense_updates, dense_s)
    out["qstate.measure_all.shots_per_s"] = _rate(shots, shots_s)
    out["phasemat.check_general.zvecs_per_s"] = _rate(zvecs, sweep_s)
    out["phasemat.check_general.valid.self_s"] = valid_s / cycles
    out["phasemat.check_general.failing.self_s"] = failing_s / cycles
    out["dhsp.recover_d.hit_rate"] = hits / trials if trials else 0.0
    out["cli.report_bytes"] = report_bytes / cycles
    return out
