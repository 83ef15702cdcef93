"""Command-line surface: build matrices, validate, simulate, compare, run
shift-recovery experiments, and inspect the averaging transform.

Commands
    matrix         dump a dense transform (gqft | rot1 | rot2 | haar | dft)
    check-unitary  run both validity checks plus a numeric verdict
    simulate       apply a circuit dump to a basis state, optionally sample
    compare        circuit vs dense formula: max deviation and gate count
    dhsp           run the shift-recovery experiment end to end
    haar           closed-form actions, inverse circuits, or the full matrix

Reports are JSON by default, keys sorted, floats in shortest round-trip form,
so identical flags and seed give byte-identical output.  CSV (``--format
csv``) is a lossy 12-digit view of the report, built only on request, for
matrix, the full-matrix view of haar, simulate, and dhsp.
Exit codes: 0 success/valid, 1 bad input, 2 validity failure, 3 cap exceeded.
The environment variable GQT_DENSE_CAP overrides the dense-matrix cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import dhsp as dhsp_mod
from .config import DEFAULT_SEED, STATE_TOL, cap, check_cap, rng_from_seed
from .errors import (
    CapExceededError,
    GqtError,
    InputError,
    UnsupportedRegimeError,
    ValidityError,
)
from .gqft import (
    GqftSpec,
    dft_circuit,
    dft_dense,
    gqft_circuit,
    gqft_dense,
    toeplitz_phi,
)
from .haar import (
    haar_apply_basis,
    haar_inverse_apply,
    haar_inverse_circuit,
    haar_inverse_swap_count,
    haar_matrix,
    haar_matrix_identity_check,
)
from .phasemat import (
    CRITERION_TOL,
    PhaseMatrix,
    _json_int,
    check_general,
    check_triangular,
    numeric_unitarity_defect,
)
from .qstate import (
    Circuit,
    Controlled,
    QState,
    Swap,
    apply_circuit,
    bit_reverse,
    circuit_to_dense,
    measure_all,
)
from .rotft import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    RotSpec,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
)

_LITTLE_ENDIAN_NOTE = (
    "little-endian: basis index k = sum_i bit_i * 2^i; entry [y][x] = <y|T|x>"
)
# Dense builder and circuit builder of each rotation-cascade variant.
_ROT_BUILDERS = {
    HADAMARD_FIRST: (rot1_dense, rot1_circuit),
    ROTATION_FIRST: (rot2_dense, rot2_circuit),
}
_HAAR_NOTE = (
    "columns in big-endian slot order (slot 0 = most significant bit); "
    "row 0 uniform, row 2^i + p for level i with prefix p"
)


# ---------------------------------------------------------------------------
# serialization


def _pairs(a) -> list:
    """Nested lists shaped like ``a``, with each complex entry as an [re, im] pair."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def matrix_to_lists(m: np.ndarray) -> list:
    """Row-major nested lists with each entry as an [re, im] pair."""
    return _pairs(m)


def matrix_from_lists(rows) -> np.ndarray:
    """Inverse of :func:`matrix_to_lists` (bit-exact for JSON round trips)."""
    try:
        return np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix entries: {exc}") from exc


def hist_to_pairs(hist: dict[int, int]) -> list:
    return [[int(k), int(v)] for k, v in sorted(hist.items())]


def gate_to_json_dict(g) -> dict:
    if isinstance(g, Swap):
        return {"kind": "swap", "a": g.a, "b": g.b}
    u = _pairs(g.u.ravel())
    if not g.controls:  # a gate with no controls is written as "single"
        return {"kind": "single", "target": g.target, "u": u}
    return {
        "kind": "controlled",
        "target": g.target,
        "controls": [[int(q), int(b)] for q, b in g.controls],
        "u": u,
    }


def circuit_to_json_dict(c: Circuit) -> dict:
    return {"n": c.n, "gates": [gate_to_json_dict(g) for g in c.gates]}


def circuit_from_json_dict(data: dict) -> Circuit:
    try:
        n = _json_int(data["n"], "n")
        gates = []
        for gd in data["gates"]:
            kind = gd["kind"]
            if kind == "swap":
                gates.append(Swap(_json_int(gd["a"], "a"), _json_int(gd["b"], "b")))
                continue
            flat = gd["u"]
            u = np.array(
                [complex(re, im) for re, im in flat], dtype=np.complex128
            ).reshape(2, 2)
            if kind == "single":
                controls = ()
            elif kind == "controlled":
                controls = tuple(
                    (_json_int(q, "control qubit"), _json_int(b, "control bit"))
                    for q, b in gd["controls"]
                )
            else:
                raise InputError(f"unknown gate kind {kind!r}")
            target = _json_int(gd["target"], "target")
            if kind == "controlled" and not controls:
                raise InputError("controlled gate needs at least one control")
            gates.append(Controlled(controls, target, u))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed circuit JSON: {exc}") from exc
    return Circuit(n, tuple(gates))


def parse_matrix_report(text: str) -> np.ndarray:
    """Entries of a ``matrix`` (or ``haar``) JSON report, bit-exact."""
    data = json.loads(text)
    return matrix_from_lists(data["entries"])


# ---------------------------------------------------------------------------
# spec-file loading


def _load_json(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"spec file {path} must hold a JSON object")
    return data


def load_phase_spec(path: str) -> PhaseMatrix:
    """Phase spec file: {"n": int, "phi": [[...], ...]}."""
    return PhaseMatrix.from_json_dict(_load_json(path))


def rot_spec_from_json_dict(
    data: dict, path: str, variant: str | None = None
) -> RotSpec:
    """Rotation spec file, already parsed from ``path`` (named in errors):

    {"n": int, "variant": "hadamard_first" | "rotation_first",
     "theta": [{"i": int, "j": int, "t0": real, "t1": real}, ...],
     "alpha0": [...] (second variant only)}
    """
    try:
        n = _json_int(data["n"], "n")
        file_variant = data.get("variant")
        if variant is not None and file_variant is not None and file_variant != variant:
            raise InputError(
                f"spec file variant {file_variant!r} does not match kind {variant!r}"
            )
        use_variant = file_variant or variant
        if use_variant is None:
            raise InputError("rotation spec needs a variant")
        thetas = {}
        for rec in data.get("theta", []):
            cell = (_json_int(rec["i"], "i"), _json_int(rec["j"], "j"))
            thetas[cell] = (float(rec["t0"]), float(rec["t1"]))
        alpha0 = data.get("alpha0")
        if alpha0 is not None:
            alpha0 = tuple(float(a) for a in alpha0)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed rotation spec {path}: {exc}") from exc
    return RotSpec(n, use_variant, thetas, alpha0)


# ---------------------------------------------------------------------------
# commands


def _require(args, flag: str):
    value = getattr(args, flag.strip("-").replace("-", "_"))
    if value is None:
        raise InputError(f"{args.command} requires {flag}")
    return value


def _cmd_matrix(args) -> tuple[dict, int]:
    kind = args.kind
    takes, stray = ("--n", "--spec") if kind in ("haar", "dft") else ("--spec", "--n")
    source = _require(args, takes)
    if getattr(args, stray.strip("-")) is not None:
        raise InputError(f"matrix --kind {kind} does not take {stray}")
    emit = args.emit_circuit
    circuit = None
    note = _LITTLE_ENDIAN_NOTE
    if kind == "haar":
        if emit:
            raise InputError(
                "kind haar has no forward circuit; see the haar command "
                "for inverse circuits"
            )
        n = source
        entries = haar_matrix(n).p
        note = _HAAR_NOTE
    elif kind == "dft":
        n = source
        entries = dft_dense(n).entries
        if emit:
            circuit = dft_circuit(n)
    else:
        if kind == "gqft":
            spec = GqftSpec.from_phase_matrix(load_phase_spec(source))
            n, dense_fn, circuit_fn = spec.pm.n, gqft_dense, gqft_circuit
        else:
            variant = HADAMARD_FIRST if kind == "rot1" else ROTATION_FIRST
            spec = rot_spec_from_json_dict(_load_json(source), source, variant)
            n, (dense_fn, circuit_fn) = spec.n, _ROT_BUILDERS[variant]
        if emit:
            # A spec over the cap fails before synthesis, and one refused
            # synthesis (general regime) before the dense build.
            check_cap("dense", n)
            circuit = circuit_fn(spec)
        entries = dense_fn(spec).entries

    report = {
        "command": "matrix",
        "kind": kind,
        "n": n,
        "convention": note,
        "entries": matrix_to_lists(entries),
    }
    if circuit is not None:
        Path(emit).write_text(
            json.dumps(circuit_to_json_dict(circuit), sort_keys=True, indent=2) + "\n"
        )
        report["circuit_path"] = emit
        report["gate_count"] = circuit.gate_count
    return report, 0


def _cmd_check(args) -> tuple[dict, int]:
    pm = load_phase_spec(args.spec)
    tol = args.tol if args.tol is not None else CRITERION_TOL
    tri = check_triangular(pm, tol)
    gen = check_general(pm, tol)
    defect = numeric = None
    with suppress(CapExceededError):  # no numeric verdict above the dense cap
        defect = numeric_unitarity_defect(pm)
        numeric = bool(defect < max(tol, STATE_TOL))
    report = {
        "command": "check-unitary",
        "n": pm.n,
        "triangular": tri.to_json_dict(),
        "general": gen.to_json_dict(),
        "numeric_defect": defect,
        "numeric_unitary": numeric,
        "valid": gen.valid,
    }
    return report, 0 if gen.valid else 2


def _cmd_simulate(args) -> tuple[dict, int]:
    circ = circuit_from_json_dict(_load_json(args.spec))
    check_cap("state", circ.n)
    basis = args.basis
    out = apply_circuit(QState.basis(circ.n, basis), circ)
    report = {
        "command": "simulate",
        "n": circ.n,
        "basis": basis,
        "gate_count": circ.gate_count,
        "amps": _pairs(out.amps),
    }
    if args.trials:
        hist = measure_all(out, args.seed, args.trials)
        report["trials"] = args.trials
        report["histogram"] = hist_to_pairs(hist)
    return report, 0


def _cmd_compare(args) -> tuple[dict, int]:
    data = _load_json(args.spec)
    tol = args.tol if args.tol is not None else STATE_TOL
    report: dict = {"command": "compare"}
    if "variant" in data or "theta" in data:
        spec = rot_spec_from_json_dict(data, args.spec)
        dense_fn, circuit_fn = _ROT_BUILDERS[spec.variant]
        n = spec.n
        ceiling = n + n * (n - 1)
        report["spec_kind"] = f"rot:{spec.variant}"
        toeplitz = False
    else:
        pm = PhaseMatrix.from_json_dict(data)
        try:
            spec = GqftSpec(pm)
        except ValidityError:
            raise UnsupportedRegimeError(
                "comparison needs a lower-triangular phase matrix "
                "(circuits exist only in that regime) or a rotation spec"
            ) from None
        dense_fn, circuit_fn = gqft_dense, gqft_circuit
        n = pm.n
        ceiling = n + n * (n - 1) // 2
        report["spec_kind"] = "phase"
        toeplitz = np.array_equal(pm.phi, toeplitz_phi(n).phi)
    dense = dense_fn(spec).entries
    circ = circuit_fn(spec)
    built = circuit_to_dense(circ).entries
    diff = float(np.max(np.abs(built - dense)))
    del dense  # free the formula matrix before the standard transform is built
    if toeplitz:
        report["note"] = (
            "rows are the bit-reversal of the standard transform's; "
            "appending swaps (i, n-1-i) reproduces it exactly"
        )
        # The swaps gather the circuit's rows in bit-reversed order: row y
        # takes row bit_reverse(y, n), exactly as the kernel applies them.
        dft = dft_dense(n).entries
        rows = [bit_reverse(y, n) for y in range(1 << n)]
        report["dft_swap_max_abs_diff"] = float(np.max(np.abs(built[rows] - dft)))
    passed = diff < tol
    report.update(
        {
            "n": n,
            "max_abs_diff": diff,
            "gate_count": circ.gate_count,
            "gate_ceiling": ceiling,
            "within_ceiling": circ.gate_count <= ceiling,
            "pass": passed,
        }
    )
    return report, 0 if passed else 2


def _parse_samples(raw: str, n: int, seed: int) -> tuple[tuple[int, ...], str]:
    raw = raw.strip()
    if raw == "perfect":
        return dhsp_mod.search_perfect_samples(n), "perfect"
    if raw == "random":
        return dhsp_mod.samples_random(n, rng_from_seed(seed)), "random"
    if raw.startswith("mixed:"):
        try:
            k = int(raw.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad mixed split in {raw!r}") from exc
        return dhsp_mod.samples_mixed(n, k, rng_from_seed(seed)), raw
    try:
        explicit = tuple(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise InputError(
            f"samples must be 'perfect', 'random', 'mixed:k', or a comma list; "
            f"got {raw!r}"
        ) from exc
    return explicit, "explicit"


def _cmd_dhsp(args) -> tuple[dict, int]:
    n, d = args.n, args.d
    samples, mode = _parse_samples(args.samples, n, args.seed)
    inst = dhsp_mod.DhspInstance(n, d, samples)
    rec = dhsp_mod.recover_d(inst, args.trials, args.seed)
    report = {
        "command": "dhsp",
        "n": n,
        "d": d,
        "samples": list(inst.s),
        "sample_mode": mode,
        "trials": args.trials,
        "d_hat": rec.d_hat,
        "recovered": rec.d_hat == d,
        "empirical_rate": rec.empirical_rate,
        "analytic_p": rec.analytic_p,
        "lambda": list(rec.analysis.lam),
        "f": rec.analysis.f,
        "phi": rec.analysis.phi.to_json_dict()["phi"],
        "histogram": hist_to_pairs(rec.histogram),
    }
    return report, 0


def _cmd_haar(args) -> tuple[dict, int]:
    n = args.n
    report: dict = {"command": "haar", "n": n}
    if args.basis is not None:
        if not 0 <= args.basis < (1 << n):
            raise InputError(f"basis index {args.basis} out of range for n={n}")
        x = tuple((args.basis >> (n - 1 - j)) & 1 for j in range(n))
        state = haar_apply_basis(n, x)
        report["basis"] = args.basis
        report["slot_bits"] = list(x)
        report["amps"] = _pairs(state.amps)
        # The forward action is closed-form; only this check needs the dense matrix.
        report["identity_check"] = None
        with suppress(CapExceededError):
            report["identity_check"] = haar_matrix_identity_check(n, x)
    if args.ket is not None:
        state = haar_inverse_apply(n, args.ket)
        report["ket"] = args.ket
        report["inverse_amps"] = _pairs(state.amps)
    if args.i is not None:
        circ = haar_inverse_circuit(n, args.i)
        report["i"] = args.i
        report["swap_count"] = haar_inverse_swap_count(n, args.i)
        report["inverse_circuit"] = circuit_to_json_dict(circ)
    if args.basis is None and args.ket is None and args.i is None:
        report["convention"] = _HAAR_NOTE
        report["entries"] = matrix_to_lists(haar_matrix(n).p)
    return report, 0


_COMMANDS = {
    "matrix": _cmd_matrix,
    "check-unitary": _cmd_check,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "dhsp": _cmd_dhsp,
    "haar": _cmd_haar,
}


# ---------------------------------------------------------------------------
# parser / entry point


class Parser(argparse.ArgumentParser):
    """argparse, but flag errors exit 1 (code 2 is reserved for validity).

    ``gqt`` and the experiment scripts share it, so their exit codes agree.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def int_at_least(low: int, name: str):
    """argparse type for an integer flag ``name`` that must be at least ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"need {name} >= {low}, got {value}")
        return value

    return parse


_wire_count = int_at_least(1, "n")


def _tolerance(raw: str) -> float:
    """argparse type for ``--tol``: a finite float, at least 0."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite tol >= 0, got {raw}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=_tolerance, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="gqt",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="dump a dense transform")
    p.add_argument("--kind", choices=("gqft", "rot1", "rot2", "haar", "dft"), required=True)
    p.add_argument("--spec", default=None, help="JSON spec file (gqft/rot kinds)")
    p.add_argument("--n", type=_wire_count, default=None, help="size (haar/dft kinds)")
    p.add_argument("--emit-circuit", default=None, help="also write the circuit JSON here")
    _add_common(p)

    p = sub.add_parser("check-unitary", help="validity checks for a phase matrix")
    p.add_argument("--spec", required=True)
    _add_common(p)

    p = sub.add_parser("simulate", help="apply a circuit dump to a basis state")
    p.add_argument("--spec", required=True, help="circuit JSON file")
    p.add_argument("--basis", type=int, default=0)
    p.add_argument(
        "--trials", type=int_at_least(0, "trials"), default=0,
        help="measurement shots (0 = none)",
    )
    _add_common(p)

    p = sub.add_parser("compare", help="circuit vs dense formula")
    p.add_argument("--spec", required=True)
    _add_common(p)

    p = sub.add_parser("dhsp", help="shift-recovery experiment")
    p.add_argument("--n", type=_wire_count, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--samples",
        default="perfect",
        help="'perfect', 'random', 'mixed:k', or comma-separated integers",
    )
    p.add_argument("--trials", type=int_at_least(1, "trials"), default=200)
    _add_common(p)

    p = sub.add_parser("haar", help="averaging transform utilities")
    p.add_argument("--n", type=_wire_count, required=True)
    p.add_argument("--basis", type=int, default=None, help="forward action on this column")
    p.add_argument("--ket", type=int, default=None, help="inverse action on this ket")
    p.add_argument("--i", type=int, default=None, help="emit the inverse circuit for this level")
    p.add_argument("--dump", default=None, help="alias for --out (matrix dumps)")
    _add_common(p)

    return parser


# The report key each command renders as CSV; haar only in its full-matrix view.
_CSV_KEYS = {
    "matrix": "entries",
    "haar": "entries",
    "simulate": "amps",
    "dhsp": "histogram",
}


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    key = _CSV_KEYS.get(report["command"])
    if key not in report:
        raise InputError(f"--format csv is not supported for {report['command']}")
    values = report[key]
    if key == "entries":
        rows = [",".join(f"{re:.12g},{im:.12g}" for re, im in row) for row in values]
    elif key == "amps":
        rows = [f"{k},{re:.12g},{im:.12g}" for k, (re, im) in enumerate(values)]
    else:
        rows = [f"{k},{v}" for k, v in values]
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    if getattr(args, "dump", None) and not args.out:
        args.out = args.dump
    try:
        dense_cap = cap("dense")  # a malformed GQT_DENSE_CAP fails before any work
        report, code = _COMMANDS[args.command](args)
        report["seed"] = args.seed
        report["format"] = args.format
        report["tol"] = args.tol
        report["dense_cap"] = dense_cap
        text = _render(report, args.format)
    except GqtError as exc:
        print(f"gqt: {exc.label}: {exc}", file=sys.stderr)
        rep = getattr(exc, "report", None)
        if rep is not None:  # a failed validity check rides along on stderr
            print(json.dumps(rep.to_json_dict(), sort_keys=True), file=sys.stderr)
        return exc.exit_code
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
