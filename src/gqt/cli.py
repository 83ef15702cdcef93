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
csv``) is a lossy 12-digit rendering offered for matrix, simulate, and dhsp.
Exit codes: 0 success/valid, 1 bad input, 2 validity failure, 3 cap exceeded.
The environment variable GQT_DENSE_CAP overrides the dense-matrix cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dhsp as dhsp_mod
from .config import DEFAULT_SEED, STATE_TOL, Limits, limits_from_env, rng_from_seed
from .errors import (
    CapExceededError,
    GqtError,
    InputError,
    NotUnitaryError,
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
    check_general,
    check_triangular,
    numeric_unitarity_defect,
)
from .qstate import (
    Circuit,
    Controlled,
    QState,
    SingleQubit,
    Swap,
    apply_circuit,
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


def _c2(v) -> list[float]:
    v = complex(v)
    return [float(v.real), float(v.imag)]


def matrix_to_lists(m: np.ndarray) -> list:
    """Row-major nested lists with each entry as an [re, im] pair."""
    return [[_c2(v) for v in row] for row in np.asarray(m)]


def matrix_from_lists(rows) -> np.ndarray:
    """Inverse of :func:`matrix_to_lists` (bit-exact for JSON round trips)."""
    try:
        return np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix entries: {exc}") from exc


def amps_to_lists(amps: np.ndarray) -> list:
    return [_c2(v) for v in np.asarray(amps)]


def hist_to_pairs(hist: dict[int, int]) -> list:
    return [[int(k), int(v)] for k, v in sorted(hist.items())]


def gate_to_json_dict(g) -> dict:
    if isinstance(g, Swap):
        return {"kind": "swap", "a": g.a, "b": g.b}
    u = [_c2(g.u[r, c]) for r in range(2) for c in range(2)]
    if isinstance(g, SingleQubit):
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
        n = int(data["n"])
        gates = []
        for gd in data["gates"]:
            kind = gd["kind"]
            if kind == "swap":
                gates.append(Swap(int(gd["a"]), int(gd["b"])))
                continue
            flat = gd["u"]
            u = np.array(
                [complex(re, im) for re, im in flat], dtype=np.complex128
            ).reshape(2, 2)
            if kind == "single":
                gates.append(SingleQubit(int(gd["target"]), u))
            elif kind == "controlled":
                controls = tuple((int(q), int(b)) for q, b in gd["controls"])
                gates.append(Controlled(controls, int(gd["target"]), u))
            else:
                raise InputError(f"unknown gate kind {kind!r}")
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


def load_rot_spec(path: str, variant: str | None = None) -> RotSpec:
    """Rotation spec file:

    {"n": int, "variant": "hadamard_first" | "rotation_first",
     "theta": [{"i": int, "j": int, "t0": real, "t1": real}, ...],
     "alpha0": [...] (second variant only)}
    """
    data = _load_json(path)
    try:
        n = int(data["n"])
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
            thetas[(int(rec["i"]), int(rec["j"]))] = (
                float(rec["t0"]),
                float(rec["t1"]),
            )
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


def _cmd_matrix(args, limits: Limits) -> tuple[dict, list | None, int]:
    kind = args.kind
    circuit = None
    if kind == "gqft":
        pm = load_phase_spec(_require(args, "--spec"))
        spec = GqftSpec.from_phase_matrix(pm, limits=limits)
        entries = gqft_dense(spec, limits=limits).entries
        n = pm.n
        note = _LITTLE_ENDIAN_NOTE
        if args.emit_circuit:
            circuit = gqft_circuit(spec)
    elif kind in ("rot1", "rot2"):
        variant = HADAMARD_FIRST if kind == "rot1" else ROTATION_FIRST
        spec = load_rot_spec(_require(args, "--spec"), variant)
        dense_fn, circuit_fn = _ROT_BUILDERS[variant]
        entries = dense_fn(spec, limits).entries
        n = spec.n
        note = _LITTLE_ENDIAN_NOTE
        if args.emit_circuit:
            circuit = circuit_fn(spec)
    elif kind == "haar":
        n = _require(args, "--n")
        entries = haar_matrix(n, limits).p
        note = _HAAR_NOTE
        if args.emit_circuit:
            raise InputError(
                "kind haar has no forward circuit; see the haar command "
                "for inverse circuits"
            )
    elif kind == "dft":
        n = _require(args, "--n")
        entries = dft_dense(n, limits).entries
        note = _LITTLE_ENDIAN_NOTE
        if args.emit_circuit:
            circuit = dft_circuit(n)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown kind {kind!r}")

    report = {
        "command": "matrix",
        "kind": kind,
        "n": n,
        "convention": note,
        "entries": matrix_to_lists(entries),
    }
    if circuit is not None:
        Path(args.emit_circuit).write_text(
            json.dumps(circuit_to_json_dict(circuit), sort_keys=True, indent=2) + "\n"
        )
        report["circuit_path"] = args.emit_circuit
        report["gate_count"] = circuit.gate_count
    csv_rows = _matrix_csv(entries)
    return report, csv_rows, 0


def _matrix_csv(entries) -> list[str]:
    rows = []
    for row in np.asarray(entries):
        rows.append(",".join(f"{v.real:.12g},{v.imag:.12g}" for v in row))
    return rows


def _cmd_check(args, limits: Limits) -> tuple[dict, list | None, int]:
    pm = load_phase_spec(_require(args, "--spec"))
    tol = args.tol if args.tol is not None else CRITERION_TOL
    tri = check_triangular(pm, tol)
    gen = check_general(pm, tol, limits)
    defect = None
    numeric = None
    if pm.n <= limits.dense_cap:
        defect = float(numeric_unitarity_defect(pm))
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
    return report, None, 0 if gen.valid else 2


def _cmd_simulate(args, limits: Limits) -> tuple[dict, list | None, int]:
    circ = circuit_from_json_dict(_load_json(_require(args, "--spec")))
    limits.check("state", circ.n)
    basis = args.basis
    out = apply_circuit(QState.basis(circ.n, basis), circ)
    report = {
        "command": "simulate",
        "n": circ.n,
        "basis": basis,
        "gate_count": circ.gate_count,
        "amps": amps_to_lists(out.amps),
    }
    csv_rows = [f"{k},{v.real:.12g},{v.imag:.12g}" for k, v in enumerate(out.amps)]
    if args.trials:
        hist = measure_all(out, args.seed, args.trials)
        report["trials"] = args.trials
        report["histogram"] = hist_to_pairs(hist)
    return report, csv_rows, 0


def _max_abs_diff(a, b) -> float:
    """Largest entrywise deviation between two dense unitaries."""
    return float(np.max(np.abs(a.entries - b.entries)))


def _cmd_compare(args, limits: Limits) -> tuple[dict, list | None, int]:
    path = _require(args, "--spec")
    data = _load_json(path)
    tol = args.tol if args.tol is not None else STATE_TOL
    report: dict = {"command": "compare"}
    if "variant" in data or "theta" in data:
        spec = load_rot_spec(path)
        dense_fn, circuit_fn = _ROT_BUILDERS[spec.variant]
        dense = dense_fn(spec, limits)
        circ = circuit_fn(spec)
        n = spec.n
        ceiling = n + n * (n - 1)
        report["spec_kind"] = f"rot:{spec.variant}"
    else:
        pm = PhaseMatrix.from_json_dict(data)
        if not check_triangular(pm).valid:
            raise UnsupportedRegimeError(
                "comparison needs a lower-triangular phase matrix "
                "(circuits exist only in that regime) or a rotation spec"
            )
        spec = GqftSpec(pm)
        dense = gqft_dense(spec, limits=limits)
        circ = gqft_circuit(spec)
        n = pm.n
        ceiling = n + n * (n - 1) // 2
        report["spec_kind"] = "phase"
        if np.array_equal(pm.phi, toeplitz_phi(n).phi):
            report["note"] = (
                "rows are the bit-reversal of the standard transform's; "
                "appending swaps (i, n-1-i) reproduces it exactly"
            )
            report["dft_swap_max_abs_diff"] = _max_abs_diff(
                circuit_to_dense(dft_circuit(n), limits), dft_dense(n, limits)
            )
    diff = _max_abs_diff(circuit_to_dense(circ, limits), dense)
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
    return report, None, 0 if passed else 2


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


def _cmd_dhsp(args, limits: Limits) -> tuple[dict, list | None, int]:
    n = _require(args, "--n")
    d = _require(args, "--d")
    samples, mode = _parse_samples(args.samples, n, args.seed)
    inst = dhsp_mod.DhspInstance(n, d, samples)
    analysis = dhsp_mod.analyze(inst)
    rec = dhsp_mod.recover_d(inst, args.trials, args.seed, limits)
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
        "lambda": list(analysis.lam),
        "f": analysis.f,
        "phi": [list(map(float, row)) for row in analysis.phi.phi],
        "histogram": hist_to_pairs(rec.histogram),
    }
    csv_rows = [f"{k},{v}" for k, v in sorted(rec.histogram.items())]
    return report, csv_rows, 0


def _cmd_haar(args, limits: Limits) -> tuple[dict, list | None, int]:
    n = _require(args, "--n")
    report: dict = {"command": "haar", "n": n}
    csv_rows = None
    if args.basis is not None:
        if not 0 <= args.basis < (1 << n):
            raise InputError(f"basis index {args.basis} out of range for n={n}")
        x = tuple((args.basis >> (n - 1 - j)) & 1 for j in range(n))
        state = haar_apply_basis(n, x, limits)
        report["basis"] = args.basis
        report["slot_bits"] = list(x)
        report["amps"] = amps_to_lists(state.amps)
        # The forward action is closed-form; only this check needs the dense matrix.
        report["identity_check"] = (
            haar_matrix_identity_check(n, x, limits=limits)
            if n <= limits.dense_cap
            else None
        )
    if args.ket is not None:
        state = haar_inverse_apply(n, args.ket, limits)
        report["ket"] = args.ket
        report["inverse_amps"] = amps_to_lists(state.amps)
    if args.i is not None:
        circ = haar_inverse_circuit(n, args.i, limits)
        report["i"] = args.i
        report["swap_count"] = haar_inverse_swap_count(n, args.i)
        report["inverse_circuit"] = circuit_to_json_dict(circ)
    if args.basis is None and args.ket is None and args.i is None:
        hm = haar_matrix(n, limits)
        report["convention"] = _HAAR_NOTE
        report["entries"] = matrix_to_lists(hm.p)
        csv_rows = _matrix_csv(hm.p)
    return report, csv_rows, 0


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


class _Parser(argparse.ArgumentParser):
    """argparse, but flag errors exit 1 (code 2 is reserved for validity)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _wire_count(raw: str) -> int:
    """argparse type for --n: an integer of at least 1."""
    try:
        n = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"need n >= 1, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--trials", type=int, default=0, help="measurement shots (0 = none)")
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
    p.add_argument("--trials", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("haar", help="averaging transform utilities")
    p.add_argument("--n", type=_wire_count, required=True)
    p.add_argument("--basis", type=int, default=None, help="forward action on this column")
    p.add_argument("--ket", type=int, default=None, help="inverse action on this ket")
    p.add_argument("--i", type=int, default=None, help="emit the inverse circuit for this level")
    p.add_argument("--dump", default=None, help="alias for --out (matrix dumps)")
    _add_common(p)

    return parser


def _render(report: dict, csv_rows: list | None, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if csv_rows is None:
        raise InputError(f"--format csv is not supported for {report['command']}")
    return "\n".join(csv_rows) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    if getattr(args, "dump", None) and not args.out:
        args.out = args.dump
    try:
        limits = limits_from_env()
    except ValueError as exc:
        print(f"gqt: error: {exc}", file=sys.stderr)
        return 1
    try:
        report, csv_rows, code = _COMMANDS[args.command](args, limits)
        report["seed"] = args.seed
        report["format"] = args.format
        report["tol"] = args.tol
        report["dense_cap"] = limits.dense_cap
        text = _render(report, csv_rows, args.format)
    except CapExceededError as exc:
        print(f"gqt: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValidityError, NotUnitaryError) as exc:
        print(f"gqt: validity failure: {exc}", file=sys.stderr)
        rep = getattr(exc, "report", None)
        if rep is not None:
            print(json.dumps(rep.to_json_dict(), sort_keys=True), file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"gqt: error: {exc}", file=sys.stderr)
        return 1
    except GqtError as exc:  # pragma: no cover - internal consistency guards
        print(f"gqt: internal error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
