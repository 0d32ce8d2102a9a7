"""Command-line front door.

Generates and schedules circuits, audits swap discipline, verifies
equivalence, and reports depth metrics. Results go to stdout or `--out`;
`--report json` emits a machine-readable record with the keys depth,
generic_depth, cnot_depth, n, final_map, violations.

Exit codes: 0 success, 1 domain error (bad matrix, failed validation,
mismatched circuits), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import BinaryIO, Callable, Sequence, TypeVar

from .bounds import AuditReport, BoundArch, BoundQuery, Model, lower_bound, stage_audit
from .core import (
    MAX_WIRES,
    Circuit,
    ParseError,
    ScheduledCircuit,
    emit_circuit,
    generic_depth,
    is_permutation,
    parse_architecture,
    parse_circuit,
    prune_trailing_swap_layers,
    to_qasm,
    two_qubit_layer_count,
    validate_on,
)
from .css import css_flat, css_schedule_lnn, parse_css
from .linsynth import expand_to_cnot, parse_gf2, synthesize_lnn
from .oracle import gf2_action, unitary_equiv
from .qft import QftSpec, qft_flat, qft_lnn
from .skeleton import SkeletonSpec, parse_skeleton, schedule_lnn
from .stabilizer import parse_stab, schedule_stabilizer, stabilizer_flat, tableau_equiv


_T = TypeVar("_T")


def _load(parse: Callable[[BinaryIO], _T], path: str) -> _T:
    """`parse` applied to the open binary file; a ParseError, a byte that is not UTF-8
    among them, names the file before its line."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except ParseError as err:
        err.args = (f"{path}: {err}",)
        raise


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _use_color() -> bool:
    return os.environ.get("CHAINFORGE_COLOR", "0") == "1"


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if not _use_color():
        return word
    return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"


def _violation_dicts(report: AuditReport) -> list[dict]:
    pairs = (("3L1S", report.violations_3l1s), ("4L2S", report.violations_4l2s))
    return [
        {"kind": kind, "first_layer": first, "last_layer": last, "swaps_between": swaps, "required": need}
        for kind, windows in pairs
        for first, last, swaps, need in windows
    ]


def _json_record(
    circuit: Circuit,
    final_map: tuple[int, ...] | None,
    violations: list[dict],
) -> str:
    """The record as one line per key, each value compact from one `json.dumps` call: any
    `indent` would push the whole record through the pure-Python encoder."""
    record = {
        "depth": circuit.depth(),
        "generic_depth": generic_depth(circuit),
        "cnot_depth": circuit.cnot_depth(),
        "n": circuit.n_wires,
        "final_map": list(final_map) if final_map is not None else None,
        "violations": violations,
    }
    return "{\n" + ",\n".join(f'  "{key}": {json.dumps(value)}' for key, value in record.items()) + "\n}\n"


def _deliver(args: argparse.Namespace, built: ScheduledCircuit | Circuit) -> int:
    """Emit what a generator built per the output flags. A schedule's text carries its final map,
    and its report is audited so it surfaces any swap-discipline regression."""
    scheduled = isinstance(built, ScheduledCircuit)
    circuit, final_map = (built.circuit, built.final_map) if scheduled else (built, None)
    if args.qasm:
        text = to_qasm(circuit)
    else:
        text = emit_circuit(circuit)
        if final_map is not None:
            text += "# final_map " + " ".join(str(s) for s in final_map) + "\n"
    if args.report == "json":
        violations = _violation_dicts(stage_audit(circuit)) if final_map is not None else []
        sys.stdout.write(_json_record(circuit, final_map, violations))
    if args.report != "json" or args.out is not None:
        _write(args.out, text)
    return 0


def _parse_relabel(raw: str, n: int) -> tuple[int, ...] | None:
    if raw == "identity":
        return None
    if raw == "reverse":
        return tuple(n - 1 - w for w in range(n))
    try:
        perm = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise _UsageError(f"bad relabel {raw!r}: expected identity, reverse, or ints")
    if not is_permutation(perm, n):
        raise _UsageError(f"relabel {raw!r} is not a permutation of 0..{n - 1}")
    return perm


class _UsageError(Exception):
    pass


def _tolerance(raw: str) -> float:
    """A `--tol` value; anything but a finite float >= 0 is a usage error."""
    try:
        tol = float(raw)
    except ValueError:
        tol = float("nan")
    if not 0 <= tol < float("inf"):  # false for nan
        raise argparse.ArgumentTypeError(f"expected a finite float >= 0, got {raw!r}")
    return tol


def _wire_flag(n: int) -> int:
    if n > MAX_WIRES:
        raise ValueError(f"--n {n} is more than the limit of {MAX_WIRES} wires")
    return n


def _cmd_qft(args: argparse.Namespace) -> int:
    spec = QftSpec(_wire_flag(args.n), args.approx)
    return _deliver(args, qft_flat(spec) if args.flat else qft_lnn(spec))


def _cmd_linsynth(args: argparse.Namespace) -> int:
    sc = synthesize_lnn(_load(parse_gf2, args.matrix))
    if args.prune_swaps:
        sc = prune_trailing_swap_layers(sc)
    return _deliver(args, expand_to_cnot(sc) if args.cnot_only else sc)


def _cmd_css(args: argparse.Namespace) -> int:
    spec = _load(parse_css, args.spec)
    return _deliver(args, css_flat(spec) if args.flat else css_schedule_lnn(spec))


def _cmd_stab(args: argparse.Namespace) -> int:
    d = _load(parse_stab, args.spec)
    return _deliver(args, stabilizer_flat(d) if args.flat else schedule_stabilizer(d))


def _cmd_skeleton(args: argparse.Namespace) -> int:
    spec = SkeletonSpec(_wire_flag(args.n)) if args.spec is None else _load(parse_skeleton, args.spec)
    return _deliver(args, schedule_lnn(spec, drop_last_swaps=args.drop_last_swaps))


def _cmd_bounds(args: argparse.Namespace) -> int:
    model = Model[args.model]
    raw = args.arch
    if raw == "lnn":
        query = BoundQuery(model, BoundArch.LNN, args.n)
    elif raw == "grid":
        query = BoundQuery(model, BoundArch.GRID, args.n)
    elif raw.startswith("degree:"):
        try:
            k = int(raw.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad degree bound {raw!r}: expected degree:K")
        query = BoundQuery(model, BoundArch.BOUNDED_DEGREE, args.n, k=k)
    else:
        raise _UsageError(f"unknown arch {raw!r}: expected lnn, grid, or degree:K")
    bound = lower_bound(query)
    text = f"coefficient {bound.coefficient}\nformula {bound.formula}\n"
    _write(args.out, text)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    circuit = _load(parse_circuit, args.circuit)
    arch = _load(parse_architecture, args.arch)
    locality = validate_on(circuit, arch)
    audit = stage_audit(circuit)
    violations = _violation_dicts(audit)
    if not locality.ok:
        v = locality.violation
        violations.insert(
            0, {"kind": "locality", "gate_index": v.gate_index, "pair": list(v.pair)}
        )
    ok = locality.ok and audit.ok
    if args.report == "json":
        sys.stdout.write(_json_record(circuit, None, violations))
    else:
        lines = [
            f"locality {_verdict(locality.ok)}",
            f"layers L={audit.l_count} S={audit.s_count}",
            f"swap discipline {_verdict(audit.ok)}",
        ]
        for v in violations:
            lines.append(f"violation {json.dumps(v)}")
        _write(args.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    c1 = _load(parse_circuit, args.a)
    c2 = _load(parse_circuit, args.b)
    if c1.n_wires != c2.n_wires:
        print(f"error: wire counts differ ({c1.n_wires} vs {c2.n_wires})", file=sys.stderr)
        return 1
    perm = _parse_relabel(args.relabel, c1.n_wires)
    if args.method == "dense":
        ok = unitary_equiv(c1, c2, relabel=perm, tol=args.tol)
    elif args.method == "gf2":
        a1, a2 = gf2_action(c1), gf2_action(c2)
        ok = (a1.relabel(perm) == a2) if perm is not None else (a1 == a2)
    else:
        ok = tableau_equiv(c1, c2, relabel=perm)
    print(f"{args.method} {_verdict(ok)}")
    return 0 if ok else 1


def _cmd_depth(args: argparse.Namespace) -> int:
    circuit = _load(parse_circuit, args.circuit)
    if args.report == "json":
        sys.stdout.write(_json_record(circuit, None, []))
        return 0
    lines = [
        f"n {circuit.n_wires}",
        f"depth {circuit.depth()}",
        f"generic_depth {generic_depth(circuit)}",
        f"two_qubit_layers {two_qubit_layer_count(circuit)}",
        f"cnot_depth {'n/a' if circuit.cnot_depth() is None else circuit.cnot_depth()}",
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _add_output_flags(p: argparse.ArgumentParser, qasm: bool = True) -> None:
    p.add_argument("--out", metavar="FILE", help="write the result to FILE instead of stdout")
    p.add_argument("--report", choices=["json"], help="print a JSON metrics record to stdout")
    if qasm:
        p.add_argument("--qasm", action="store_true", help="emit QASM-2 style text (one-way)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainforge",
        description="Linear-depth circuit scheduling for nearest-neighbor chains.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("qft", help="Fourier transform circuit, flat or chained")
    p.add_argument("--n", type=int, required=True, help="number of wires")
    p.add_argument("--approx", type=int, default=None, metavar="M", help="drop rotations beyond M")
    p.add_argument("--flat", action="store_true", help="unrestricted circuit, no routing")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_qft)

    p = sub.add_parser("linsynth", help="synthesize an invertible GF(2) matrix on a chain")
    p.add_argument("--matrix", required=True, metavar="FILE", help="matrix file (rows of 0/1)")
    p.add_argument("--cnot-only", action="store_true", help="expand SWAPs into CNOTs")
    p.add_argument("--prune-swaps", action="store_true", help="drop trailing swap-only layers")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_linsynth)

    p = sub.add_parser("css", help="schedule a CSS encode/syndrome spec")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--flat", action="store_true", help="unrestricted circuit, no routing")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_css)

    p = sub.add_parser("stab", help="schedule an 11-stage stabilizer decomposition")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--flat", action="store_true", help="unrestricted circuit, no routing")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_stab)

    p = sub.add_parser("skeleton", help="schedule a two-qubit-gate skeleton on a chain")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="FILE", help="skeleton spec file")
    group.add_argument("--n", type=int, help="full skeleton on N wires")
    p.add_argument("--drop-last-swaps", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("bounds", help="depth lower-bound coefficient for an architecture")
    p.add_argument("--model", choices=["A", "B"], required=True)
    p.add_argument("--arch", required=True, metavar="ARCH", help="lnn, grid, or degree:K")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("audit", help="check locality and swap discipline of a circuit")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--arch", required=True, metavar="FILE")
    _add_output_flags(p, qasm=False)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("verify", help="compare two circuit files")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--relabel", default="identity", help="identity, reverse, or comma ints")
    p.add_argument("--method", choices=["dense", "gf2", "tableau"], default="dense")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("depth", help="depth metrics of a circuit file")
    p.add_argument("--circuit", required=True, metavar="FILE")
    _add_output_flags(p, qasm=False)
    p.set_defaults(func=_cmd_depth)

    return parser


# built once per process: parse_args keeps nothing between calls, and a build costs more than most parses
_parser = cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # every domain error, ParseError too, is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


__all__ = ["build_parser", "main", "run"]


if __name__ == "__main__":
    run()
