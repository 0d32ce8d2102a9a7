"""Golden CLI output: each call's stdout, stderr, exit code and `--out` file, pinned by SHA-256.

Every input is seeded and written to a temporary directory, whose path is replaced
by `<TMP>` before hashing. A change to any emitted byte (a line order, a JSON key
order, an error's wording) fails the call it touches. After a deliberate output
change, rebuild the table with `PYTHONPATH=src python tests/test_golden.py` and say
in the commit which outputs changed and why. The exit-2 cases pin argparse's own
usage text, which can change between Python versions; CI runs Python 3.11.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import pytest

from chainforge.cli import main
from chainforge.core import Circuit, cnot, cphase, cz, emit_circuit, h, p, swap
from chainforge.css import CssGate, CssMode, CssSpec, emit_css, steane_syndrome
from chainforge.linsynth import GF2Matrix, emit_gf2
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, all_pairs, emit_skeleton
from chainforge.stabilizer import emit_stab, random_decomposition

_TABLE = Path(__file__).with_name("golden_cli.json")
_OUT = "out.txt"  # the `--out` file every call may write, read back into its hash


def _random_circuit(n: int, count: int, rng: Random, clifford: bool) -> Circuit:
    """CNOTs and SWAPs, with H and P too when `clifford`."""
    gates = []
    for _ in range(count):
        a, b = rng.sample(range(n), 2)
        gates.append(rng.choice([cnot(a, b), swap(a, b), *((h(a), p(a)) if clifford else ())]))
    return Circuit(n, tuple(gates))


def _skeleton_spec(n: int, rng: Random) -> SkeletonSpec:
    absent, payload = set(), {}
    for a, b in all_pairs(n):
        pick = rng.randrange(6)
        if pick == 0:
            absent.add((a, b))
        elif pick in (1, 2):
            payload[a, b] = cnot(a, b) if pick == 1 else cnot(b, a)
        elif pick == 3:
            payload[a, b] = cz(a, b)
        elif pick == 4:
            payload[a, b] = cphase(rng.randint(1, n), a, b)
    return SkeletonSpec(n, frozenset(absent), payload)


def _css_encode(s: int, t: int, rng: Random) -> CssSpec:
    rows = tuple(tuple(rng.choice(list(CssGate)) for _ in range(t)) for _ in range(s + 1))
    return CssSpec(CssMode.ENCODE, s, t, rows, rng.randrange(1 << (s + 1 + t)))


def _css_early_syndrome() -> CssSpec:
    """s = 4, t = 3 with only the farthest pairs present: the flow stops at level 2 of s + t - 1 = 6."""
    rows = ("...", "...", "..x", ".zx")  # (p, j) = (4, 3) meets at level 1, (3, 3) and (4, 2) at level 2
    return CssSpec(CssMode.SYNDROME, 4, 3, tuple(tuple(map(CssGate, row)) for row in rows))


def _write_inputs(tmp: Path) -> None:
    qft_sched = qft_lnn(QftSpec(4))
    a = _random_circuit(3, 24, Random(5), clifford=True)
    lin = _random_circuit(3, 12, Random(6), clifford=False)
    files = {
        "m6.txt": emit_gf2(GF2Matrix.random_nonsingular(6, Random(11))),
        "singular.txt": "gf2 2\n11\n11\n",
        "steane.txt": emit_css(steane_syndrome()),
        "encode.txt": emit_css(_css_encode(2, 3, Random(13))),
        "encode_empty.txt": emit_css(CssSpec(CssMode.ENCODE, 2, 3, ((CssGate.NONE,) * 3,) * 3, 0b100110)),
        "syndrome_early.txt": emit_css(_css_early_syndrome()),
        "stab.txt": emit_stab(random_decomposition(4, Random(7))),
        "skel.txt": emit_skeleton(_skeleton_spec(5, Random(17))),
        "lnn2.txt": "lnn 2\n",
        "lnn3.txt": "lnn 3\n",
        "lnn4.txt": "lnn 4\n",
        "path3.txt": "graph 3\nedge 0 1\nedge 1 2\n",
        "clean.txt": emit_circuit(qft_sched.circuit),
        "sched.txt": emit_circuit(qft_sched.circuit),
        "flat.txt": emit_circuit(qft_flat(QftSpec(4))),
        "stripped.txt": emit_circuit(Circuit(2, tuple(cnot(0, 1) for _ in range(4)))),
        "offedge.txt": emit_circuit(Circuit(3, (h(0), cnot(0, 1), cnot(0, 2), swap(1, 2)))),
        "a.txt": emit_circuit(a),
        "a_swapped.txt": emit_circuit(Circuit(3, (*a.gates, swap(0, 1), swap(1, 2)))),
        "lin.txt": emit_circuit(lin),
        "lin_swapped.txt": emit_circuit(Circuit(3, (*lin.gates, swap(0, 1), swap(1, 2)))),
        "lin_reversed.txt": emit_circuit(Circuit(3, (*lin.gates, swap(0, 2)))),
        "cs.txt": "qubits 2\ncnot 0 1\nswap 0 1\n",
        "cc.txt": "qubits 2\ncnot 1 0\ncnot 0 1\n",
        "q3.txt": "qubits 3\n",
        "badgate.txt": "qubits 2\nh 0\nfoo 0 1\n",
    }
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    (tmp / "latin1.txt").write_bytes(b"qubits 2\n\xff\xfe h 0\n")


# (case id, argv); file names are relative to the input directory
CASES = [
    ("qft", ["qft", "--n", "5"]),
    ("qft_flat", ["qft", "--n", "5", "--flat"]),
    ("qft_approx", ["qft", "--n", "6", "--approx", "2"]),
    ("qft_qasm", ["qft", "--n", "4", "--qasm"]),
    ("qft_json_out", ["qft", "--n", "5", "--report", "json", "--out", _OUT]),
    ("linsynth", ["linsynth", "--matrix", "m6.txt"]),
    ("linsynth_cnot_only", ["linsynth", "--matrix", "m6.txt", "--cnot-only"]),
    ("linsynth_prune", ["linsynth", "--matrix", "m6.txt", "--prune-swaps", "--qasm"]),
    ("linsynth_all_json", ["linsynth", "--matrix", "m6.txt", "--cnot-only", "--prune-swaps", "--report", "json"]),
    ("css_syndrome", ["css", "--spec", "steane.txt"]),
    ("css_flat", ["css", "--spec", "steane.txt", "--flat"]),
    ("css_encode_json", ["css", "--spec", "encode.txt", "--report", "json", "--out", _OUT]),
    ("css_encode_empty", ["css", "--spec", "encode_empty.txt"]),
    ("css_syndrome_early", ["css", "--spec", "syndrome_early.txt"]),
    ("stab", ["stab", "--spec", "stab.txt"]),
    ("stab_flat_qasm", ["stab", "--spec", "stab.txt", "--flat", "--qasm"]),
    ("stab_json", ["stab", "--spec", "stab.txt", "--report", "json"]),
    ("skeleton_n", ["skeleton", "--n", "5"]),
    ("skeleton_drop", ["skeleton", "--n", "5", "--drop-last-swaps"]),
    ("skeleton_spec", ["skeleton", "--spec", "skel.txt"]),
    ("skeleton_spec_drop_json", ["skeleton", "--spec", "skel.txt", "--drop-last-swaps", "--report", "json"]),
    ("bounds_lnn", ["bounds", "--model", "A", "--arch", "lnn", "--n", "30"]),
    ("bounds_grid", ["bounds", "--model", "B", "--arch", "grid", "--n", "16"]),
    ("bounds_degree", ["bounds", "--model", "A", "--arch", "degree:3", "--n", "20", "--out", _OUT]),
    ("audit_clean", ["audit", "--circuit", "clean.txt", "--arch", "lnn4.txt"]),
    ("audit_swaps", ["audit", "--circuit", "stripped.txt", "--arch", "lnn2.txt"]),
    ("audit_swaps_json", ["audit", "--circuit", "stripped.txt", "--arch", "lnn2.txt", "--report", "json"]),
    ("audit_off_edge", ["audit", "--circuit", "offedge.txt", "--arch", "path3.txt"]),
    ("audit_off_edge_json", ["audit", "--circuit", "offedge.txt", "--arch", "lnn3.txt", "--report", "json"]),
    ("verify_dense", ["verify", "--a", "cs.txt", "--b", "cc.txt"]),
    ("verify_dense_reverse", ["verify", "--a", "sched.txt", "--b", "flat.txt", "--relabel", "reverse"]),
    ("verify_dense_fail", ["verify", "--a", "sched.txt", "--b", "flat.txt"]),
    ("verify_dense_ints", ["verify", "--a", "a_swapped.txt", "--b", "a.txt", "--relabel", "2,0,1"]),
    ("verify_gf2_ints", ["verify", "--a", "lin_swapped.txt", "--b", "lin.txt", "--method", "gf2", "--relabel", "2,0,1"]),
    ("verify_gf2_reverse", ["verify", "--a", "lin_reversed.txt", "--b", "lin.txt", "--method", "gf2", "--relabel", "reverse"]),
    ("verify_tableau", ["verify", "--a", "cs.txt", "--b", "cc.txt", "--method", "tableau"]),
    ("verify_tableau_ints", ["verify", "--a", "a_swapped.txt", "--b", "a.txt", "--method", "tableau", "--relabel", "2,0,1"]),
    ("depth_plain", ["depth", "--circuit", "cs.txt"]),
    ("depth_json", ["depth", "--circuit", "a.txt", "--report", "json"]),
    ("depth_na", ["depth", "--circuit", "flat.txt"]),
    ("exit1_singular", ["linsynth", "--matrix", "singular.txt"]),
    ("exit1_parse_error", ["depth", "--circuit", "badgate.txt"]),
    ("exit1_missing_file", ["stab", "--spec", "absent.txt"]),
    ("exit1_qasm_generic", ["skeleton", "--n", "3", "--qasm"]),
    ("exit1_wire_counts", ["verify", "--a", "a.txt", "--b", "cs.txt"]),
    ("exit1_oversized", ["qft", "--n", "99999"]),
    ("exit1_not_utf8_depth", ["depth", "--circuit", "latin1.txt"]),
    ("exit1_not_utf8_audit_circuit", ["audit", "--circuit", "latin1.txt", "--arch", "lnn2.txt"]),
    ("exit1_not_utf8_audit_arch", ["audit", "--circuit", "cs.txt", "--arch", "latin1.txt"]),
    ("exit1_not_utf8_verify_a", ["verify", "--a", "latin1.txt", "--b", "cs.txt"]),
    ("exit1_not_utf8_verify_b", ["verify", "--a", "cs.txt", "--b", "latin1.txt"]),
    ("exit1_not_utf8_linsynth", ["linsynth", "--matrix", "latin1.txt"]),
    ("exit1_not_utf8_css", ["css", "--spec", "latin1.txt"]),
    ("exit1_not_utf8_stab", ["stab", "--spec", "latin1.txt"]),
    ("exit1_not_utf8_skeleton", ["skeleton", "--spec", "latin1.txt"]),
    ("exit2_command", ["no-such-command"]),
    ("exit2_missing_flag", ["qft"]),
    ("exit2_bad_degree", ["bounds", "--model", "A", "--arch", "degree:x", "--n", "8"]),
    ("exit2_unknown_arch", ["bounds", "--model", "B", "--arch", "ring", "--n", "8"]),
    ("exit2_tol_negative", ["verify", "--a", "cs.txt", "--b", "cc.txt", "--tol", "-1"]),
    ("exit2_tol_nan", ["verify", "--a", "cs.txt", "--b", "cc.txt", "--tol", "nan"]),
    ("exit2_tol_inf", ["verify", "--a", "cs.txt", "--b", "cc.txt", "--tol", "inf"]),
    ("exit2_bad_relabel", ["verify", "--a", "q3.txt", "--b", "q3.txt", "--relabel", "0,2,2"]),
]

_FLAGS_WITH_FILES = {"--matrix", "--spec", "--circuit", "--arch", "--a", "--b", "--out"}


def _call(argv: list[str], tmp: Path) -> tuple[int, str, str, str]:
    """One in-process call's exit code, stdout, stderr and `--out` file."""
    full = [str(tmp / tok) if prev in _FLAGS_WITH_FILES and tok.endswith(".txt") else tok
            for prev, tok in zip([None, *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width; color is off
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("CHAINFORGE_COLOR", None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full)
    written = tmp / _OUT
    out_file = written.read_text(encoding="utf-8") if written.exists() else ""
    written.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), out_file


def _run(argv: list[str], tmp: Path) -> str:
    """The SHA-256 of one in-process call's exit code, stdout, stderr and `--out` file."""
    code, out, err, out_file = _call(argv, tmp)
    blob = "\0".join([str(code), out, err, out_file])
    return hashlib.sha256(blob.replace(str(tmp), "<TMP>").encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    _write_inputs(tmp)
    return tmp


@pytest.fixture(scope="module")
def table():
    return json.loads(_TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case, argv", CASES, ids=[c for c, _ in CASES])
def test_cli_output_matches_golden(case, argv, inputs, table):
    assert _run(argv, inputs) == table[case], f"{case}: output differs from the golden table"


def test_golden_table_covers_exactly_the_cases(table):
    assert list(table) == [c for c, _ in CASES]


_RECORD_KEYS = ["depth", "generic_depth", "cnot_depth", "n", "final_map", "violations"]


def _record_of(text: str) -> dict:
    """The `--report json` record in `text`, once its layout is checked: one line per key, in
    order, each value compact as `json.dumps` writes it, and every line decoding on its own."""
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    record = json.loads(text)
    assert list(record) == _RECORD_KEYS
    body = lines[1:-2]
    assert len(body) == len(record)
    for i, (line, (key, value)) in enumerate(zip(body, record.items())):
        comma = "," if i < len(record) - 1 else ""
        assert line == f'  "{key}": {json.dumps(value)}{comma}'
        assert json.loads("{" + line.rstrip(",") + "}") == {key: value}
    return record


def test_json_reports_hold_one_key_per_line(inputs):
    records = {}
    for case, argv in CASES:
        if "--report" in argv:
            code, out, err, _ = _call(argv, inputs)
            assert code in (0, 1) and err == "", case
            records[case] = _record_of(out)
    finals = [r["final_map"] for r in records.values()]
    violations = [r["violations"] for r in records.values()]
    assert None in finals and [] in violations and any(finals) and any(violations)


def test_json_report_with_long_lists(tmp_path):
    matrix = emit_gf2(GF2Matrix.random_nonsingular(64, Random(1)))
    (tmp_path / "m64.txt").write_text(matrix, encoding="utf-8")
    code, out, err, _ = _call(["linsynth", "--matrix", "m64.txt", "--cnot-only", "--report", "json"], tmp_path)
    assert (code, err) == (0, "")
    record = _record_of(out)
    assert sorted(record["final_map"]) == list(range(64))
    assert len(record["violations"]) == 1425
    fields = ["kind", "first_layer", "last_layer", "swaps_between", "required"]
    assert all(list(v) == fields for v in record["violations"])


if __name__ == "__main__":  # rebuild the table
    with tempfile.TemporaryDirectory() as d:
        _write_inputs(Path(d))
        rebuilt = {case: _run(argv, Path(d)) for case, argv in CASES}
    _TABLE.write_text(json.dumps(rebuilt, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rebuilt)} hashes to {_TABLE}", file=sys.stderr)
