"""End-to-end command-line behavior, run in process through main()."""

import json
from random import Random

import pytest

from chainforge import linsynth
from chainforge.cli import main
from chainforge.core import MAX_WIRES, Circuit, cnot, emit_circuit, invert_permutation, parse_circuit
from chainforge.css import emit_css, steane_syndrome
from chainforge.linsynth import GF2Matrix, emit_gf2, parse_gf2
from chainforge.oracle import gf2_action
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, emit_skeleton
from chainforge.stabilizer import emit_stab, random_decomposition, schedule_stabilizer


def test_qft_stdout_has_circuit_and_final_map(capsys):
    assert main(["qft", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "# final_map 3 2 1 0" in out
    assert parse_circuit(out) == qft_lnn(QftSpec(4)).circuit


def test_qft_flat_has_no_final_map(capsys):
    assert main(["qft", "--n", "4", "--flat"]) == 0
    out = capsys.readouterr().out
    assert "final_map" not in out
    assert parse_circuit(out) == qft_flat(QftSpec(4))


def test_out_file_reparses_losslessly(tmp_path, capsys):
    path = tmp_path / "qft.txt"
    assert main(["qft", "--n", "6", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_circuit(path.read_text()) == qft_lnn(QftSpec(6)).circuit


def test_report_json_record(capsys):
    assert main(["qft", "--n", "5", "--report", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {
        "depth",
        "generic_depth",
        "cnot_depth",
        "n",
        "final_map",
        "violations",
    }
    assert record["n"] == 5
    assert record["depth"] == 4 * 5 - 4
    assert record["generic_depth"] == 2 * 5 - 3
    assert record["final_map"] == [4, 3, 2, 1, 0]
    assert record["cnot_depth"] is None  # controlled phases do not expand
    assert record["violations"] == []


def test_report_json_still_writes_out_file(tmp_path, capsys):
    path = tmp_path / "c.txt"
    assert main(["qft", "--n", "3", "--report", "json", "--out", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 3
    assert parse_circuit(path.read_text()) == qft_lnn(QftSpec(3)).circuit


def test_qasm_export(capsys):
    assert main(["qft", "--n", "3", "--qasm"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OPENQASM 2.0;")
    assert "cu1" in out


def test_qasm_rejects_unnamed_two_qubit_gates(capsys):
    # a bare skeleton schedule carries placeholder gates with no QASM spelling
    assert main(["skeleton", "--n", "4", "--qasm"]) == 1
    assert "error:" in capsys.readouterr().err


def test_linsynth_cnot_only(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("gf2 3\n011\n110\n010\n")
    assert main(["linsynth", "--matrix", str(matrix), "--cnot-only"]) == 0
    circuit = parse_circuit(capsys.readouterr().out)
    assert all(g.kind.name in ("CNOT",) for g in circuit.gates)


def test_cnot_only_report_expands_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = linsynth.expand_circuit_to_cnot

    def counted(circuit):
        calls.append(circuit)
        return real(circuit)

    monkeypatch.setattr(linsynth, "expand_circuit_to_cnot", counted)
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_gf2(GF2Matrix.random_nonsingular(8, Random(3))))
    argv = ["linsynth", "--matrix", str(matrix), "--cnot-only", "--report", "json"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(calls) == 1  # the SWAP-free expanded circuit is not expanded again
    assert record["cnot_depth"] == record["depth"]


def test_linsynth_prune_swaps(tmp_path, capsys):
    """This matrix's one-part schedule ends in SWAP-only layers, and its final map relabels the
    outputs as well as following the SWAPs (a permutation matrix would cost no gate to prune)."""
    matrix = tmp_path / "m.txt"
    matrix.write_text("gf2 3\n100\n101\n010\n")
    assert main(["linsynth", "--matrix", str(matrix)]) == 0
    out = capsys.readouterr().out
    full = parse_circuit(out)
    assert "# final_map 2 0 1" in out
    assert main(["linsynth", "--matrix", str(matrix), "--prune-swaps"]) == 0
    out = capsys.readouterr().out
    pruned = parse_circuit(out)
    assert len(pruned.gates) < len(full.gates)
    assert "# final_map 1 2 0" in out
    assert gf2_action(pruned).relabel((1, 2, 0)) == parse_gf2(matrix.read_text())


def test_singular_matrix_is_a_domain_error(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("gf2 2\n11\n11\n")
    assert main(["linsynth", "--matrix", str(matrix)]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_errors_name_the_file_at_fault(tmp_path, capsys):
    good, empty = tmp_path / "good.txt", tmp_path / "empty.txt"
    good.write_text(emit_circuit(Circuit(2, (cnot(0, 1),))))
    empty.write_text("# nothing here\n")
    want = f"error: {empty}: line 1: empty file: every line is blank or a comment\n"
    for argv in (
        ["audit", "--circuit", str(good), "--arch", str(empty)],
        ["verify", "--a", str(good), "--b", str(empty), "--method", "gf2"],
        ["depth", "--circuit", str(empty)],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == want


_INPUTS = {"BAD": b"qubits 2\n\xff\xfe h 0\n", "GOOD": b"qubits 2\ncnot 0 1\n", "ARCH": b"lnn 2\n"}


@pytest.mark.parametrize(
    "argv",
    [
        ["depth", "--circuit", "BAD"],
        ["audit", "--circuit", "BAD", "--arch", "ARCH"],
        ["audit", "--circuit", "GOOD", "--arch", "BAD"],
        ["verify", "--a", "BAD", "--b", "GOOD"],
        ["verify", "--a", "GOOD", "--b", "BAD"],
        ["linsynth", "--matrix", "BAD"],
        ["css", "--spec", "BAD"],
        ["stab", "--spec", "BAD"],
        ["skeleton", "--spec", "BAD"],
    ],
    ids=lambda argv: "-".join(argv[0::2]),
)
def test_non_utf8_input_names_the_file_and_line(argv, tmp_path, capsys):
    for name, data in _INPUTS.items():
        (tmp_path / name).write_bytes(data)
    assert main([str(tmp_path / tok) if tok in _INPUTS else tok for tok in argv]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'BAD'}: line 2: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_line_ends_read_as_in_text_mode(newline, tmp_path, capsys):
    """A file is read as bytes and decoded; CRLF and CR line ends number its lines as LF does."""
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    outputs = []
    for sep in ("\n", newline):
        good.write_bytes(sep.join(["qubits 2", "h 0", "cnot 0 1", ""]).encode())
        assert main(["depth", "--circuit", str(good)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for data, reason in ((b"foo 0 1", "unknown gate"), (b"\xff", "byte 0xff is not UTF-8")):
        bad.write_bytes(newline.join(["qubits 2", "h 0", ""]).encode() + data)
        assert main(["depth", "--circuit", str(bad)]) == 1
        assert f"{bad}: line 3: {reason}" in capsys.readouterr().err


def test_verify_tol_is_a_finite_non_negative_float(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 2\ncnot 0 1\nswap 0 1\n")
    verify = ["verify", "--a", str(circuit), "--b", str(circuit)]
    for tol in ("-1", "nan", "inf", "abc"):
        assert main([*verify, "--tol", tol]) == 2, tol
        assert f"argument --tol: expected a finite float >= 0, got '{tol}'" in capsys.readouterr().err
    for flags in ([], ["--tol", "0"]):
        assert main([*verify, *flags]) == 0
        assert capsys.readouterr().out == "dense PASS\n"


def test_missing_file_is_a_domain_error(tmp_path, capsys):
    assert main(["linsynth", "--matrix", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_oversized_inputs_are_domain_errors(tmp_path, capsys):
    files = {
        "huge_circuit": "qubits 99999999999\nh 0\n",
        "huge_arch": "lnn 99999999999\n",
        "huge_matrix": "gf2 99999\n",
        "huge_stab": "stab 99999\n",
        "huge_css": "css encode 1000 1000\n",
        "circuit": "qubits 2\nh 0\n",
        "arch": "lnn 2\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    f = {name: str(tmp_path / name) for name in files}
    for argv in (
        ["audit", "--circuit", f["huge_circuit"], "--arch", f["arch"]],
        ["audit", "--circuit", f["circuit"], "--arch", f["huge_arch"]],
        ["linsynth", "--matrix", f["huge_matrix"]],
        ["stab", "--spec", f["huge_stab"]],
        ["css", "--spec", f["huge_css"]],
        ["qft", "--n", "99999999999"],
        ["skeleton", "--n", "99999999999"],
    ):
        assert main(argv) == 1, argv
        assert str(MAX_WIRES) in capsys.readouterr().err


def test_cphase_parameter_is_bounded(tmp_path, capsys):
    for k in (MAX_WIRES + 1, 99999999999999999999):
        circuit, spec = tmp_path / "c.txt", tmp_path / "s.txt"
        circuit.write_text(f"qubits 2\nh 0\ncphase {k} 0 1\n")
        spec.write_text(f"skeleton 2\npayload 0 1 cphase {k}\n")
        for argv, line in (
            (["verify", "--a", str(circuit), "--b", str(circuit), "--method", "dense"], 3),
            (["skeleton", "--spec", str(spec), "--qasm"], 2),
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"line {line}:" in err and f"1..{MAX_WIRES}" in err, err
    circuit.write_text(f"qubits 2\nh 0\ncphase {MAX_WIRES} 0 1\n")
    spec.write_text(f"skeleton 2\npayload 0 1 cphase {MAX_WIRES}\n")
    assert main(["verify", "--a", str(circuit), "--b", str(circuit), "--method", "dense"]) == 0
    assert main(["skeleton", "--spec", str(spec), "--qasm"]) == 0
    assert f"cu1(pi/{2 ** (MAX_WIRES - 1)})" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["qft"]) == 2  # --n is required
    assert main(["bounds", "--model", "A", "--arch", "degree:x", "--n", "8"]) == 2
    capsys.readouterr()


def test_bounds_output(capsys):
    assert main(["bounds", "--model", "A", "--arch", "lnn", "--n", "30"]) == 0
    assert capsys.readouterr().out == "coefficient 10/3\nformula (10/3)n + O(1)\n"
    assert main(["bounds", "--model", "B", "--arch", "degree:4", "--n", "30"]) == 0
    assert capsys.readouterr().out == "coefficient 5/4\nformula (5/4)n + O(1)\n"


def test_audit_clean_schedule(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    arch = tmp_path / "a.txt"
    assert main(["skeleton", "--n", "5", "--out", str(circuit)]) == 0
    arch.write_text("lnn 5\n")
    assert main(["audit", "--circuit", str(circuit), "--arch", str(arch)]) == 0
    out = capsys.readouterr().out
    assert "locality PASS" in out
    assert "swap discipline PASS" in out
    assert "layers L=7 S=7" in out


def test_audit_flags_stripped_swaps(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    arch = tmp_path / "a.txt"
    circuit.write_text(emit_circuit(Circuit(2, tuple(cnot(0, 1) for _ in range(4)))))
    arch.write_text("lnn 2\n")
    assert main(["audit", "--circuit", str(circuit), "--arch", str(arch)]) == 1
    out = capsys.readouterr().out
    assert "swap discipline FAIL" in out
    assert '"kind": "3L1S"' in out
    assert '"kind": "4L2S"' in out


def test_audit_reports_locality_first(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    arch = tmp_path / "a.txt"
    circuit.write_text(emit_circuit(Circuit(3, (cnot(0, 2),))))
    arch.write_text("lnn 3\n")
    assert main(["audit", "--circuit", str(circuit), "--arch", str(arch), "--report", "json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["violations"][0] == {"kind": "locality", "gate_index": 0, "pair": [0, 2]}


def test_verify_dense_with_reverse_relabel(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    flat = tmp_path / "flat.txt"
    assert main(["qft", "--n", "4", "--out", str(sched)]) == 0
    assert main(["qft", "--n", "4", "--flat", "--out", str(flat)]) == 0
    args = ["verify", "--a", str(sched), "--b", str(flat), "--relabel", "reverse"]
    assert main(args) == 0
    assert capsys.readouterr().out == "dense PASS\n"
    assert main(["verify", "--a", str(sched), "--b", str(flat)]) == 1
    assert capsys.readouterr().out == "dense FAIL\n"


def test_verify_gf2_and_tableau(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("qubits 2\ncnot 0 1\nswap 0 1\n")
    b.write_text("qubits 2\ncnot 1 0\ncnot 0 1\n")
    for method in ("gf2", "tableau", "dense"):
        assert main(["verify", "--a", str(a), "--b", str(b), "--method", method]) == 0
        assert capsys.readouterr().out == f"{method} PASS\n"


def test_verify_relabel_as_int_list(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("qubits 2\nswap 0 1\n")
    b.write_text("qubits 2\n")
    assert main(["verify", "--a", str(a), "--b", str(b), "--method", "gf2", "--relabel", "1,0"]) == 0
    capsys.readouterr()
    assert main(["verify", "--a", str(a), "--b", str(b), "--relabel", "0,2,1"]) == 2
    capsys.readouterr()


def test_verify_wire_count_mismatch(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("qubits 2\n")
    b.write_text("qubits 3\n")
    assert main(["verify", "--a", str(a), "--b", str(b)]) == 1
    assert "wire counts differ" in capsys.readouterr().err


def test_depth_command_plain_and_na(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\ncnot 0 1\nswap 0 1\n")
    assert main(["depth", "--circuit", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "n 2\ndepth 2\ngeneric_depth 1\ntwo_qubit_layers 2\ncnot_depth 2\n"
    assert main(["skeleton", "--n", "3", "--out", str(path)]) == 0
    assert main(["depth", "--circuit", str(path)]) == 0
    assert "cnot_depth n/a" in capsys.readouterr().out


def test_depth_report_json(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\ncnot 0 1\n")
    assert main(["depth", "--circuit", str(path), "--report", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["depth"] == 1 and record["cnot_depth"] == 1
    assert record["final_map"] is None


def test_css_and_stab_schedules_verify_against_flat(tmp_path, capsys):
    spec = tmp_path / "steane.txt"
    spec.write_text(emit_css(steane_syndrome()))
    sched = tmp_path / "sched.txt"
    flat = tmp_path / "flat.txt"
    assert main(["css", "--spec", str(spec), "--out", str(sched)]) == 0
    assert main(["css", "--spec", str(spec), "--flat", "--out", str(flat)]) == 0
    assert "# final_map" in sched.read_text()
    assert "# final_map" not in flat.read_text()

    d = random_decomposition(3, Random(5))
    stab_spec = tmp_path / "stab.txt"
    stab_spec.write_text(emit_stab(d))
    assert main(["stab", "--spec", str(stab_spec), "--out", str(sched)]) == 0
    assert main(["stab", "--spec", str(stab_spec), "--flat", "--out", str(flat)]) == 0
    relabel = ",".join(str(w) for w in schedule_stabilizer(d).final_map)
    args = [
        "verify",
        "--a", str(sched),
        "--b", str(flat),
        "--method", "tableau",
        "--relabel", relabel,
    ]
    assert main(args) == 0
    assert capsys.readouterr().out == "tableau PASS\n"


def test_stab_final_map_line_verifies_against_flat(tmp_path, capsys):
    """The `# final_map` line that `stab` writes, passed to `verify --relabel` as comma ints, makes
    the schedule match the flat circuit; the inverse map, a different one here, does not."""
    spec, sched, flat = tmp_path / "stab.txt", tmp_path / "sched.txt", tmp_path / "flat.txt"
    spec.write_text(emit_stab(random_decomposition(4, Random(1))))
    assert main(["stab", "--spec", str(spec), "--out", str(sched)]) == 0
    assert main(["stab", "--spec", str(spec), "--flat", "--out", str(flat)]) == 0
    (line,) = [line for line in sched.read_text().splitlines() if line.startswith("# final_map ")]
    final = tuple(map(int, line.split()[2:]))
    assert invert_permutation(final) != final
    for relabel, code, verdict in ((final, 0, "PASS"), (invert_permutation(final), 1, "FAIL")):
        argv = ["verify", "--a", str(sched), "--b", str(flat), "--method", "tableau"]
        assert main([*argv, "--relabel", ",".join(map(str, relabel))]) == code
        assert capsys.readouterr().out == f"tableau {verdict}\n"


def test_skeleton_spec_file(tmp_path, capsys):
    spec = SkeletonSpec(4, absent=frozenset({(0, 2)}))
    path = tmp_path / "skel.txt"
    path.write_text(emit_skeleton(spec))
    assert main(["skeleton", "--spec", str(path)]) == 0
    assert "# final_map 3 2 1 0" in capsys.readouterr().out


def test_color_env_toggles_ansi(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.txt"
    a.write_text("qubits 2\nswap 0 1\n")
    monkeypatch.setenv("CHAINFORGE_COLOR", "1")
    assert main(["verify", "--a", str(a), "--b", str(a), "--method", "gf2"]) == 0
    assert "\x1b[32mPASS\x1b[0m" in capsys.readouterr().out
    monkeypatch.delenv("CHAINFORGE_COLOR")
    assert main(["verify", "--a", str(a), "--b", str(a), "--method", "gf2"]) == 0
    out = capsys.readouterr().out
    assert "\x1b[" not in out and "PASS" in out
