"""Gate primitives, depth metrics, architectures, and the text formats."""

from random import Random

import pytest

import chainforge.core as core
from chainforge.core import (
    Architecture,
    ChainNotFoundError,
    Circuit,
    Gate,
    GateKind,
    ParseError,
    ScheduledCircuit,
    cnot,
    cphase,
    cz,
    embed_chain,
    emit_circuit,
    generic2,
    generic_depth,
    h,
    invert_permutation,
    p,
    parse_architecture,
    parse_circuit,
    prune_trailing_swap_layers,
    swap,
    swap_flow_map,
    to_qasm,
    two_qubit_layer_count,
    validate_gate,
    validate_on,
)
from chainforge.css import css_flat, css_schedule_lnn, parse_css, steane_syndrome
from chainforge.linsynth import GF2Matrix, expand_to_cnot, parse_gf2, synthesize_lnn
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, all_pairs, parse_skeleton, schedule_lnn
from chainforge.stabilizer import parse_stab, random_decomposition, schedule_stabilizer, stabilizer_flat


def test_symmetric_gates_canonicalize_pair_order():
    assert swap(2, 0).qubits == (0, 2)
    assert cz(3, 1).qubits == (1, 3)
    assert generic2(1, 0).qubits == (0, 1)
    g = cphase(2, 3, 1)
    assert g.qubits == (1, 3) and g.param == 2


def test_cnot_keeps_direction():
    g = cnot(2, 0)
    assert g.qubits == (2, 0)
    assert g != cnot(0, 2)


def test_gate_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        h(-1)
    with pytest.raises(ValueError):
        cphase(0, 0, 1)
    with pytest.raises(ValueError):
        validate_gate(Gate(GateKind.H, (0,), 3))
    with pytest.raises(ValueError):
        validate_gate(Gate(GateKind.SWAP, (0, 1), 1))


def test_gates_reject_bool_wires_and_parameters():
    """A bool passes isinstance(_, int) but would be written as True, which no parser reads."""
    for make in (
        lambda: h(True),
        lambda: p(False),
        lambda: cnot(0, True),
        lambda: swap(True, 2),
        lambda: cphase(True, 0, 1),
        lambda: Gate(GateKind.CPHASE, (0, 1), False),
    ):
        with pytest.raises(ValueError):
            make()
    assert emit_circuit(Circuit(2, (h(1), cphase(1, 0, 1)))) == "qubits 2\nh 1\ncphase 1 0 1\n"


def test_symmetric_kinds_must_store_wires_ascending():
    for kind, param in (
        (GateKind.CZ, None),
        (GateKind.SWAP, None),
        (GateKind.CPHASE, 2),
        (GateKind.GENERIC2, None),
    ):
        assert Gate(kind, (1, 2), param).qubits == (1, 2)
        with pytest.raises(ValueError, match="ascending"):
            Gate(kind, (2, 1), param)
        with pytest.raises(ValueError, match="ascending"):
            Gate(kind, (1, 2), param)._replace(qubits=(2, 1))
    assert Gate(GateKind.CNOT, (2, 1)).qubits == (2, 1)


def test_gates_are_validated_once_when_made(monkeypatch):
    gates = (h(0), cnot(2, 1), swap(0, 1), cphase(2, 1, 2))
    calls = []
    real = core.validate_gate
    monkeypatch.setattr(core, "validate_gate", lambda g: calls.append(g) or real(g))
    circuit = Circuit(3, gates)
    ScheduledCircuit(circuit, Architecture.lnn(3), (1, 0, 2))
    assert calls == []
    made = p(2)
    assert calls == [made]
    for make in (
        lambda: Gate(GateKind.CNOT, (1, 1)),
        lambda: Gate(GateKind.H, (0,), 3),
        lambda: cnot(0, 1)._replace(qubits=(1, 1)),
    ):
        with pytest.raises(ValueError):
            make()


def test_circuit_rejects_out_of_range_wires():
    with pytest.raises(ValueError):
        Circuit(2, (cnot(0, 2),))
    with pytest.raises(ValueError):
        Circuit(0, ())
    # each gate object is checked once, and the first offender is the one named
    good, bad = cnot(0, 1), cnot(0, 5)
    with pytest.raises(ValueError, match=r"uses wire 5 outside 0\.\.3"):
        Circuit(4, (good,) * 1000 + (bad,) * 3 + (cnot(6, 0),) + (bad,) * 3)
    with pytest.raises(ValueError, match=r"uses wire 6 outside 0\.\.3"):
        Circuit(4, (good,) * 1000 + (cnot(6, 0),) + (bad,) * 3)
    # a plain tuple equal to a Gate is still caught among copies of that Gate
    fake = tuple(h(0))
    assert fake == h(0)
    with pytest.raises(ValueError, match=r"is not a Gate"):
        Circuit(4, (h(0),) * 1000 + (fake, bad) + (h(0),) * 1000)


def test_circuit_keeps_a_tuple_not_the_callers_list():
    gates = [h(0), cnot(0, 1)]
    c = Circuit(2, gates)
    assert type(c.gates) is tuple
    assert hash(c) == hash(Circuit(2, (h(0), cnot(0, 1))))
    depth = c.depth()
    gates.append(cnot(0, 1))  # a later change to the list reaches neither gates nor metrics
    assert c.gates == (h(0), cnot(0, 1))
    assert c.depth() == depth == 2
    assert generic_depth(c) == 1
    t = (h(0), h(1))
    assert Circuit(2, t).gates is t  # a tuple is kept as is, not copied


def test_depth_counts_asap_layers():
    assert Circuit(1, ()).depth() == 0
    assert Circuit(2, (cnot(0, 1),)).depth() == 1
    c = Circuit(4, (cnot(0, 1), cnot(2, 3), cnot(1, 2)))
    at: list[int] = []
    core._layer_walk(c.gates, 4, at)
    assert at == [0, 0, 1]
    assert c.depth() == 2


def test_two_qubit_layer_count_skips_pure_one_qubit_layers():
    c = Circuit(2, (h(0), h(1), cnot(0, 1), h(0)))
    assert c.depth() == 3
    assert two_qubit_layer_count(c) == 1


def test_generic_depth_merges_trailing_swap():
    assert generic_depth(Circuit(2, (cnot(0, 1), swap(0, 1)))) == 1
    assert generic_depth(Circuit(2, (swap(0, 1),))) == 1
    # the second swap has no merge partner left
    assert generic_depth(Circuit(2, (cnot(0, 1), swap(0, 1), swap(0, 1)))) == 2
    # a gate on a shared wire in between blocks the merge
    assert generic_depth(Circuit(3, (cnot(0, 1), cnot(1, 2), swap(0, 1)))) == 3


def test_generic_depth_ignores_one_qubit_gates():
    assert generic_depth(Circuit(1, (h(0), p(0)))) == 0
    # a one-qubit gate between a unit and its swap does not split the unit
    assert generic_depth(Circuit(2, (cnot(0, 1), h(0), swap(0, 1)))) == 1


def test_generic_depth_parallel_units():
    assert generic_depth(Circuit(4, (generic2(0, 1), generic2(2, 3)))) == 1


def test_lnn_architecture_edges():
    arch = Architecture.lnn(4)
    assert arch.n_sites == 4
    assert arch.edges == {(0, 1), (1, 2), (2, 3)}
    assert max(map(len, arch.neighbours)) == 2


def test_grid_architecture_edges():
    arch = Architecture.grid(2, 3)
    assert arch.n_sites == 6
    assert len(arch.edges) == 7
    assert 3 in arch.neighbours[0] and 2 in arch.neighbours[1]
    assert 3 not in arch.neighbours[2]
    assert max(map(len, arch.neighbours)) == 3


def test_graph_architecture_requires_connectivity():
    Architecture.graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Architecture.graph(3, ((0, 1),))


def test_validate_on_flags_nonlocal_gate():
    arch = Architecture.lnn(3)
    report = validate_on(Circuit(3, (cnot(0, 1), cnot(0, 2))), arch)
    assert not report.ok
    assert report.violation.gate_index == 1
    assert report.violation.pair == (0, 2)
    assert validate_on(Circuit(3, (cnot(0, 1), h(2))), arch).ok


def test_scheduled_circuit_checks_final_map_and_locality():
    arch = Architecture.lnn(3)
    ok = Circuit(3, (swap(0, 1),))
    ScheduledCircuit(ok, arch, (1, 0, 2))
    with pytest.raises(ValueError):
        ScheduledCircuit(ok, arch, (0, 0, 2))
    with pytest.raises(ValueError):
        ScheduledCircuit(Circuit(3, (cnot(0, 2),)), arch, (0, 1, 2))


def test_swap_flow_map_tracks_wires():
    c = Circuit(3, (swap(0, 1), swap(1, 2)))
    assert swap_flow_map(c) == (2, 0, 1)
    assert swap_flow_map(Circuit(3, (cnot(0, 1),))) == (0, 1, 2)


def test_invert_permutation():
    assert invert_permutation((2, 0, 1)) == (1, 2, 0)
    assert invert_permutation(invert_permutation((3, 1, 0, 2))) == (3, 1, 0, 2)


def test_prune_trailing_swap_layers():
    arch = Architecture.lnn(3)
    sc = ScheduledCircuit(
        Circuit(3, (cnot(0, 1), swap(1, 2), swap(0, 1))),
        arch,
        swap_flow_map(Circuit(3, (swap(1, 2), swap(0, 1)))),
    )
    pruned = prune_trailing_swap_layers(sc)
    assert pruned.circuit.gates == (cnot(0, 1),)
    assert pruned.final_map == (0, 1, 2)

    kept = prune_trailing_swap_layers(
        ScheduledCircuit(Circuit(3, (swap(0, 1), cnot(1, 2))), arch, (1, 0, 2))
    )
    assert len(kept.circuit) == 2


def test_embed_chain_lnn_and_grid():
    assert embed_chain(Architecture.lnn(4)) == [0, 1, 2, 3]
    path = embed_chain(Architecture.grid(3, 3))
    assert path == [0, 1, 2, 5, 4, 3, 6, 7, 8]


def test_embed_chain_graph_search():
    arch = Architecture.graph(4, ((0, 2), (1, 2), (1, 3)))
    path = embed_chain(arch)
    assert sorted(path) == [0, 1, 2, 3]
    assert all(b in arch.neighbours[a] for a, b in zip(path, path[1:]))
    star = Architecture.graph(4, ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(ChainNotFoundError):
        embed_chain(star)
    # a path graph at MAX_WIRES: the search holds one frame per path site
    n = core.MAX_WIRES
    text = f"graph {n}\n" + "".join(f"edge {i} {i + 1}\n" for i in range(n - 1))
    assert embed_chain(parse_architecture(text)) == list(range(n))
    with pytest.raises(ChainNotFoundError, match="budget of 100 expansions"):
        embed_chain(parse_architecture(text), node_budget=100)


def test_parse_emit_circuit_roundtrip():
    c = Circuit(
        4,
        (h(0), p(3), cnot(2, 1), cz(0, 3), swap(1, 2), cphase(3, 0, 2), generic2(1, 3)),
    )
    text = emit_circuit(c)
    assert parse_circuit(text) == c
    commented = "# header comment\n" + text + "  # trailing\n"
    assert parse_circuit(commented) == c
    # a comment may end any line
    assert parse_circuit("qubits 2  # two wires\nh 0 # note\ncnot 0 1#\n") == Circuit(2, (h(0), cnot(0, 1)))
    # every generator's output
    n, rng = 7, Random(11)
    makers = (lambda a, b: cnot(b, a), cz, lambda a, b: cphase(a + b + 1, a, b), generic2)
    payload = {pair: makers[i % 4](*pair) for i, pair in enumerate(all_pairs(n))}
    a = GF2Matrix.random_nonsingular(n, rng)
    d = random_decomposition(n, rng)
    syndrome = steane_syndrome()
    for c in (
        schedule_lnn(SkeletonSpec(n, payload=payload)).circuit,
        qft_lnn(QftSpec(n)).circuit,
        qft_lnn(QftSpec(n, 3)).circuit,
        qft_flat(QftSpec(12)),  # two-digit phase parameters
        synthesize_lnn(a).circuit,
        prune_trailing_swap_layers(synthesize_lnn(a)).circuit,
        expand_to_cnot(synthesize_lnn(a)).circuit,
        schedule_stabilizer(d).circuit,
        stabilizer_flat(d),
        css_schedule_lnn(syndrome).circuit,
        css_flat(syndrome),
    ):
        assert parse_circuit(emit_circuit(c)) == c


def test_parse_circuit_error_reporting():
    with pytest.raises(ParseError):
        parse_circuit("h 0\n")  # missing header
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 2\nfrob 0 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ncnot 1 1\n")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ncphase 0 1\n")  # k missing
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\nh 5\n")
    # each distinct line is checked once; errors still name the line at fault
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 2\nh 0\ncnot 1 1\ncnot 1 1\n")
    assert err.value.line == 3  # the first copy of the repeated bad line
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 2\n" + "cnot 0 1\n" * 1000 + "cnot 0 x\n")
    assert err.value.line == 1002
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 2\n" + "h 0\ncz 0 2\n" * 3)
    assert err.value.line == 3
    assert len(parse_circuit("qubits 3\ncz 0 2\n")) == 1
    with pytest.raises(ParseError) as err:  # nothing carries over between calls
        parse_circuit("qubits 2\ncz 0 2\n")
    assert err.value.line == 2


def test_parse_circuit_validates_each_distinct_line_once(monkeypatch):
    text = emit_circuit(schedule_lnn(SkeletonSpec(16)).circuit)
    distinct = set(text.splitlines()[1:])
    calls, scans = [], []
    real, real_scan = core.validate_gate, Circuit.__post_init__
    monkeypatch.setattr(core, "validate_gate", lambda g: calls.append(g) or real(g))
    monkeypatch.setattr(Circuit, "__post_init__", lambda c: scans.append(c) or real_scan(c))
    c = parse_circuit(text)
    assert len(calls) == len(distinct) < len(c.gates)
    assert len({id(g) for g in c.gates}) == len(distinct)  # copies share one Gate
    assert scans == []  # the checked gates are kept, and no position is scanned again
    monkeypatch.undo()
    assert c == Circuit(c.n_wires, c.gates) and c._distinct == Circuit(c.n_wires, c.gates)._distinct
    # copies that differ only in spacing or a comment: one validation per content, one shared Gate
    rng = Random(5)
    head, *body = text.splitlines()
    dressed = [
        rng.choice(("", " ", "\t")) + line.replace(" ", rng.choice((" ", "  ", "\t"))) + rng.choice(("", " ", " # c", "#"))
        for line in body
    ]
    assert len(set(dressed)) > 2 * len(distinct)
    calls.clear()
    monkeypatch.setattr(core, "validate_gate", lambda g: calls.append(g) or real(g))
    c2 = parse_circuit("\n".join([head, *dressed]) + "\n")
    assert c2 == c and len(calls) == len(distinct)
    assert len({id(g) for g in c2.gates}) == len(distinct)


@pytest.mark.parametrize(
    "parse, text, line, reason",
    [
        (parse_circuit, "qubits x\nh 0\n", 1, "bad wire count"),
        (parse_architecture, "# arch\nlnn 3\nedge 0 1\n", 3, "unexpected line"),
        (parse_architecture, "graph 3\nedge 0 1\nedge 1\n", 3, "expected 'edge a b'"),
        (parse_architecture, "graph 3\nedge 0 1\nbridge 1 2\n", 3, "expected 'edge a b'"),
        (parse_architecture, "graph 3\nedge 0 1\nedge 1 x\n", 3, "invalid literal"),
        (parse_css, "css encode 1 2\n.x\nzy\n", 3, ". x z"),
        (parse_css, "css syndrome 1 2\nx.\nhadamard\n", 3, "hadamard MASK"),
        (parse_css, "css syndrome 1 2\nx.\nhadamard 100\nhadamard 100\n", 3, "hadamard MASK"),
        (parse_css, "css syndrome 1 2\nx.\nhadamard 10\n", 3, "3 characters of 0/1"),
        (parse_gf2, "gf2 3\n100\n010\n", 1, "expected 3 rows"),
        (parse_skeleton, "skeleton 3\nabsent 0 1\nremove 0 2\n", 3, "expected 'absent a b'"),
        (parse_stab, "stab 1\nstage h\n1\nstage p\n1\n", 4, "expected 'stage c'"),
        (parse_stab, "stab 2\nstage h\n10\nstage c\n10\n", 4, "needs 2 row"),
    ],
    ids=[
        "circuit-wire-count",
        "lnn-second-line",
        "edge-short",
        "edge-keyword",
        "edge-not-int",
        "css-type-row",
        "css-hadamard-no-mask",
        "css-second-hadamard",
        "css-hadamard-short-mask",
        "gf2-few-rows",
        "skeleton-unknown-line",
        "stab-wrong-stage",
        "stab-short-block",
    ],
)
def test_parsers_reject_at_the_line_at_fault(parse, text, line, reason):
    """Each reject path of the text parsers, at the line and for the reason at fault."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line and reason in err.value.reason


def test_oversized_headers_fail_at_line_one():
    too_many = core.MAX_WIRES + 1
    headers = {  # a wrong keyword, then a size past MAX_WIRES
        parse_circuit: ("qubit 3\nh 0", "qubits 99999999999\nh 0"),
        parse_architecture: ("mesh 4", "lnn 99999999999", "grid 64 64", "graph 99999999999\nedge 0 1"),
        parse_skeleton: ("skel 3", f"skeleton {too_many}"),
        parse_gf2: ("gf 1\n1", f"gf2 {too_many}\n1"),
        parse_stab: ("stabilizer 1", f"stab {too_many}"),
        parse_css: ("csss encode 1 1\n.\n.", f"css syndrome {too_many} 1\n."),
    }
    for parse, texts in headers.items():
        for text in ("", "\n  \n", "# only a comment\n   # and another", *texts):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.line == 1, (parse.__name__, text)
    assert parse_architecture(f"lnn {core.MAX_WIRES}").n_sites == core.MAX_WIRES


def test_parse_architecture_forms():
    for text, arch in (
        ("lnn 5\n", Architecture.lnn(5)),
        ("grid 2 4\n", Architecture.grid(2, 4)),
        ("graph 3\nedge 0 1\nedge 0 2\nedge 1 2\n", Architecture.graph(3, ((0, 1), (1, 2), (0, 2)))),
    ):
        assert parse_architecture(text) == arch
    with pytest.raises(ParseError):
        parse_architecture("mesh 4\n")
    for text in ("graph 3\nedge 0 1\nedge 1 x", "graph 3\nedge 0 1\nedge 1 7", "graph 3\nedge 0 1\nedge 1 1"):
        with pytest.raises(ParseError) as err:
            parse_architecture(text)
        assert err.value.line == 3, text


def test_to_qasm_output():
    c = Circuit(3, (h(0), p(1), cnot(0, 1), cphase(2, 1, 2)))
    text = to_qasm(c)
    assert "OPENQASM 2.0" in text
    assert "s q[1];" in text
    assert "cx q[0],q[1];" in text
    assert "cu1(pi/2)" in text
    with pytest.raises(ValueError):
        to_qasm(Circuit(2, (generic2(0, 1),)))
