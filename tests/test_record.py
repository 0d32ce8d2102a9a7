"""The sublayer record that generated schedules carry, against the gate walks.

Every builder hands `core._known_circuit` the (size, class) of each payload,
SWAP and mask sublayer it emits. A generated schedule's layer metrics, CNOT
depth and CNOT expansion are read off that record one slot (a SWAP and the
payload on its pair) at a time, and its stage tags off the record too:
neither `_layer_walk` nor `_fold_walk` runs. Circuits without a record
(parsed text, flat references, CNOT expansions, pruned schedules, skeletons
with a SWAP payload or under `drop_last_swaps`) are still walked gate by
gate for their metrics. Their tags come from the same stage reader, off a
record of their class runs (`core._class_runs`), unless at most one
two-qubit class is present: such a circuit has no cut, and its tags are its
plain two-qubit layers. Every reading, and
`test_layering.ref_classify_layers`, must give the same tags, and the slot
reader the same metrics and expansion as the walks. A CNOT expansion
arrives with its depth and CNOT depth, and one that holds only CNOTs with
every layer metric; each must equal a fresh copy's.
"""

from random import Random

import pytest
from test_layering import _random_circuit, ref_classify_layers

from chainforge import core
from chainforge.bounds import classify_layers, stage_audit
from chainforge.core import (
    Architecture,
    Circuit,
    GateKind,
    ScheduledCircuit,
    cnot,
    cphase,
    cz,
    emit_circuit,
    generic_depth,
    h,
    p,
    parse_circuit,
    prune_trailing_swap_layers,
    swap,
    two_qubit_layer_count,
)
from chainforge.css import CssGate, CssMode, CssSpec, css_flat, css_schedule_lnn
from chainforge.linsynth import GF2Matrix, expand_circuit_to_cnot, expand_to_cnot, synthesize_lnn
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, all_pairs, schedule_lnn
from chainforge.stabilizer import random_decomposition, schedule_stabilizer, stabilizer_flat

SEED = 20261020
_CLASS = {"1": None, "L": "L", "S": "S"}


def _skeleton_spec(n: int, rng: Random, swaps: int = 0) -> SkeletonSpec:
    """Random absent slots and payloads: CNOTs both ways, CZs and phases, with SWAPs among them
    (swaps=1) or as the only payload (swaps=2)."""
    absent, payload = set(), {}
    for a, b in all_pairs(n):
        pick = rng.randrange(6)
        if pick == 0:
            absent.add((a, b))
        elif swaps == 2 or swaps and pick == 4:
            payload[a, b] = swap(*rng.sample((a, b), 2))
        elif pick == 1:
            payload[a, b] = cnot(*rng.sample((a, b), 2))
        elif pick == 2:
            payload[a, b] = cz(a, b)
        elif pick == 3:
            payload[a, b] = cphase(rng.randint(1, 5), a, b)
    return SkeletonSpec(n, frozenset(absent), payload)


def _cnot_skeleton(n: int, rng: Random) -> SkeletonSpec:
    """A CNOT payload, either way, or an absent slot at each pair; the last slot (n - 2, n - 1) has a CNOT,
    so under `drop_last_swaps` the schedule ends on a payload with no SWAP after it."""
    pairs = [(a, b) for a, b in all_pairs(n) if (a, b) != (n - 2, n - 1)]
    absent = {pair for pair in pairs if rng.random() < 0.5}
    payload = {(a, b): cnot(*rng.sample((a, b), 2)) for a, b in [*pairs, (n - 2, n - 1)] if (a, b) not in absent}
    return SkeletonSpec(n, frozenset(absent), payload)


def _css_spec(mode: CssMode, n: int, mask: bool, rng: Random) -> CssSpec:
    extra = mode is CssMode.ENCODE
    s = rng.randint(1, n - 1 - extra)
    t = n - s - extra
    rows = tuple(tuple(rng.choice(tuple(CssGate)) for _ in range(t)) for _ in range(s + extra))
    return CssSpec(mode, s, t, rows, rng.getrandbits(n) if mask else 0)


def _generated(n: int, rng: Random) -> list[tuple[str, Circuit]]:
    """(name, circuit) for every generated family at n wires."""
    out = []
    for swaps in (0, 1, 2) if n >= 2 else ():
        spec = _skeleton_spec(n, rng, swaps)
        swapped = any(g.kind is GateKind.SWAP for g in spec.payload.values())
        out += [(f"skeleton swap-payload={swapped} drop={drop}", schedule_lnn(spec, drop).circuit)
                for drop in (False, True)]
    if n >= 2:
        spec = _cnot_skeleton(n, rng)
        out += [(f"skeleton cnot drop={drop}", schedule_lnn(spec, drop).circuit) for drop in (False, True)]
    thresholds = [None, *range(1, n + 1)] if n <= 9 else [None, rng.randint(1, n)]
    out += [(f"qft m={m}", qft_lnn(QftSpec(n, m)).circuit) for m in thresholds]
    out.append(("linsynth", synthesize_lnn(GF2Matrix.random_nonsingular(n, rng)).circuit))
    out.append(("stab", schedule_stabilizer(random_decomposition(n, rng)).circuit))
    for mode in CssMode:
        if n >= 2 + (mode is CssMode.ENCODE):
            out += [(f"css {mode.value} mask={mask}", css_schedule_lnn(_css_spec(mode, n, mask, rng)).circuit)
                    for mask in (False, True)]
    return out


def _has_record(name: str) -> bool:
    """Whether a `_generated` schedule carries a record: a skeleton with a SWAP payload or under
    `drop_last_swaps` has none."""
    return "swap-payload=True" not in name and "drop=True" not in name


def _check_record(name: str, c: Circuit) -> None:
    """The record covers the gates, each sublayer is one class on pairwise disjoint wires, and no 'S'
    is empty: an empty one would skip its stage's payload in the slot reader."""
    assert c._sublayers is not None, name
    assert sum(size for size, _ in c._sublayers) == len(c.gates), name
    end = 0
    for size, kind in c._sublayers:
        assert size or kind != "S", name
        gates, end = c.gates[end : end + size], end + size
        classes = {None if len(g.qubits) == 1 else "S" if g.kind is GateKind.SWAP else "L" for g in gates}
        assert classes <= {_CLASS[kind]}, (name, kind, gates)
        wires = [q for g in gates for q in g.qubits]
        assert len(wires) == len(set(wires)), (name, gates)


def _cut(c: Circuit) -> list[tuple[int, str]]:
    """The cut reading of the same gates: a public Circuit carries no record."""
    return classify_layers(Circuit(c.n_wires, c.gates))


def _check_pairing(name: str, c: Circuit) -> None:
    """The record is '1' sublayers and stages, a stage being an 'L' right before an 'S', and the payload
    pairs are an in-order subsequence of the SWAP pairs."""
    record, starts = list(c._sublayers), [0]
    for size, _ in record:
        starts.append(starts[-1] + size)
    for i, (size, kind) in enumerate(record):
        if kind == "S":
            assert i and record[i - 1][1] == "L", (name, i)
        elif kind == "L":
            assert i + 1 < len(record) and record[i + 1][1] == "S", (name, i)
            payload = [tuple(sorted(g.qubits)) for g in c.gates[starts[i] : starts[i + 1]]]
            swaps = iter([g.qubits for g in c.gates[starts[i + 1] : starts[i + 2]]])
            assert all(pair in swaps for pair in payload), (name, i, payload)  # `in` consumes `swaps`


_READS = (Circuit.depth, two_qubit_layer_count, generic_depth, Circuit.cnot_depth, classify_layers)


def _check_slots(name: str, c: Circuit) -> None:
    """The slot reader's depth, two-qubit layer count and generic depth equal the layer walk's, its CNOT depth
    the fold walk's, and every public metric read equals an unrecorded copy's."""
    read = core._slot_walk(c.gates, c.n_wires, c._sublayers)
    assert read[:3] == core._layer_walk(c.gates, c.n_wires)[:3], name
    try:
        fold = core._fold_walk(c.gates, c.n_wires)
    except ValueError:  # a payload with no CNOT form: no CNOT depth
        assert c.cnot_depth() is None, name
    else:
        assert read[3] == fold == c.cnot_depth(), name
    copy = Circuit(c.n_wires, c.gates)
    for metric in _READS:
        assert metric(c) == metric(copy), (name, metric.__name__)


def _check_expansion(name: str, c: Circuit) -> None:
    """The expansion assembled from the slots is `_fold_walk(out=...)`'s on an unrecorded copy with the
    same distinct gates: the same gates in order, the same objects (each SWAP pair's CNOTs made once).
    Both arrive with the depth, two-qubit layer count, generic depth, CNOT depth and tags that a fresh
    unrecorded copy of the expanded gates computes."""
    walked = expand_circuit_to_cnot(core._known_circuit(c.n_wires, [(c.gates, c._distinct)]))
    read = expand_circuit_to_cnot(c)
    assert read.gates == walked.gates and read._distinct == walked._distinct, name
    kept = [g for g in c._distinct if g.kind is not GateKind.SWAP]  # the input's own objects come first
    assert all(x is y for x, y in zip(read._distinct, kept)), name
    at_read = {id(g): i for i, g in enumerate(read._distinct)}
    at_walked = {id(g): i for i, g in enumerate(walked._distinct)}
    assert [at_read[id(g)] for g in read.gates] == [at_walked[id(g)] for g in walked.gates], name
    fresh = Circuit(c.n_wires, read.gates)
    for metric in _READS:
        assert metric(read) == metric(walked) == metric(fresh), (name, metric.__name__)
    assert read.cnot_depth() == c.cnot_depth(), name


def test_record_tags_match_the_cut_and_the_reference():
    rng = Random(SEED)
    names = set()
    for n in range(1, 33):
        for name, c in _generated(n, rng):
            names.add(name)
            if _has_record(name):
                _check_record(name, c)
                _check_pairing(name, c)
            else:
                assert c._sublayers is None, name
            tags = classify_layers(c)
            assert tags == _cut(c) == ref_classify_layers(c), (name, n)
    assert {name.split()[0] for name in names} == {"skeleton", "qft", "linsynth", "stab", "css"}
    assert {f"qft m={m}" for m in (None, *range(1, 10))} <= names
    assert {f"skeleton swap-payload={swapped} drop=True" for swapped in (False, True)} <= names
    assert "skeleton cnot drop=True" in names


def test_slots_give_the_walks_metrics_and_expansion():
    """At n = 1..32 the slot reader's depth, two-qubit layers, generic depth, tags, CNOT depth and fold
    layers equal the gate walks', and each CNOT/SWAP schedule expands as `_fold_walk(out=...)` does.
    Among them: CNOT skeletons, and schedules with CZ, phase or generic payloads, whose CNOT depth is
    None."""
    rng = Random(SEED + 4)
    expanded, none = set(), set()
    for n in range(1, 33):
        for name, c in _generated(n, rng):
            if not _has_record(name):
                continue
            _check_slots(name, c)
            if c.cnot_depth() is None:
                none.add(name.split()[0])
            else:
                _check_expansion(name, c)
                expanded.add(name)
    assert {"skeleton cnot drop=False", "linsynth", "stab"} <= expanded
    assert {"skeleton", "qft", "css"} <= none


def test_a_record_with_no_one_qubit_gate_counts_every_layer():
    """ASAP leaves no layer below the depth empty, so a record with no non-empty '1' sublayer has as many
    two-qubit layers as layers (skeleton and linsynth schedules); the QFT's Hadamards keep its count at
    4n - 6 against a depth of 4n - 4."""
    rng = Random(SEED + 8)
    counted = set()
    for n in range(1, 33):
        for name, c in _generated(n, rng):
            if c._sublayers is not None and not any(size for size, kind in c._sublayers if kind == "1"):
                assert two_qubit_layer_count(c) == c.depth() == Circuit(c.n_wires, c.gates).depth(), (name, n)
                counted.add(name.split()[0])
            if name == "qft m=None" and n >= 2:
                assert (two_qubit_layer_count(c), c.depth()) == (4 * n - 6, 4 * n - 4), n
    assert {"skeleton", "linsynth"} <= counted and "stab" not in counted and "qft" not in counted


def test_a_swap_payload_takes_the_cut_reading():
    """A SWAP payload alone joins the SWAP stretches around its stage, and one beside other
    payloads splits its sublayer in two classes: either schedule carries no record."""
    for drop in (False, True):
        c = schedule_lnn(SkeletonSpec(2, payload={(0, 1): swap(0, 1)}), drop).circuit
        assert c._sublayers is None
        assert classify_layers(c) == ref_classify_layers(c) == [(0, "S"), (1, "S")][: 2 - drop]
    mixed = SkeletonSpec(4, payload={(0, 3): swap(0, 3), (1, 2): cnot(2, 1)})  # both in stage 3
    c = schedule_lnn(mixed).circuit
    assert c._sublayers is None
    assert classify_layers(c) == _cut(c) == ref_classify_layers(c)


@pytest.mark.parametrize("family", ["skeleton", "qft", "linsynth", "stab"])
def test_record_tags_at_the_benchmark_sizes(family):
    """The shape of each large_schedule instance: skeleton, QFT and linsynth at n = 256, stab at 128."""
    rng = Random(SEED)
    c = {
        "skeleton": lambda: schedule_lnn(SkeletonSpec(256)),
        "qft": lambda: qft_lnn(QftSpec(256)),
        "linsynth": lambda: synthesize_lnn(GF2Matrix.random_nonsingular(256, rng)),
        "stab": lambda: schedule_stabilizer(random_decomposition(128, rng)),
    }[family]().circuit
    _check_record(family, c)
    _check_pairing(family, c)
    assert classify_layers(c) == _cut(c)
    assert stage_audit(c).ok
    _check_slots(family, c)
    if family in ("linsynth", "stab"):
        _check_expansion(family, c)


def test_a_drop_last_swaps_schedule_carries_no_record():
    """Without its last SWAP the last payload has no SWAP to pair, so a `drop_last_swaps` skeleton, generic
    or CNOT, carries no record: its metrics, its tags and a CNOT skeleton's expansion are a parsed copy's."""
    rng = Random(SEED + 9)
    for n in range(2, 13):
        for spec in (_skeleton_spec(n, rng), _cnot_skeleton(n, rng)):
            dropped = schedule_lnn(spec, drop_last_swaps=True).circuit
            copy = parse_circuit(emit_circuit(dropped))
            assert dropped._sublayers is None and dropped.gates == schedule_lnn(spec).circuit.gates[:-1], n
            assert [metric(dropped) for metric in _READS] == [metric(copy) for metric in _READS], n
            assert classify_layers(dropped) == ref_classify_layers(dropped), n
            if dropped.cnot_depth() is not None:
                read, walked = expand_circuit_to_cnot(dropped), expand_circuit_to_cnot(copy)
                assert read.gates == walked.gates, n
                assert [metric(read) for metric in _READS] == [metric(walked) for metric in _READS], n


def test_readers_without_a_record_take_the_cut_reading():
    rng = Random(SEED + 1)
    for n in (1, 2, 5, 9):
        d, a = random_decomposition(n, rng), GF2Matrix.random_nonsingular(n, rng)
        css = _css_spec(CssMode.SYNDROME, n, True, rng) if n >= 2 else None
        unrecorded = [qft_flat(QftSpec(n)), stabilizer_flat(d), expand_to_cnot(synthesize_lnn(a)).circuit]
        unrecorded += [prune_trailing_swap_layers(synthesize_lnn(a)).circuit]
        unrecorded += [css_flat(css)] if css else []
        unrecorded += [parse_circuit(emit_circuit(c)) for _, c in _generated(n, rng)]
        for c in unrecorded:
            assert c._sublayers is None
            assert classify_layers(c) == ref_classify_layers(c), c


def _spy(monkeypatch) -> list[tuple[str, int, bool]]:
    """Each `_layer_walk` call as ("layer", gate count, whether it lists each gate's layer), and each
    `_fold_walk` call as ("fold", gate count, whether it expands)."""
    calls, layer_walk, fold_walk = [], core._layer_walk, core._fold_walk

    def spied_layers(gates, n_wires, out=None):
        calls.append(("layer", len(gates), out is not None))
        return layer_walk(gates, n_wires, out)

    def spied_fold(gates, n_wires, out=None, three_on=None):
        calls.append(("fold", len(gates), out is not None))
        return fold_walk(gates, n_wires, out, three_on)

    monkeypatch.setattr(core, "_layer_walk", spied_layers)
    monkeypatch.setattr(core, "_fold_walk", spied_fold)
    return calls


def _read_all(c: Circuit) -> None:
    """Every metric, the audit and, where there is one, the CNOT expansion and its depth."""
    c.depth(), generic_depth(c), two_qubit_layer_count(c), c.cnot_depth(), stage_audit(c)
    if c.cnot_depth() is not None:
        expand_to_cnot(ScheduledCircuit(c, Architecture.lnn(c.n_wires), tuple(range(c.n_wires)))).circuit.depth()


def _two_qubit_classes(c: Circuit) -> set[bool]:
    """Whether each two-qubit gate is a SWAP, as a set: its size is the number of two-qubit classes."""
    return {g.kind is GateKind.SWAP for g in c.gates if len(g.qubits) == 2}


def test_a_generated_schedule_runs_no_walk_and_its_parsed_copy_one(monkeypatch):
    """A generated schedule runs neither gate walk for any metric, its audit or its CNOT expansion.
    Its parsed copy runs `_layer_walk` once across all its metrics and its audit together, the audit
    alone none when both two-qubit classes are present, and, if each gate has a CNOT form, the fold
    walk twice (CNOT depth, then the expansion); a gate kind with none makes the CNOT depth None
    unwalked."""
    rng = Random(SEED + 2)
    schedules = [c for name, c in _generated(12, rng) if _has_record(name)]
    parsed = [parse_circuit(emit_circuit(c)) for c in schedules]
    calls = _spy(monkeypatch)
    for c, copy in zip(schedules, parsed):
        _read_all(c)
        assert calls == [], calls
        walk = [("layer", len(c.gates), False)]
        assert stage_audit(copy) == stage_audit(c)
        assert calls == walk * (len(_two_qubit_classes(c)) < 2), calls
        _read_all(copy)
        folds = [("fold", len(c.gates), False), ("fold", len(c.gates), True)] * (c.cnot_depth() is not None)
        assert calls == walk + folds, calls
        calls.clear()


def test_an_expansion_arrives_with_what_its_reads_need(monkeypatch):
    """A CNOT-only expansion (linsynth, CNOT skeletons) runs no walk for any read, its audit included.
    One that holds one-qubit gates (stab, the QFT at m = 1) reads its depth and CNOT depth with no walk, and its
    two-qubit layer count with one `_layer_walk` that serves its generic depth and tags too. Both hold for
    the expansion of a generated schedule and of its unrecorded copy, and every read equals a fresh copy's."""
    rng = Random(SEED + 7)
    expansions = []
    for n in (2, 5, 12):
        for name, c in _generated(n, rng):
            if "swap-payload=True" not in name and c.cnot_depth() is not None:
                copy = core._known_circuit(c.n_wires, [(c.gates, c._distinct)])
                for e in (expand_circuit_to_cnot(c), expand_circuit_to_cnot(copy)):
                    fresh = Circuit(e.n_wires, e.gates)
                    expansions.append((name, e, [metric(fresh) for metric in _READS] + [stage_audit(fresh)]))
    calls, seen = _spy(monkeypatch), set()
    for name, e, want in expansions:
        one_qubit = any(len(g.qubits) == 1 for g in e.gates)
        assert (e.depth(), e.cnot_depth()) == (want[0], want[3]) and calls == [], name
        walk = [("layer", len(e.gates), False)] * one_qubit
        assert two_qubit_layer_count(e) == want[1] and calls == walk, name
        assert [metric(e) for metric in _READS] + [stage_audit(e)] == want and calls == walk, name
        seen.add((name.split()[0], one_qubit))
        calls.clear()
    assert {("linsynth", False), ("skeleton", False), ("stab", True), ("qft", True)} <= seen, seen


def _circuits() -> list[Circuit]:
    """Seeded random circuits plus hand-made edges: one-qubit gates between stretches, an empty
    payload stage (two SWAP stages in a row), SWAP-only and SWAP-free circuits."""
    rng = Random(SEED + 3)
    fixed = [
        Circuit(3),
        Circuit(4, (h(0), swap(0, 1), p(1), h(2), cnot(2, 3), h(3), swap(2, 3), swap(1, 2))),
        Circuit(4, (swap(0, 1), swap(2, 3), swap(1, 2), swap(0, 1), swap(2, 3))),
        Circuit(4, (cnot(0, 1), cz(2, 3), h(1), cphase(2, 1, 2), cnot(3, 2))),
        Circuit(2, (h(0), p(1), h(1))),
    ]
    return fixed + [_random_circuit(rng) for _ in range(300)]


def test_the_class_runs_read_as_the_reference():
    """A record of the class runs, each run's first gate alone then the rest, read by the one stage
    reader gives `ref_classify_layers`'s tags whichever two-qubit classes a circuit holds: on the
    hand-made edges, seeded circuits and parsed copies of every generated family."""
    rng = Random(SEED + 6)
    parsed = [parse_circuit(emit_circuit(c)) for n in (2, 5, 9) for _, c in _generated(n, rng)]
    for c in _circuits() + parsed:
        record = core._class_runs(c.gates)
        assert sum(size for size, _ in record) == len(c.gates), c
        as_runs = core._known_circuit(c.n_wires, [(c.gates, c._distinct)], record)
        assert classify_layers(as_runs) == classify_layers(c) == ref_classify_layers(c), c


def test_the_no_cut_rule_is_taken_exactly_with_one_two_qubit_class(monkeypatch):
    """A circuit without a record and with at most one two-qubit class is never cut: its tags alone run
    `_layer_walk` and are its plain two-qubit layers, in that class. With both classes they run no walk.
    Among the circuits: the edges and seeded ones with their SWAPs and without, CNOT expansions, SWAP-
    stripped text and flat references."""
    rng = Random(SEED + 5)
    circuits = _circuits()
    circuits += [Circuit(c.n_wires, [g for g in c.gates if g.kind is not GateKind.SWAP]) for c in circuits]
    for n in (1, 2, 5, 9):
        a, d = GF2Matrix.random_nonsingular(n, rng), random_decomposition(n, rng)
        circuits += [expand_to_cnot(synthesize_lnn(a)).circuit, expand_to_cnot(schedule_stabilizer(d)).circuit]
        stripped = emit_circuit(qft_lnn(QftSpec(n)).circuit).replace("swap", "#")  # SWAP lines as comments
        circuits += [qft_flat(QftSpec(n)), parse_circuit(stripped)]
        circuits += [css_flat(_css_spec(CssMode.SYNDROME, n, True, rng))] if n >= 2 else []
    calls, taken = _spy(monkeypatch), [0, 0, 0]
    for c in circuits:
        classes = len(_two_qubit_classes(c))
        assert classify_layers(Circuit(c.n_wires, c.gates)) == ref_classify_layers(c), c
        assert calls == [("layer", len(c.gates), False)] * (classes < 2), c
        taken[classes] += 1
        calls.clear()
    assert min(taken) > 10, taken  # no two-qubit gate, one class (SWAP-only among them), both


def test_one_sublayer_per_gate_reads_as_the_cut():
    """A record of one sublayer per gate is a stage record of any circuit and its tags read as its cut
    (its stages break the pairing promise, so only the tags are checked)."""
    for c in _circuits():
        record = [(1, "1" if len(g.qubits) == 1 else "S" if g.kind is GateKind.SWAP else "L") for g in c.gates]
        recorded = core._known_circuit(c.n_wires, [(c.gates, c.gates)], record)
        assert classify_layers(recorded) == classify_layers(c) == ref_classify_layers(c), c


def test_a_parsed_copy_equals_its_schedule_and_keeps_its_tags():
    """Equality ignores the record: a generated schedule equals its parsed copy."""
    for n in (2, 6):
        for _, c in _generated(n, Random(n)):
            copy = parse_circuit(emit_circuit(c))
            assert copy == c and hash(copy) == hash(c)
            assert classify_layers(copy) == classify_layers(c)
            layers = [layer for layer, _ in classify_layers(c)]
            assert layers == sorted(set(layers))
