"""The layer metrics against the loops they replaced.

The reference functions below are the layering code as it stood before
`core.asap_layers` existed, copied unchanged apart from their names, two
docstrings, and `depth` taken off the class; `ref_prune` is the
`prune_trailing_swap_layers` body from before it read `asap_layers`. Every
layer metric must agree with them on seeded random circuits, whichever
metric reads a circuit first. A circuit computes its metrics in two memoized
walks: one over the gates as written (depth, two-qubit layers, generic depth;
with a list, also each gate's plain layer, which is not memoized) and a
fold-aware one (CNOT depth). Its stage tags come from `core._stage_tags`,
off its class runs, or off the first walk's plain two-qubit layers when at
most one two-qubit class is present. A CNOT expansion arrives with its depth
and CNOT depth, and with every layer metric when it holds only CNOTs.
"""

from itertools import combinations
from random import Random

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
    generic2,
    generic_depth,
    h,
    invert_permutation,
    p,
    prune_trailing_swap_layers,
    swap,
    two_qubit_layer_count,
)
from chainforge.linsynth import expand_circuit_to_cnot

SEED = 20261019
N_CIRCUITS = 400


# --- reference implementations ----------------------------------------------


def ref_depth(self) -> int:
    free: dict[int, int] = {}
    d = 0
    for g in self.gates:
        layer = 1 + max((free.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            free[q] = layer
        if layer > d:
            d = layer
    return d


def ref_layers(circuit: Circuit) -> list[list[int]]:
    """ASAP layering; returns gate indices grouped by layer."""
    free: dict[int, int] = {}
    out: list[list[int]] = []
    for i, g in enumerate(circuit.gates):
        layer = max((free.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            free[q] = layer + 1
        if layer == len(out):
            out.append([])
        out[layer].append(i)
    return out


def ref_prune(sc: ScheduledCircuit) -> ScheduledCircuit:
    """Drop trailing all-SWAP layers and undo the dropped SWAPs, last first, on final_map."""
    grouped = ref_layers(sc.circuit)
    keep = len(grouped)
    while keep > 0 and all(
        sc.circuit.gates[i].kind is GateKind.SWAP for i in grouped[keep - 1]
    ):
        keep -= 1
    kept_indices = sorted(i for layer in grouped[:keep] for i in layer)
    circuit = Circuit(sc.circuit.n_wires, tuple(sc.circuit.gates[i] for i in kept_indices))
    wire_at = list(invert_permutation(sc.final_map))  # site -> wire after the whole circuit
    for i in sorted((i for layer in grouped[keep:] for i in layer), reverse=True):
        a, b = sc.circuit.gates[i].qubits
        wire_at[a], wire_at[b] = wire_at[b], wire_at[a]
    return ScheduledCircuit(circuit, sc.arch, invert_permutation(wire_at))


def ref_gate_layers(circuit: Circuit) -> list[int]:
    """Each gate's layer, read off the reference grouping."""
    at = [0] * len(circuit.gates)
    for layer, indices in enumerate(ref_layers(circuit)):
        for i in indices:
            at[i] = layer
    return at


def gate_layers(circuit: Circuit) -> list[int]:
    at: list[int] = []
    core._layer_walk(circuit.gates, circuit.n_wires, at)
    return at


def ref_two_qubit_layer_count(circuit: Circuit) -> int:
    """Number of ASAP layers that contain at least one two-qubit gate."""
    count = 0
    for layer in ref_layers(circuit):
        if any(len(circuit.gates[i].qubits) == 2 for i in layer):
            count += 1
    return count


def ref_generic_depth(circuit: Circuit) -> int:
    units: list[tuple[int, int]] = []
    last_on_wire: dict[int, int] = {}
    fusable: dict[tuple[int, int], int] = {}
    for g in circuit.gates:
        if len(g.qubits) != 2:
            continue
        pair = (min(g.qubits), max(g.qubits))
        if g.kind is GateKind.SWAP:
            k = fusable.get(pair)
            if k is not None and last_on_wire[pair[0]] == k and last_on_wire[pair[1]] == k:
                del fusable[pair]  # the swap joins the preceding gate's unit
                continue
        idx = len(units)
        units.append(pair)
        last_on_wire[pair[0]] = idx
        last_on_wire[pair[1]] = idx
        if g.kind is GateKind.SWAP:
            fusable.pop(pair, None)
        else:
            fusable[pair] = idx
    free: dict[int, int] = {}
    d = 0
    for a, b in units:
        layer = 1 + max(free.get(a, 0), free.get(b, 0))
        free[a] = layer
        free[b] = layer
        if layer > d:
            d = layer
    return d


def ref_classify_layers(circuit: Circuit) -> list[tuple[int, str]]:
    runs: list[list] = []
    flavors: list[str | None] = []
    for gate in circuit.gates:
        kind = None
        if len(gate.qubits) == 2:
            kind = "S" if gate.kind is GateKind.SWAP else "L"
        if not runs or (kind is not None and flavors[-1] is not None and flavors[-1] != kind):
            runs.append([gate])
            flavors.append(kind)
        else:
            runs[-1].append(gate)
            if flavors[-1] is None:
                flavors[-1] = kind
    out: list[tuple[int, str]] = []
    index = 0
    for run in runs:
        piece = Circuit(circuit.n_wires, tuple(run))
        for layer in ref_layers(piece):
            kinds = {run[g].kind for g in layer if len(run[g].qubits) == 2}
            if kinds:
                out.append((index, "L" if kinds - {GateKind.SWAP} else "S"))
            index += 1
    return out


# --- random circuits ----------------------------------------------------------


def _random_gate(flavor: str, n: int, rng: Random):
    if flavor == "1q" or n == 1:
        return rng.choice((h, p))(rng.randrange(n))
    a, b = rng.sample(range(n), 2)
    if flavor == "swap":
        return swap(a, b)
    pick = rng.randrange(4)
    if pick == 0:
        return cnot(a, b)  # a random order covers both directions
    if pick == 1:
        return cz(a, b)
    if pick == 2:
        return cphase(rng.randint(1, 4), a, b)
    return generic2(a, b)


def _random_circuit(rng: Random) -> Circuit:
    """Stretches of one flavor each: SWAPs, non-SWAP pairs or one-qubit gates.

    One-qubit stretches land at the very start and between SWAP and non-SWAP
    stretches; some stretches repeat one pair, so SWAPs fuse with a gate.
    """
    n = rng.randint(1, 12)
    gates = []
    for _ in range(rng.randint(0, 8)):
        flavor = rng.choice(("1q", "swap", "other"))
        if flavor != "1q" and n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            gates.extend(rng.choice((cnot(a, b), cnot(b, a), swap(a, b)))
                         for _ in range(rng.randint(1, 4)))
        else:
            gates.extend(_random_gate(flavor, n, rng) for _ in range(rng.randint(1, 2 * n)))
    return Circuit(n, tuple(gates))


def _circuits() -> list[Circuit]:
    rng = Random(SEED)
    fixed = [
        Circuit(1),
        Circuit(5),
        Circuit(3, (h(0), p(2), cnot(0, 1), swap(1, 2), h(1), cnot(2, 1))),
        Circuit(4, (cnot(0, 1), swap(0, 1), h(0), p(3), swap(2, 3), cz(1, 2), swap(1, 2))),
        # a cut at every stretch, one-qubit gates on both sides of each cut, some on wires
        # below the top at the last cut and some raising the top before the next
        Circuit(4, (h(0), h(0), h(0), cnot(1, 2), swap(2, 3), h(1), swap(0, 1), p(3), cz(2, 3),
                    h(0), h(0), swap(1, 2), cnot(3, 0), h(2), swap(0, 1), cphase(2, 1, 3), p(1))),
        Circuit(3, (s := swap(0, 1), cnot(1, 2), s)),  # one SWAP object in a kept layer and in a pruned one
    ]
    return fixed + [_random_circuit(rng) for _ in range(N_CIRCUITS)]


def test_kernel_metrics_match_the_reference_loops():
    kinds_seen = set()
    pruned, rng = 0, Random(71)
    for c in _circuits():
        kinds_seen.update(g.kind for g in c.gates)
        assert c.depth() == ref_depth(c), c
        assert gate_layers(c) == ref_gate_layers(c), c
        assert two_qubit_layer_count(c) == ref_two_qubit_layer_count(c), c
        assert generic_depth(c) == ref_generic_depth(c), c
        assert classify_layers(c) == ref_classify_layers(c), c
        # every pair is adjacent, so each circuit validates as a schedule
        all_pairs = Architecture.graph(c.n_wires, combinations(range(c.n_wires), 2))
        sc = ScheduledCircuit(c, all_pairs, tuple(rng.sample(range(c.n_wires), c.n_wires)))  # any final map
        want, got = ref_prune(sc), prune_trailing_swap_layers(sc)
        assert got == want, c
        assert sorted(map(id, got.circuit._distinct)) == sorted({id(g) for g in got.circuit.gates}), c  # by identity
        pruned += len(want.circuit) < len(c)
    assert kinds_seen == set(GateKind) and pruned > 0


def test_layering_builds_no_intermediate_circuit(monkeypatch):
    circuits = _circuits()
    made = [0]
    original = Circuit.__post_init__

    def counting(self):
        made[0] += 1
        original(self)

    monkeypatch.setattr(Circuit, "__post_init__", counting)
    for c in circuits:
        for metric in (Circuit.depth, gate_layers, two_qubit_layer_count, generic_depth, classify_layers):
            metric(c)
    assert made[0] == 0
    ref_classify_layers(circuits[2])  # the counter does see a Circuit being made
    assert made[0] > 0


METRICS = (Circuit.depth, gate_layers, two_qubit_layer_count, generic_depth, classify_layers)
REFERENCES = (ref_depth, ref_gate_layers, ref_two_qubit_layer_count, ref_generic_depth, ref_classify_layers)


def test_memoized_metrics_match_the_reference_in_every_call_order():
    circuits = _circuits()
    expected = [[ref(c) for ref in REFERENCES] for c in circuits]
    for shift in range(len(METRICS)):
        for c, want in zip(circuits, expected):
            fresh = Circuit(c.n_wires, c.gates)  # no metric read yet
            pairs = list(zip(METRICS, want))
            for metric, value in (pairs[shift:] + pairs[:shift]) * 2:  # the second round reads the memo
                assert metric(fresh) == value, (metric.__name__, shift, c)


def test_a_cnot_expansion_matches_the_reference_in_every_call_order():
    """An expansion arrives with its depth and CNOT depth, and one with no one-qubit gate with every
    layer metric preset; read in any order, each equals the reference. Among them: CNOT-only
    expansions and ones that hold one-qubit gates (where the rest takes a walk)."""
    circuits = [c for c in _circuits() if c.cnot_depth() is not None]
    kinds = set()
    for shift in range(len(METRICS)):
        for c in circuits:
            expanded = expand_circuit_to_cnot(c)
            kinds.add(any(len(g.qubits) == 1 for g in expanded.gates))
            pairs = [(metric, ref(expanded)) for metric, ref in zip(METRICS, REFERENCES)]
            for metric, value in (pairs[shift:] + pairs[:shift]) * 2:
                assert metric(expanded) == value, (metric.__name__, shift, c)
            assert expanded.cnot_depth() == expanded.depth() == c.cnot_depth(), c
    assert kinds == {False, True} and len(circuits) > N_CIRCUITS // 4, len(circuits)


def test_each_walk_runs_at_most_once_per_circuit(monkeypatch):
    calls = [0]
    walk = core._layer_walk

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(core, "_layer_walk", counted)
    reads = (Circuit.depth, two_qubit_layer_count, generic_depth, classify_layers, stage_audit)
    for c in _circuits():
        for shift in range(len(reads)):  # shift 4 reads the audit first
            fresh = Circuit(c.n_wires, c.gates)
            for metric in (reads[shift:] + reads[:shift]) * 2:
                metric(fresh)
            assert calls == [1], (shift, c)
            gate_layers(fresh)  # a per-gate list is not memoized: each call walks
            assert calls == [2], (shift, c)
            calls[0] = 0


def test_read_metrics_leave_equality_and_hash_alone():
    for c in _circuits():
        read = Circuit(c.n_wires, list(c.gates))
        for metric in METRICS:
            metric(read)
        fresh = Circuit(c.n_wires, c.gates)
        assert read == fresh and hash(read) == hash(fresh)
    c = Circuit(3, (cnot(0, 1), swap(1, 2)))
    tags = classify_layers(c)
    tags.append((9, "L"))  # each call returns a fresh list
    assert classify_layers(c) == [(0, "L"), (1, "S")]
