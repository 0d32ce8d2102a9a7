"""Circuit IR, coupling architectures, depth metrics, routing and text formats.

Conventions used across the package:

- wires are 0-based; wire 0 is the least significant bit of a basis index
- CNOT(c, t) maps x_t to x_t XOR x_c; symmetric two-qubit gates (cz, swap,
  cphase, g) store their wires as (min, max); validate_gate rejects any other order
- depth is greedy ASAP layering over the stored gate order: a gate sits one
  layer past the deepest layer that already touches any of its wires, and
  every gate counts toward depth regardless of arity
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, groupby, repeat
from operator import is_not, itemgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence


class GateKind(Enum):
    H = "h"
    P = "p"
    CNOT = "cnot"
    CZ = "cz"
    CPHASE = "cphase"
    SWAP = "swap"
    GENERIC2 = "g"

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ runs in Python


_ARITY = {kind: 1 if kind in (GateKind.H, GateKind.P) else 2 for kind in GateKind}
_CNOT_FORMS = {GateKind.H, GateKind.P, GateKind.CNOT, GateKind.SWAP}  # kinds `_fold_walk` expands
_CLASS = {kind: "1" if _ARITY[kind] == 1 else "S" if kind is GateKind.SWAP else "L" for kind in GateKind}  # stage class


class _GateFields(NamedTuple):
    kind: GateKind
    qubits: tuple[int, ...]
    param: int | None = None


class Gate(_GateFields):
    """A gate, checked by validate_gate whenever one is made (`_replace` too)."""

    __slots__ = ()

    def __new__(cls, kind: GateKind, qubits: tuple[int, ...], param: int | None = None) -> "Gate":
        g = tuple.__new__(cls, (kind, qubits, param))
        validate_gate(g)
        return g

    @classmethod
    def _make(cls, iterable: Iterable) -> "Gate":
        return cls(*iterable)


class ParseError(ValueError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


# Largest wire count a text header or CLI size flag may ask for: 4x the largest
# n any test or workload uses (256), where O(n^2)-gate schedules reach ~1e6 gates.
MAX_WIRES = 1024
# Most gate lines a circuit text may hold; the stabilizer schedule at n = MAX_WIRES has ~10.5 M.
MAX_GATES = 1 << 24
# Most bytes a line of a file may hold, its newline apart; a gf2 or stab row at MAX_WIRES holds about 1 KB.
MAX_LINE_BYTES = 1 << 20
# Bytes a circuit or input file is read in at a time; each block is cut after its last newline.
_BLOCK_BYTES = 1 << 20


def validate_gate(g: Gate) -> None:
    kind, qubits, param = g
    if type(kind) is not GateKind:
        raise ValueError(f"unknown gate kind {kind!r}")
    one_qubit = kind is GateKind.H or kind is GateKind.P
    if one_qubit:
        if len(qubits) != 1:
            raise ValueError(f"{kind.value} takes one wire, got {qubits}")
    elif len(qubits) != 2 or qubits[0] == qubits[1]:
        raise ValueError(f"{kind.value} needs two distinct wires, got {qubits}")
    if kind is GateKind.CPHASE:
        if type(param) is not int or not 1 <= param <= MAX_WIRES:
            raise ValueError(f"cphase needs an integer parameter k in 1..{MAX_WIRES}, got {param}")
    elif param is not None:
        raise ValueError(f"{kind.value} takes no parameter")
    for q in qubits:
        if type(q) is not int or q < 0:
            raise ValueError(f"wire indices must be non-negative integers, got {qubits}")
    if not one_qubit and kind is not GateKind.CNOT and qubits[0] > qubits[1]:
        raise ValueError(f"{kind.value} is symmetric and stores its wires ascending, got {qubits}")


def _unchecked_gate(kind: GateKind, qubits: tuple[int, ...], param: int | None = None) -> Gate:
    """A gate valid by construction, made without `validate_gate`; tests/test_source.py pins the callers."""
    return tuple.__new__(Gate, (kind, qubits, param))


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def p(q: int) -> Gate:
    return Gate(GateKind.P, (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate(GateKind.CZ, (min(a, b), max(a, b)))


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, (min(a, b), max(a, b)))


def cphase(k: int, a: int, b: int) -> Gate:
    return Gate(GateKind.CPHASE, (min(a, b), max(a, b)), k)


def generic2(a: int, b: int) -> Gate:
    return Gate(GateKind.GENERIC2, (min(a, b), max(a, b)))


def is_permutation(perm: Sequence[int], n: int) -> bool:
    """True when perm lists each of 0..n-1 exactly once."""
    return sorted(perm) == list(range(n))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed number of wires, kept as a tuple.

    Layer metrics come from a generated schedule's record (`_slot_walk`), else from two walks, over the gates as
    written and over their CNOT expansion; each is made on first use and kept in the instance __dict__ with the
    distinct gate objects (fields, == and hash are untouched). It has a CNOT depth if each distinct kind is in
    `_CNOT_FORMS`. A CNOT expansion (`_cnot_expansion`) arrives with its depth and CNOT depth, a CNOT-only one
    with all its layer metrics. Stage tags are read off a record, else off the class runs (`_stage_tags`).
    """

    n_wires: int
    gates: tuple[Gate, ...] = ()
    _sublayers = None  # not a field: the record `_known_circuit` may set, else None

    def __post_init__(self) -> None:
        if self.n_wires < 1:
            raise ValueError(f"n_wires must be >= 1, got {self.n_wires}")
        gates = tuple(self.gates)  # the same object when it already is a tuple
        object.__setattr__(self, "gates", gates)
        # each distinct object once, first occurrence first: errors name the first offender
        object.__setattr__(self, "_distinct", tuple(dict(zip(map(id, gates), gates)).values()))
        for g in self._distinct:
            if type(g) is not Gate:
                raise ValueError(f"{g!r} is not a Gate")
            for q in g.qubits:
                if q >= self.n_wires:
                    raise ValueError(f"gate {g} uses wire {q} outside 0..{self.n_wires - 1}")

    def __len__(self) -> int:
        return len(self.gates)

    def depth(self) -> int:
        return self._depth

    def cnot_depth(self) -> int | None:
        """Depth of `linsynth.expand_circuit_to_cnot(self)`, found without building
        it; None when some two-qubit gate is neither a CNOT nor a SWAP."""
        return self._cnot_depth

    @cached_property
    def _layers(self) -> tuple:
        """(depth, two-qubit layer count, generic depth, then with a record the CNOT expansion's depth as if each
        payload were a CNOT, else the plain two-qubit layer marks), from `_slot_walk` or `_layer_walk`."""
        if self._sublayers is not None:
            return _slot_walk(self.gates, self.n_wires, self._sublayers)
        return _layer_walk(self.gates, self.n_wires)

    @cached_property
    def _depth(self) -> int:  # apart, so a CNOT expansion can preset it
        return self._layers[0]

    @cached_property
    def _cnot_depth(self) -> int | None:
        if not all(g[0] in _CNOT_FORMS for g in self._distinct):
            return None
        return self._layers[3] if self._sublayers is not None else _fold_walk(self.gates, self.n_wires)


def _known_circuit(
    n_wires: int, pieces: list[tuple[Iterable[Gate], Iterable[Gate]]], sublayers: Sequence | None = None
) -> Circuit:
    """A Circuit of each piece's gates in turn, where a piece is (gates, the objects they are made of),
    each object valid on these wires: no position is scanned. A builder's `sublayers` record each sublayer
    it emits as (size, class): 'L' (two-qubit, no SWAP), 'S' (SWAP) or '1' (one-qubit) on disjoint wires.
    A stage is an 'L' of payloads right before a non-empty 'S': the payload pairs are an in-order subsequence
    of the SWAP pairs (see `_slot_walk`). A builder that cannot keep this promise passes no record."""
    gates = tuple(chain.from_iterable(gates for gates, _ in pieces))
    distinct = tuple({id(g): g for _, objects in pieces for g in objects}.values())
    circuit = object.__new__(Circuit)
    circuit.__dict__.update(n_wires=n_wires, gates=gates, _distinct=distinct, _sublayers=sublayers)
    return circuit


def _fold_walk(gates: Sequence[Gate], n_wires: int, out: list | None = None, three_on: dict | None = None) -> int:
    """Depth of the gates' CNOT expansion, appended to `out` if given, each SWAP's three CNOTs read from `three_on`
    (given with `out`, keyed by the SWAP's pair). A SWAP right after a CNOT on both its wires folds: the pair becomes
    the reversed CNOT then the CNOT, one layer past the CNOT. Any other SWAP is three CNOTs. One-qubit gates block
    folding, unlike `generic_depth`'s fuse rule: cnot(0,1) h(0) swap(0,1) has generic depth 1 and expands to 5
    gates. Other two-qubit gates raise, which guards `_cnot_expansion`.
    """
    free = [0] * n_wires  # first layer each wire is free in
    pend = [0] * n_wires  # 1 + expansion index of an unfolded CNOT last on each wire, else 0
    cnot_kind, swap_kind, m = GateKind.CNOT, GateKind.SWAP, 0  # m: the expansion's length
    for g in gates:  # fields read by index: unpacking a tuple subclass is slower
        kind = g[0]
        if out is not None and kind is not swap_kind:
            out.append(g)
        if kind is cnot_kind:
            a, b = g[1]
            layer = free[a]
            if free[b] > layer:
                layer = free[b]
            free[a] = free[b] = layer + 1
            m += 1
            pend[a] = pend[b] = m
        elif kind is swap_kind:
            a, b = qs = g[1]
            k = pend[a]
            if k and k == pend[b]:  # fold; free[a] == free[b] after that CNOT
                free[a] = free[b] = free[a] + 1
                m += 1
                if out is not None:
                    g = out[k - 1]
                    out[k - 1] = three_on[qs][g[1][0] == a]  # the folded CNOT, reversed
                    out.append(g)
            else:
                layer = free[a] if free[a] > free[b] else free[b]
                free[a] = free[b] = layer + 3
                m += 3
                if out is not None:
                    out.extend(three_on[qs])
            pend[a] = pend[b] = 0
        elif len(qs := g[1]) == 1:
            free[qs[0]] += 1
            pend[qs[0]] = 0
            m += 1
        else:
            raise ValueError(f"cannot expand {kind.value} gates to CNOTs")
    return max(free)


def _slot_walk(gates: Sequence[Gate], n_wires: int, record: Sequence[tuple[int, str]]) -> tuple[int, int, int, int]:
    """`_layer_walk`'s depth, two-qubit layer count and generic depth, then `_fold_walk`'s depth as if each payload
    were a CNOT, from a record (`_known_circuit`) read one slot at a time. A slot is a SWAP and the payload on its
    pair, if any; a payload on wire a of SWAP (a, b) is on that pair. Plain, a payload takes layer t and its SWAP
    t + 1, a bare SWAP t; fused, a slot is one unit; folded, a payload and its SWAP take 2 CNOT layers, a bare SWAP
    3. A '1' steps its wires. Two-qubit layers are marked only when a '1' sublayer holds a gate: without one, ASAP
    leaves no layer below the depth empty of two-qubit gates."""
    plain, unit, free = [0] * n_wires, [0] * n_wires, [0] * n_wires  # the first layer each wire is free in
    marks, two_qubit = any(size and kind == "1" for size, kind in record), bytearray(2 * len(gates) + 1)
    end, payload = 0, ()
    for size, kind in record:
        start, end = end, end + size
        if kind == "L":
            payload = gates[start:end]
        elif kind == "1":
            for g in gates[start:end]:
                plain[g[1][0]] += 1
                free[g[1][0]] += 1
        else:
            pairs = iter(payload)
            on = next(pairs, (None, ()))[1]  # the wires of the next payload to pair
            for g in gates[start:end]:  # fields read by index: unpacking a tuple subclass is slower
                a, b = g[1]
                t, t_b = plain[a], plain[b]
                if t_b > t:
                    t = t_b
                f, f_b = free[a], free[b]
                if f_b > f:
                    f = f_b
                u, u_b = unit[a], unit[b]
                unit[a] = unit[b] = (u if u > u_b else u_b) + 1
                if a in on:
                    if marks:
                        two_qubit[t] = two_qubit[t + 1] = 1
                    plain[a] = plain[b] = t + 2
                    free[a] = free[b] = f + 2
                    on = next(pairs, (None, ()))[1]
                else:
                    if marks:
                        two_qubit[t] = 1
                    plain[a] = plain[b] = t + 1
                    free[a] = free[b] = f + 3
    depth = max(plain)
    return depth, two_qubit.count(1) if marks else depth, max(unit), max(free)


def _cnot_expansion(circuit: Circuit) -> Circuit:
    """`linsynth.expand_circuit_to_cnot`'s result, whose distinct gates are the input's non-SWAP objects and each SWAP
    pair's CNOTs, made once up front. It arrives with its depth, its CNOT depth too (no SWAP is left), and with no
    one-qubit gate in, all of `Circuit._layers`: each CNOT is its own fused unit and every layer holds one. A recorded
    CNOT/SWAP circuit is assembled from its record as `_slot_walk` pairs it, its depth read off it: a stage's payloads,
    each paired one as its reversed CNOT, then each SWAP's payload or 3 CNOTs. Others go through `_fold_walk`."""
    three_on, cnot_kind, swap_kind = {}, GateKind.CNOT, GateKind.SWAP  # three_on: (a, b) -> that pair's SWAP as 3 CNOTs
    for a, b in {g[1]: None for g in circuit._distinct if g[0] is swap_kind}:  # each pair once, a checked SWAP's wires
        ab = _unchecked_gate(cnot_kind, (a, b))
        three_on[a, b] = (ab, _unchecked_gate(cnot_kind, (b, a)), ab)
    out: list[Gate] = []
    recorded = circuit._sublayers is not None and circuit.cnot_depth() is not None  # else the walk, which raises
    depth = circuit._layers[3] if recorded else _fold_walk(circuit.gates, circuit.n_wires, out, three_on)
    gates, end, payload = circuit.gates, 0, ()
    for size, kind in circuit._sublayers if recorded else ():
        start, end = end, end + size
        if kind == "L":
            payload = gates[start:end]
        elif kind == "1":
            out += gates[start:end]
        else:
            pairs, after = iter(payload), []  # after: the stage's gates past its payload column
            p = next(pairs, (None, ()))
            for g in gates[start:end]:
                a = (qs := g[1])[0]
                if a in p[1]:
                    out.append(three_on[qs][p[1][0] == a])  # the folded CNOT, reversed
                    after.append(p)
                    p = next(pairs, (None, ()))
                else:
                    after += three_on[qs]
            out += after
    kept = [g for g in circuit._distinct if g[0] is not swap_kind]  # checked on these wires; the rest made here
    expanded = _known_circuit(circuit.n_wires, [(out, (*kept, *chain.from_iterable(three_on.values())))])  # each once
    expanded.__dict__.update(_depth=depth, _cnot_depth=depth)
    if all(len(g[1]) == 2 for g in circuit._distinct):
        expanded.__dict__["_layers"] = (depth, depth, depth, b"\1" * depth)
    return expanded


def _layer_walk(gates: Sequence[Gate], n_wires: int, out: list | None = None) -> tuple[int, int, int, bytearray]:
    """(depth, two-qubit layer count, generic depth, 1 at each plain layer holding a two-qubit gate),
    from two layerings in one walk; each gate's plain layer is appended to `out` if given.

    Plain (depth's): each gate lands on the first layer free on all its wires.
    By fused unit (generic depth's): a SWAP joins the non-SWAP unit last on
    both its wires if no SWAP has joined it yet; one-qubit gates are ignored.
    """
    plain = [0] * n_wires  # first layer each wire is free in
    two_qubit = bytearray(len(gates))  # 1 at each plain layer holding a two-qubit gate
    unit_free = [0] * n_wires  # by fused unit
    last = [0] * n_wires  # id of the joinable unit last on each wire, else 0
    swap_kind, units = GateKind.SWAP, 0
    for g in gates:  # fields read by index: unpacking a tuple subclass is slower
        qs = g[1]
        if len(qs) == 1:
            q = qs[0]
            if out is not None:
                out.append(plain[q])
            plain[q] += 1
            continue
        a, b = qs
        layer = plain[a]
        if plain[b] > layer:
            layer = plain[b]
        if out is not None:
            out.append(layer)
        two_qubit[layer] = 1
        plain[a] = plain[b] = layer + 1
        if g[0] is swap_kind:
            joins = last[a] == last[b] != 0
            last[a] = last[b] = 0  # a unit holding a SWAP takes no other
            if joins:
                continue
        else:
            units += 1
            last[a] = last[b] = units
        layer = unit_free[a]
        if unit_free[b] > layer:
            layer = unit_free[b]
        unit_free[a] = unit_free[b] = layer + 1
    return max(plain), two_qubit.count(1), max(unit_free), two_qubit


def _class_runs(gates: Sequence[Gate]) -> list[tuple[int, str]]:
    """A record of gates that have none: each maximal run of one class ('L', 'S' or '1') as its first gate alone,
    on disjoint wires as `_stage_tags` needs of a stretch's first sublayer, then the rest of the run."""
    runs = [(kind, len([*run])) for kind, run in groupby(map(_CLASS.__getitem__, map(itemgetter(0), gates)))]
    return [sub for kind, size in runs for sub in ((1, kind), (size - 1, kind)) if sub[0]]


def _stage_tags(circuit: Circuit) -> list[tuple[int, str]]:
    """(layer, 'L' or 'S') per stage layer. The gates are cut where their two-qubit class switches between SWAP and
    non-SWAP, every wire rises to the top at a cut, and one-qubit gates count. The cut is read off the sublayer record
    (`_known_circuit`), or off the class runs (`_class_runs`) of a circuit with none; with no record and at most one
    two-qubit class there is no cut, and the tags are the plain two-qubit layer marks. A stretch's first sublayer fills
    its first layer unwalked (disjoint wires, none free past the floor): if the stretch goes on, each of its wires is
    free from floor + 1. The rest are walked."""
    gates, record = circuit.gates, circuit._sublayers
    if record is None:
        classes = set(map(_CLASS.__getitem__, map(itemgetter(0), circuit._distinct))) - {"1"}
        if len(classes) < 2:
            depth, _, _, marks = circuit._layers
            return list(zip(compress(range(depth), marks), repeat(classes.pop() if classes else "L")))
        record = _class_runs(gates)
    free = [0] * circuit.n_wires  # a wire is free from max(free[w], floor)
    tags: list[str | None] = [None] * len(gates)  # stage tag of each two-qubit layer
    floor = top = end = 0  # top: the first layer free on every wire; floor: top at the last cut
    tag = unwalked = None  # unwalked: where the open stretch's first sublayer starts, until the stretch goes on
    for size, kind in record:
        start, end = end, end + size
        if size and kind != "1" and kind != tag:  # a cut, or the first two-qubit sublayer
            floor, tag = top if tag else floor, kind
            if top == floor:  # the stretch holds no one-qubit gate before this sublayer
                tags[floor], top, unwalked = kind, floor + 1, start
                continue
        if unwalked is not None:  # the stretch goes on: each gate of its first sublayer sat on the floor
            for a, b in map(itemgetter(1), gates[unwalked:start]):
                free[a] = free[b] = floor + 1
            unwalked = None
        for g in gates[start:end]:
            qs = g[1]
            a, b = qs if len(qs) == 2 else qs * 2  # a one-qubit gate as (q, q), which tags nothing
            layer = free[a] if free[a] > free[b] else free[b]
            if floor > layer:
                layer = floor
            free[a] = free[b] = layer + 1
            if layer >= top:
                top = layer + 1
            if a != b:
                tags[layer] = tag
    return [(i, t) for i, t in enumerate(tags[:top]) if t is not None]


def two_qubit_layer_count(circuit: Circuit) -> int:
    """Number of ASAP layers that contain at least one two-qubit gate."""
    return circuit._layers[1]


def generic_depth(circuit: Circuit) -> int:
    """Depth in merged two-qubit units, from the walk as written or the sublayer record.

    A two-qubit gate immediately followed (on both wires) by a SWAP of the
    same pair counts as one unit, as does a bare SWAP or an unmerged gate.
    Single-qubit gates are treated as absorbed into neighboring units and do
    not count, so one between a gate and its SWAP does not split the unit.
    """
    return circuit._layers[2]


class ArchKind(Enum):
    LNN = "lnn"
    GRID = "grid"
    GRAPH = "graph"


@dataclass(frozen=True)
class Architecture:
    """Undirected coupling graph over physical sites."""

    kind: ArchKind
    n_sites: int
    edges: frozenset[tuple[int, int]]
    rows: int = 0
    cols: int = 0

    @staticmethod
    def lnn(n: int) -> "Architecture":
        if n < 1:
            raise ValueError(f"lnn needs n >= 1, got {n}")
        return Architecture(ArchKind.LNN, n, frozenset((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def grid(rows: int, cols: int) -> "Architecture":
        if rows < 1 or cols < 1:
            raise ValueError(f"grid needs positive dimensions, got {rows}x{cols}")
        sites = range(rows * cols)  # site r * cols + c
        edges = [(s, s + 1) for s in sites if (s + 1) % cols] + [(s, s + cols) for s in sites[:-cols]]
        return Architecture(ArchKind.GRID, rows * cols, frozenset(edges), rows, cols)

    @staticmethod
    def graph(n: int, edges: Iterable[tuple[int, int]]) -> "Architecture":
        if n < 1:
            raise ValueError(f"graph needs n >= 1, got {n}")
        norm = set()
        for a, b in edges:
            _check_edge(a, b, n)
            norm.add((min(a, b), max(a, b)))
        arch = Architecture(ArchKind.GRAPH, n, frozenset(norm))
        seen, stack = {0}, [0]
        while stack:
            for w in arch.neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < n:
            raise ValueError("graph architecture must be connected")
        return arch

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """For each site, its adjacent sites in ascending order; built on first read."""
        adj: list[list[int]] = [[] for _ in range(self.n_sites)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(ws)) for ws in adj)


def _check_edge(a: int, b: int, n: int) -> None:
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"bad edge ({a}, {b}) for {n} sites")


class Violation(NamedTuple):
    gate_index: int
    pair: tuple[int, int]


class ValidationReport(NamedTuple):
    ok: bool
    violation: Violation | None = None


def validate_on(circuit: Circuit, arch: Architecture) -> ValidationReport:
    """Check every two-qubit gate of `circuit` sits on an edge of `arch`."""
    if circuit.n_wires != arch.n_sites:
        raise ValueError(
            f"circuit has {circuit.n_wires} wires but architecture has {arch.n_sites} sites"
        )
    off_edge = {(min(qs), max(qs)) for _, qs, _ in circuit._distinct if len(qs) == 2} - arch.edges
    if off_edge:  # walk the gates only to name the first violation
        for i, g in enumerate(circuit.gates):
            pair = (min(g.qubits), max(g.qubits))
            if pair in off_edge:
                return ValidationReport(False, Violation(i, pair))
    return ValidationReport(True)


@dataclass(frozen=True)
class ScheduledCircuit:
    """A circuit bound to an architecture, with the final wire placement.

    final_map[l] is the site holding logical wire l after execution; wires
    start at sites equal to their own index.
    """

    circuit: Circuit
    arch: Architecture
    final_map: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_permutation(self.final_map, self.arch.n_sites):
            raise ValueError(f"final_map {self.final_map} is not a permutation")
        report = validate_on(self.circuit, self.arch)
        if not report.ok:
            v = report.violation
            raise ValueError(f"gate {v.gate_index} on non-adjacent pair {v.pair}")


def invert_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def prune_trailing_swap_layers(sc: ScheduledCircuit) -> ScheduledCircuit:
    """Drop trailing all-SWAP layers and undo them on final_map."""
    gates, at, n = sc.circuit.gates, [], sc.circuit.n_wires
    _layer_walk(gates, n, at)
    # keep every layer up to the last one holding a non-SWAP gate, found with no Python step per gate
    keep = 1 + max(compress(at, map(is_not, map(itemgetter(0), gates), repeat(GateKind.SWAP))), default=-1)
    kept, came_from, gone = [], list(range(n)), set()  # came_from[s]: the site whose wire the dropped SWAPs bring to s
    for g, t in zip(gates, at):  # fields read by index: unpacking a tuple subclass is slower
        if t < keep:
            kept.append(g)
        else:
            a, b = g[1]
            came_from[a], came_from[b] = came_from[b], came_from[a]
            gone.add(id(g))
    gone.difference_update(map(id, kept))  # left: the SWAP objects no kept gate is, found in one C pass
    circuit = _known_circuit(n, [(kept, [g for g in sc.circuit._distinct if id(g) not in gone])])  # checked objects
    return ScheduledCircuit(circuit, sc.arch, tuple(came_from[s] for s in sc.final_map))


class ChainNotFoundError(ValueError):
    pass


def embed_chain(arch: Architecture, node_budget: int = 1_000_000) -> list[int]:
    """Hamiltonian path through the architecture, as a list of sites.

    LNN is the identity, grids use a boustrophedon sweep, and general graphs
    run an exact backtracking search bounded by `node_budget` expansions.
    """
    if arch.kind is ArchKind.LNN:
        return list(range(arch.n_sites))
    if arch.kind is ArchKind.GRID:
        path = []
        for r in range(arch.rows):
            cols = range(arch.cols) if r % 2 == 0 else range(arch.cols - 1, -1, -1)
            path.extend(r * arch.cols + c for c in cols)
        return path
    n = arch.n_sites
    if n == 1:
        return [0]
    nbrs = arch.neighbours
    adj = [sorted(ws, key=lambda w: (len(nbrs[w]), w)) for ws in nbrs]
    budget = node_budget
    for start in sorted(range(n), key=lambda v: (len(nbrs[v]), v)):
        path, used = [start], [False] * n
        used[start] = True
        untried = [iter(adj[start])]  # per path site, the neighbours not yet tried from it
        while untried:
            w = next((w for w in untried[-1] if not used[w]), None)
            if w is None:  # a dead end: step back
                untried.pop()
                used[path.pop()] = False
                continue
            if budget <= 0:
                raise ChainNotFoundError(f"chain search exhausted its budget of {node_budget} expansions")
            budget -= 1
            used[w] = True
            path.append(w)
            if len(path) == n:
                return path
            untried.append(iter(adj[w]))
    raise ChainNotFoundError("architecture has no Hamiltonian path")


# --- text formats ---------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in GateKind}


def _line_blocks(source: str | BinaryIO) -> Iterator[tuple[int, list[str]]]:
    """(lines before, raw lines) per block: a text is one block, and a binary file is read _BLOCK_BYTES at a time and
    cut after its last newline. Lines are numbered as str.splitlines numbers them. A byte that is not UTF-8 is a
    ParseError at its line, and so is a file's run of more than MAX_LINE_BYTES bytes with no newline, at the line of
    its first byte past the limit: the unread tail never outgrows the limit. A text's first line of more than
    MAX_LINE_BYTES characters is a ParseError at that line, raised before any line is split into tokens."""
    if isinstance(source, str):
        lines = source.splitlines()
        for line in compress(count(1), map(MAX_LINE_BYTES.__lt__, map(len, lines))):  # the first long line raises
            raise ParseError(line, f"more than {MAX_LINE_BYTES} characters with no newline")
        yield 0, lines
        return
    before, rest = 0, b""
    while True:
        chunk = source.read(_BLOCK_BYTES)
        data = rest + chunk
        for p in range(MAX_LINE_BYTES, len(data), MAX_LINE_BYTES + 1):  # a longer run holds one of these bytes
            start = data.rfind(b"\n", 0, p) + 1
            if start + MAX_LINE_BYTES < len(data) and data.find(b"\n", p, start + MAX_LINE_BYTES + 1) < 0:
                line = before + len((data[: start + MAX_LINE_BYTES].decode("utf-8", "replace") + ".").splitlines())
                raise ParseError(line, f"more than {MAX_LINE_BYTES} bytes with no newline")
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        block, rest = data[:cut], data[cut:]
        try:
            lines = block.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            line = before + len((block[: exc.start].decode("utf-8") + ".").splitlines())
            raise ParseError(line, f"byte {block[exc.start]:#x} is not UTF-8") from None
        yield before, lines
        if not chunk:
            return
        before += len(lines)


def _contents(before: int, lines: list[str]) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line with content, cut at its first '#'."""
    for lineno, raw in enumerate(lines, start=before + 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _content_lines(source: str | BinaryIO) -> list[tuple[int, str]]:
    """The numbered content lines of a whole text or file; none is an error."""
    out = [*chain.from_iterable(_contents(*block) for block in _line_blocks(source))]
    if not out:
        raise ParseError(1, "empty file: every line is blank or a comment")
    return out


def _header(lineno: int, head: str, keyword: str) -> int:
    """N of a header line that must read 'keyword N'."""
    toks = head.split()
    if len(toks) != 2 or toks[0] != keyword:
        raise ParseError(lineno, f"expected '{keyword} N', got {head!r}")
    return _wire_count(toks[1], lineno)


def _headed_lines(source: str | BinaryIO, keyword: str) -> tuple[int, list[tuple[int, str]]]:
    """N and the content lines, header included, of a text that opens with 'keyword N'."""
    lines = _content_lines(source)
    return _header(*lines[0], keyword), lines


def _wire_count(raw: str | int, lineno: int) -> int:
    """A header's size field: an integer in 1..MAX_WIRES."""
    try:
        n = int(raw)
    except ValueError:
        raise ParseError(lineno, f"bad wire count {raw!r}") from None
    if not 1 <= n <= MAX_WIRES:
        raise ParseError(lineno, f"wire count must be in 1..{MAX_WIRES}, got {n}")
    return n


class _AtLine:
    """A block whose ValueError is raised as a ParseError at the line; a ParseError passes.
    A class, not @contextmanager: it runs once per edge or skeleton line, at a quarter of the cost."""

    __slots__ = ("lineno",)

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type | None, exc: BaseException | None, tb: object) -> None:
        if kind is not None and issubclass(kind, ValueError) and not issubclass(kind, ParseError):
            raise ParseError(self.lineno, str(exc)) from None


def _gate(toks: Sequence[str], n: int) -> Gate:
    """The gate of tokens `name args` on wires 0..n-1, a cphase's k first. A CNOT keeps its
    direction; other gates store their wires ascending. A bad gate is a ValueError."""
    name, *args = toks
    kind = _KIND_BY_NAME.get(name)
    if kind is None:
        raise ValueError(f"unknown gate {name!r}")
    want = _ARITY[kind] + (kind is GateKind.CPHASE)
    if len(args) != want:
        raise ValueError(f"{name} takes {want} arguments, got {len(args)}")
    ints = [int(t) for t in args]
    k = ints.pop(0) if kind is GateKind.CPHASE else None
    g = Gate(kind, tuple(ints if kind is GateKind.CNOT else sorted(ints)), k)
    for q in g.qubits:
        if q >= n:
            raise ValueError(f"wire {q} outside 0..{n - 1}")
    return g


def _bit_rows(lines: Iterable[tuple[int, str]], n: int) -> tuple[int, ...]:
    """Numbered rows of n 0/1 characters as ints, character j as bit j.
    A bad row raises ParseError at its own line."""
    rows = []
    for lineno, line in lines:
        if len(line) != n or line.strip("01"):
            raise ParseError(lineno, f"expected {n} characters of 0/1, got {line!r}")
        rows.append(int(line[::-1], 2))
    return tuple(rows)


def _bit_string(row: int, n: int) -> str:
    """The n-character 0/1 text of a row, bit j as character j; inverse of _bit_rows."""
    return f"{row:0{n}b}"[::-1]


def _mask_wires(mask: int, n: int) -> list[int]:
    """The wires 0..n-1 whose bit is set in mask, ascending."""
    return [w for w in range(n) if (mask >> w) & 1]


def parse_circuit(text: str | BinaryIO) -> Circuit:
    """The circuit in a text or a binary file, read a block at a time: each distinct line is parsed
    once and each distinct gate checked once, so a line costs one table lookup. A line number
    is counted only for a line at fault, and the gate cap is checked once per block."""
    blocks = _line_blocks(text)
    gates: list[Gate] = []
    table: dict[str, Gate | tuple[()]] = {}  # raw line -> its gate, or () when it has no content
    checked: dict[tuple[str, ...], Gate] = {}  # tokens -> the one Gate made of them
    n = 0  # until the header is read
    try:
        for before, lines in blocks:
            if not n and (head := next(_contents(before, lines), None)):  # the header: the first content line
                n = _header(*head, "qubits")
                before, lines = head[0], lines[head[0] - before :]
            for raw in dict.fromkeys(lines):  # first occurrence first: errors name the first offender
                if raw not in table:
                    toks = tuple(raw.split("#", 1)[0].split())  # () for a line with no content
                    try:
                        table[raw] = toks and (checked.get(toks) or checked.setdefault(toks, _gate(toks, n)))
                    except ValueError as exc:
                        raise ParseError(before + lines.index(raw) + 1, str(exc)) from None
            gates.extend(filter(None, map(table.__getitem__, lines)))
            if len(gates) > MAX_GATES:
                at = [i for i, raw in enumerate(lines) if table[raw]][MAX_GATES - len(gates)]
                raise ParseError(before + at + 1, f"more than {MAX_GATES} gates")
    except ParseError:
        for _ in blocks:  # decoded, not parsed: a byte that is not UTF-8, anywhere, is reported first
            pass
        raise
    if not n:
        raise ParseError(1, "empty file: every line is blank or a comment")
    return _known_circuit(n, [(gates, checked.values())])  # `_gate` checked each one


def emit_circuit(circuit: Circuit) -> str:
    """The circuit's text: each distinct Gate object is formatted once, then looked up by id."""
    line = {id(g): " ".join([g.kind.value, *map(str, g.qubits if g.param is None else (g.param, *g.qubits))])
            for g in circuit._distinct}
    return "\n".join([f"qubits {circuit.n_wires}", *map(line.__getitem__, map(id, circuit.gates))]) + "\n"


def parse_architecture(text: str | BinaryIO) -> Architecture:
    lines = _content_lines(text)
    lineno, head = lines[0]
    toks = head.split()
    with _AtLine(lineno):
        if toks[0] in ("lnn", "grid") and len(lines) > 1:
            raise ParseError(lines[1][0], f"unexpected line after {head!r}")
        if toks[0] == "lnn" and len(toks) == 2:
            return Architecture.lnn(_wire_count(toks[1], lineno))
        if toks[0] == "grid" and len(toks) == 3:
            rows, cols = _wire_count(toks[1], lineno), _wire_count(toks[2], lineno)
            _wire_count(rows * cols, lineno)
            return Architecture.grid(rows, cols)
        if toks[0] == "graph" and len(toks) == 2:
            n = _wire_count(toks[1], lineno)
            edges = []
            for lno, line in lines[1:]:
                etoks = line.split()
                if etoks[0] != "edge" or len(etoks) != 3:
                    raise ParseError(lno, f"expected 'edge a b', got {line!r}")
                with _AtLine(lno):
                    edge = int(etoks[1]), int(etoks[2])
                    _check_edge(*edge, n)
                edges.append(edge)
            return Architecture.graph(n, edges)
    raise ParseError(lineno, f"expected 'lnn N', 'grid R C' or 'graph N', got {head!r}")


_QASM_NAMES = {"h": "h", "p": "s", "cnot": "cx", "cz": "cz", "swap": "swap"}  # by kind value


def to_qasm(circuit: Circuit) -> str:
    """OpenQASM 2 text for the circuit; one-way (no importer)."""
    out = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_wires}];",
    ]
    for kind, qs, k in circuit.gates:
        name = _QASM_NAMES.get(kind.value)
        if name is None and kind is GateKind.CPHASE:
            name = "cu1(pi)" if k == 1 else f"cu1(pi/{2 ** (k - 1)})"
        elif name is None:
            raise ValueError("generic two-qubit placeholders cannot be exported to QASM")
        out.append(f"{name} {','.join(f'q[{q}]' for q in qs)};")
    return "\n".join(out) + "\n"


__all__ = [
    "Architecture",
    "ArchKind",
    "ChainNotFoundError",
    "Circuit",
    "Gate",
    "GateKind",
    "MAX_GATES",
    "MAX_LINE_BYTES",
    "MAX_WIRES",
    "ParseError",
    "ScheduledCircuit",
    "ValidationReport",
    "Violation",
    "cnot",
    "cphase",
    "cz",
    "embed_chain",
    "emit_circuit",
    "generic2",
    "generic_depth",
    "h",
    "invert_permutation",
    "is_permutation",
    "p",
    "parse_architecture",
    "parse_circuit",
    "prune_trailing_swap_layers",
    "swap",
    "to_qasm",
    "two_qubit_layer_count",
    "validate_gate",
    "validate_on",
]
