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
from itertools import chain
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

    Layer metrics come from two walks, one over the gates as written and one
    over their CNOT expansion, each made on first use and kept in the instance
    __dict__ with the distinct gate objects (fields, == and hash are untouched).
    """

    n_wires: int
    gates: tuple[Gate, ...] = ()

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

    def count(self, kind: GateKind) -> int:
        return sum(1 for g in self.gates if g.kind is kind)

    def depth(self) -> int:
        return self._plain_layers[0]

    def cnot_depth(self) -> int | None:
        """Depth of `linsynth.expand_circuit_to_cnot(self)`, found without building
        it; None when some two-qubit gate is neither a CNOT nor a SWAP."""
        return self._cnot_depth

    @cached_property
    def _layers(self) -> tuple[int, int, int, tuple[tuple[int, str], ...]]:
        return _layer_walk(self.gates, self.n_wires)

    @cached_property
    def _plain_layers(self) -> tuple[int, int]:  # apart, so a CNOT expansion can preset it
        return self._layers[:2]

    @cached_property
    def _cnot_depth(self) -> int | None:
        try:
            return _fold_walk(self.gates, self.n_wires)[0]
        except ValueError:  # a gate with no CNOT form
            return None


def _known_circuit(n_wires: int, pieces: list[tuple[Iterable[Gate], Iterable[Gate]]]) -> Circuit:
    """A Circuit of each piece's gates in turn, where a piece is (gates, the objects they are made of),
    each object valid on these wires: no position is scanned."""
    gates = tuple(chain.from_iterable(gates for gates, _ in pieces))
    distinct = tuple({id(g): g for _, objects in pieces for g in objects}.values())
    circuit = object.__new__(Circuit)
    circuit.__dict__.update(n_wires=n_wires, gates=gates, _distinct=distinct)
    return circuit


def _fold_walk(
    gates: Sequence[Gate], n_wires: int, out: list | None = None, three_on: dict | None = None
) -> tuple[int, int]:
    """(depth, two-qubit layer count) of the gates' CNOT expansion, appended to `out` if given,
    with each SWAP pair's three CNOTs, made once, in `three_on` (given with `out`).
    A SWAP right after a CNOT on both its wires folds: the pair becomes the
    reversed CNOT then the CNOT, one layer past the CNOT. Any other SWAP is
    three CNOTs. One-qubit gates block folding, unlike `generic_depth`'s fuse
    rule: cnot(0,1) h(0) swap(0,1) has generic depth 1 and expands to 5 gates.
    Other two-qubit gates raise.
    """
    free = [0] * n_wires  # first layer each wire is free in
    two_qubit = bytearray(3 * len(gates))  # 1 at each layer holding a two-qubit gate
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
            two_qubit[layer] = 1
            free[a] = free[b] = layer + 1
            m += 1
            pend[a] = pend[b] = m
        elif kind is swap_kind:
            a, b = qs = g[1]
            if out is not None and (three := three_on.get(qs)) is None:
                ab = cnot(a, b)
                three = three_on[qs] = (ab, cnot(b, a), ab)
            k = pend[a]
            if k and k == pend[b]:  # fold; free[a] == free[b] after that CNOT
                two_qubit[free[a]] = 1
                free[a] = free[b] = free[a] + 1
                m += 1
                if out is not None:
                    g = out[k - 1]
                    out[k - 1] = three[g[1][0] == a]  # the folded CNOT, reversed
                    out.append(g)
            else:
                layer = free[a] if free[a] > free[b] else free[b]
                two_qubit[layer] = two_qubit[layer + 1] = two_qubit[layer + 2] = 1
                free[a] = free[b] = layer + 3
                m += 3
                if out is not None:
                    out.extend(three)
            pend[a] = pend[b] = 0
        elif len(qs := g[1]) == 1:
            free[qs[0]] += 1
            pend[qs[0]] = 0
            m += 1
        else:
            raise ValueError(f"cannot expand {kind.value} gates to CNOTs")
    return max(free), two_qubit.count(1)


def _layer_walk(
    gates: Sequence[Gate], n_wires: int, out: list | None = None
) -> tuple[int, int, int, tuple[tuple[int, str], ...]]:
    """(depth, two-qubit layer count, generic depth, (layer, 'L' or 'S') per stage
    layer), from three layerings in one walk; each gate's plain layer is appended
    to `out` if given.

    Plain (depth's): each gate lands on the first layer free on all its wires.
    By stage (the audit's): the list is cut where its two-qubit gates switch
    between SWAP and non-SWAP, every wire rises to the top at a cut, and
    one-qubit gates count. By fused unit (generic depth's): a SWAP joins the
    non-SWAP unit last on both its wires if no SWAP has joined it yet; one-qubit
    gates are ignored.
    """
    plain = [0] * n_wires  # first layer each wire is free in
    two_qubit = bytearray(len(gates))  # 1 at each plain layer holding a two-qubit gate
    free = [0] * n_wires  # by stage: a wire is free from max(free[w], floor)
    floor = top = 0  # top: the first layer free on every wire; floor: top at the last cut
    unit_free = [0] * n_wires  # by fused unit
    last = [0] * n_wires  # id of the joinable unit last on each wire, else 0
    tags: list[str | None] = [None] * len(gates)  # stage tag of each two-qubit layer
    swap_kind = GateKind.SWAP
    last_kind = stretch = None
    units = 0
    for g in gates:  # fields read by index: unpacking a tuple subclass is slower
        qs = g[1]
        if len(qs) == 1:
            q = qs[0]
            if out is not None:
                out.append(plain[q])
            plain[q] += 1
            free[q] = layer = (free[q] if free[q] > floor else floor) + 1
            if layer > top:
                top = layer
            continue
        a, b = qs
        layer = plain[a]
        if plain[b] > layer:
            layer = plain[b]
        if out is not None:
            out.append(layer)
        two_qubit[layer] = 1
        plain[a] = plain[b] = layer + 1
        kind = g[0]
        if kind is not last_kind:
            last_kind = kind
            tag = "S" if kind is swap_kind else "L"
            if tag is not stretch:
                if stretch is not None:
                    floor = top
                stretch = tag
        layer = free[a]
        if free[b] > layer:
            layer = free[b]
        if floor > layer:
            layer = floor
        free[a] = free[b] = layer + 1
        if layer >= top:
            top = layer + 1
        tags[layer] = stretch
        if kind is swap_kind:
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
    stages = tuple((i, t) for i, t in enumerate(tags[:top]) if t is not None)
    return max(plain), two_qubit.count(1), max(unit_free), stages


def two_qubit_layer_count(circuit: Circuit) -> int:
    """Number of ASAP layers that contain at least one two-qubit gate."""
    return circuit._plain_layers[1]


def generic_depth(circuit: Circuit) -> int:
    """Depth in merged two-qubit units, from the circuit's walk as written.

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


def swap_flow_map(circuit: Circuit) -> tuple[int, ...]:
    """Final placement implied by the SWAP gates alone (logical -> site)."""
    pos = list(range(circuit.n_wires))  # site -> logical
    for g in circuit.gates:
        if g.kind is GateKind.SWAP:
            a, b = g.qubits
            pos[a], pos[b] = pos[b], pos[a]
    return invert_permutation(pos)


def prune_trailing_swap_layers(sc: ScheduledCircuit) -> ScheduledCircuit:
    """Drop trailing all-SWAP layers and adjust final_map accordingly."""
    gates, at = sc.circuit.gates, []
    _layer_walk(gates, sc.circuit.n_wires, at)
    # keep every layer up to the last one holding a non-SWAP gate
    keep = 1 + max((t for g, t in zip(gates, at) if g.kind is not GateKind.SWAP), default=-1)
    kept = [g for g, t in zip(gates, at) if t < keep]
    circuit = _known_circuit(sc.circuit.n_wires, [(kept, kept)])  # a subset of checked gates
    return ScheduledCircuit(circuit, sc.arch, swap_flow_map(circuit))


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
    """(lines before, raw lines) per block: a text is one block, and a binary file is read
    _BLOCK_BYTES at a time and cut after its last newline. Lines are numbered as
    str.splitlines numbers them; a byte that is not UTF-8 is a ParseError at its line."""
    if isinstance(source, str):
        yield 0, source.splitlines()
        return
    before, rest = 0, b""
    while True:
        chunk = source.read(_BLOCK_BYTES)
        data = rest + chunk
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
    "swap_flow_map",
    "to_qasm",
    "two_qubit_layer_count",
    "validate_gate",
    "validate_on",
]
