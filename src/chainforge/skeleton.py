"""All-pairs skeleton circuits: stage assignment and LNN scheduling.

The skeleton over n wires holds one slot per pair (a, b) with a < b. Slots
carry presence flags and an optional payload gate (default: a generic
two-qubit placeholder). Present or not, every slot is followed by a SWAP of
the same wire pair, which keeps the routing pattern independent of the
flags: the final placement is always the full reversal.

Slots are grouped into 2n-3 stages by coordinate sum: slot (a, b) sits in
stage a + b (1-based). Stages have pairwise disjoint supports, and slots
sharing a wire keep their lexicographic order across stages, so executing
stage by stage is equivalent to executing slots in lexicographic order.

The sites are known in closed form. From the identity placement, slot
(a, b) with d = b - a runs on sites (d - 1, d), wire a on site d - 1; from
the reversal the sites are mirrored, wire a on n - d and wire b on n - 1 - d.

So a stage is read by slices. Slot (a, b) has the code a * n + b in an n x n
grid, and stage s's slots (a, s - a), a ascending, have the codes
a * (n - 1) + s: one strided slice. Their d = s - 2a are one stride-2 slice
of a row indexed by n - 1 - d. A builder whose gates depend on d alone marks
its slots in a bytearray grid and keeps one row of site gates, so a stage's
payload is one `compress` of the row slice by the grid slice, with no Python
step per slot. A public spec's slot map is first written into a table of
site gates by code, its fill a row at a time, and read by the same loop.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress
from typing import AbstractSet, BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    Architecture,
    Gate,
    GateKind,
    MAX_WIRES,
    ParseError,
    ScheduledCircuit,
    _ARITY,
    _AtLine,
    _gate,
    _headed_lines,
    _known_circuit,
    _unchecked_gate,
)

Pair = tuple[int, int]


def all_pairs(n: int) -> Iterator[Pair]:
    for a in range(n - 1):
        for b in range(a + 1, n):
            yield (a, b)


class Slot(NamedTuple):
    """What re-placing a present slot's payload needs; no `Gate` is made."""

    kind: GateKind
    from_larger: bool = False  # a CNOT controlled by the pair's larger wire
    param: int | None = None


def _band(n: int, m: int) -> bytearray:
    """The n x n grid marking every pair (a, b) with b - a < m at a * n + b."""
    grid = bytearray(n * n)
    for a in range(n - 1):
        grid[a * n + a + 1 : a * n + min(n, a + m)] = b"\1" * (min(n, a + m) - a - 1)
    return grid


class _GridPairs(AbstractSet):
    """A set view of the pairs (a, b), a < b, its n x n grid marks at a * n + b (transposed: b * n + a)."""

    def __init__(self, n: int, grid: bytearray, transposed: bool = False) -> None:
        self.n, self.grid, self.transposed = n, grid, transposed

    def __contains__(self, pr: object) -> bool:
        try:
            a, b = pr
            code = b * self.n + a if self.transposed else a * self.n + b
            return 0 <= a < b < self.n and self.grid[code] == 1
        except (TypeError, ValueError):  # not a pair of wires
            return False

    def __len__(self) -> int:
        return self.grid.count(1)

    def __iter__(self) -> Iterator[Pair]:
        pairs = (divmod(code, self.n) for code in compress(range(len(self.grid)), self.grid))
        return ((b, a) for a, b in pairs) if self.transposed else pairs

    def __repr__(self) -> str:
        return repr(frozenset(self))

    __hash__ = AbstractSet._hash


class SkeletonSpec:
    """Presence flags and payloads for the n-wire all-pairs skeleton.

    A spec is a slot map (pair -> Slot, or None for an absent pair) plus the
    fill every unlisted pair takes. `absent` is a set view of an n x n grid
    marking the absent pairs, and `payload` holds the listed slots' gates,
    made on first read.
    """

    def __init__(
        self, n: int, absent: AbstractSet[Pair] = frozenset(), payload: Mapping[Pair, Gate] = {}
    ) -> None:
        """Unlisted pairs hold the generic two-qubit placeholder."""
        slots: dict[Pair, Slot | None] = dict.fromkeys(absent)
        for (a, b), g in payload.items():
            if type(g) is not Gate:
                raise ValueError(f"payload {g!r} of pair ({a}, {b}) is not a Gate")
            if (a, b) in slots:
                raise ValueError(f"pair ({a}, {b}) is absent but has a payload")
            if set(g.qubits) != {a, b}:
                raise ValueError(f"payload gate {g} does not act on pair ({a}, {b})")
            slots[a, b] = Slot(g.kind, g.qubits[0] > g.qubits[1], g.param)
        self._bind(n, slots, Slot(GateKind.GENERIC2))

    @classmethod
    def on_pairs(cls, n: int, slots: Mapping[Pair, Slot]) -> SkeletonSpec:
        """The spec whose present pairs are exactly the listed ones; no `Gate` is made.
        Each distinct slot is checked once, so its site gates are valid as made."""
        slots = dict(slots)
        for e, pr in dict(zip(slots.values(), slots)).items():  # each distinct slot, with one pair holding it
            if type(e) is not Slot:
                raise ValueError(f"slot {pr} holds {e!r}, not a Slot")
            kind, from_larger, param = e
            if type(kind) is not GateKind or _ARITY[kind] != 2:
                raise ValueError(f"slot {pr} holds {kind!r}, not a two-wire gate kind")
            k_ok = type(param) is int and 0 < param <= MAX_WIRES if kind is GateKind.CPHASE else param is None
            if type(from_larger) is not bool or from_larger and kind is not GateKind.CNOT or not k_ok:
                reason = f"from_larger is a bool, True only on a CNOT; only a cphase has k, in 1..{MAX_WIRES}"
                raise ValueError(f"slot {pr} holds {e}: {reason}")
        spec = cls.__new__(cls)
        spec._bind(n, slots, None)
        return spec

    def _bind(self, n: int, slots: dict[Pair, Slot | None], fill: Slot | None) -> None:
        if n < 2:
            raise ValueError(f"skeleton needs n >= 2, got {n}")
        absent = _band(n, n) if fill is None else bytearray(n * n)  # an unlisted pair takes the fill
        for (a, b), e in slots.items():
            _check_pair(a, b, n)
            absent[a * n + b] = e is None
        self.n, self._slots, self._fill = n, slots, fill
        self.absent = _GridPairs(n, absent)
        self._sites: dict[bool, list[Gate]] = {}  # see `_made`

    def _made(self, flip: bool) -> list[Gate]:
        """The gates `staged_schedule` last made from the identity placement (flipped: the reversal)."""
        return self._sites.get(flip, [])

    @cached_property
    def payload(self) -> dict[Pair, Gate]:
        listed = ((pr, e) for pr, e in self._slots.items() if e is not None)
        return {pr: Gate(e.kind, pr[::-1] if e.from_larger else pr, e.param) for pr, e in listed}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.absent, self.payload) == (other.n, other.absent, other.payload)


def _check_pair(a: int, b: int, n: int) -> None:
    if not (0 <= a < b < n):
        raise ValueError(f"({a}, {b}) is not a pair with 0 <= a < b < {n}")


def n_stages(n: int) -> int:
    return 2 * n - 3 if n >= 2 else 0


class StagePlan(NamedTuple):
    """Site-level gates for one stage of the schedule."""

    payload: tuple[Gate, ...]
    swaps: tuple[Gate, ...]


def _check_placement(placement: Sequence[int], n: int) -> tuple[int, ...]:
    pl = tuple(placement)
    if pl != tuple(range(n)) and pl != tuple(range(n - 1, -1, -1)):
        raise ValueError(f"placement {pl} must lay the wire chain along the site chain, in order or reversed")
    return pl


def _site_gate(n: int, flip: bool, e: Slot, d: int) -> Gate:
    """Checked slot e's gate, valid as made, for d = b - a from the identity (flip: the reversal)."""
    kind, from_larger, param = e
    i = n - 1 - d if flip else d - 1  # the slot's lower site, wire a's unless flipped
    # a CNOT keeps its direction; a symmetric gate stores its sites ascending
    sites = (i + 1, i) if kind is GateKind.CNOT and from_larger != flip else (i, i + 1)
    return _unchecked_gate(kind, sites, param)


def _site_row(n: int, flip: bool, slots: Sequence[Slot], present: bytes | None) -> list[Gate | None]:
    """Slot slots[d]'s gate per d, indexed n - 1 - d, made only for a d that some slot in `present` has."""
    used = [present is None or 1 in present[d : (n - d) * (n + 1) : n + 1] for d in range(n)]  # (a, a + d)
    return [_site_gate(n, flip, slots[d], d) if used[d] else None for d in range(n - 1, 0, -1)]


def _grid_stages(
    n: int, flip: bool, gates: Sequence[Gate | None], present: bytes | None = None
) -> tuple[Iterator[tuple[Iterable[Gate], list[Gate]]], list[Gate]]:
    """Each stage's (payload, SWAPs) from the identity placement (flip: the reversal), and the SWAPs made.
    `gates` holds site gates by n - 1 - d for the slots (a, b) that `present` marks at a * n + b, or,
    without `present`, by code a * n + b, None where absent. A stage's codes and d are strided slices."""
    table = _site_row(n, flip, [Slot(GateKind.SWAP)] * n, None)  # the SWAP after every slot of each d

    def stages() -> Iterator[tuple[Iterable[Gate], list[Gate]]]:  # lazy: each is read as it comes
        for s in range(1, n_stages(n) + 1):
            lo, hi = max(0, s - n + 1), (s + 1) // 2  # the stage's slots are (a, s - a), lo <= a < hi
            by_d = slice(n - 1 - s + 2 * lo, n - 1 - s + 2 * hi, 2)
            at = slice(lo * (n - 1) + s, hi * (n - 1) + s, n - 1)
            payload = filter(None, gates[at]) if present is None else compress(gates[by_d], present[at])
            yield payload, table[by_d]

    return stages(), table


def staged_schedule(
    spec: SkeletonSpec, initial_placement: Sequence[int] | None = None
) -> tuple[list[StagePlan], tuple[int, ...]]:
    """Stage-by-stage site gates plus the final placement, the entry one reversed.

    The placement (wire -> site) must lay the wire chain along the site
    chain in order or reversed; the uniform SWAP pattern keeps every slot's
    wires adjacent when its stage runs, and flips the placement overall.
    Sites come from the closed form in the module docstring: each listed
    slot is read once, and no wire is walked from site to site.
    """
    n = spec.n
    placement = _check_placement(range(n) if initial_placement is None else initial_placement, n)
    flip = placement[0] != 0  # the reversal (a spec has n >= 2)
    slots, fill = spec._slots, spec._fill
    made: dict[tuple[Slot, int], Gate] = {}  # per slot and d = b - a, its site gate, made once

    def site_gate(e: Slot, d: int) -> Gate:
        return made.get((e, d)) or made.setdefault((e, d), _site_gate(n, flip, e, d))

    cells: list[Gate | None] = [None] * (n * n)  # cells[a * n + b]: slot (a, b)'s site gate
    if fill is not None:  # an unlisted slot's gate depends on d alone; made if some unlisted slot has d
        listed = Counter(b - a for a, b in slots)
        row = [site_gate(fill, d) if listed[d] < n - d else None for d in range(1, n)]
        for a in range(n - 1):
            cells[a * n + a + 1 : a * n + n] = row[: n - 1 - a]
    for (a, b), e in slots.items():
        cells[a * n + b] = e and site_gate(e, b - a)
    stages, table = _grid_stages(n, flip, cells)
    spec._sites[flip] = [*table, *made.values()]
    return [StagePlan(tuple(payload), tuple(swaps)) for payload, swaps in stages], placement[::-1]


def schedule_lnn(spec: SkeletonSpec, drop_last_swaps: bool = False) -> ScheduledCircuit:
    """Execute the skeleton on a line, one payload stage + one SWAP stage each."""
    plans, final = staged_schedule(spec)
    made = spec._made(False)
    if drop_last_swaps:  # the last stage is the lone slot (n - 2, n - 1): one SWAP, on sites (0, 1)
        plans[-1], final = plans[-1]._replace(swaps=()), (*final[:-2], final[-1], final[-2])
        made = made if spec.n > 2 else plans[0].payload  # n = 2: no other SWAP is left
    gates = chain.from_iterable(chain.from_iterable(plans))  # each stage's payload, then SWAPs
    return ScheduledCircuit(_known_circuit(spec.n, [(gates, made)]), Architecture.lnn(spec.n), final)


# --- text format -----------------------------------------------------------

def parse_skeleton(text: str | BinaryIO) -> SkeletonSpec:
    n, lines = _headed_lines(text, "skeleton")
    slots: dict[Pair, Gate | None] = {}  # None for an absent pair
    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] == "absent" and len(toks) == 3:
            with _AtLine(lineno):
                a, b = int(toks[1]), int(toks[2])
                pair = (min(a, b), max(a, b))
                _check_pair(*pair, n)
            g = None
        elif toks[0] == "payload" and len(toks) in (4, 5):  # the gate line 'kind [k] a b'
            with _AtLine(lineno):
                g = _gate([toks[3], *toks[4:], toks[1], toks[2]], n)
            pair = (min(g.qubits), max(g.qubits))
        else:
            raise ParseError(lineno, f"expected 'absent a b' or 'payload a b kind [k]', got {line!r}")
        if slots.setdefault(pair, g) != g:  # exact repeats are fine
            raise ParseError(lineno, f"pair {pair} conflicts with an earlier line")
    with _AtLine(lines[0][0]):
        absent = frozenset(pr for pr, g in slots.items() if g is None)
        return SkeletonSpec(n, absent, {pr: g for pr, g in slots.items() if g is not None})


def emit_skeleton(spec: SkeletonSpec) -> str:
    out = [f"skeleton {spec.n}"]
    for a, b in sorted(spec.absent):
        out.append(f"absent {a} {b}")
    for (a, b), g in sorted(spec.payload.items()):
        param = "" if g.param is None else f" {g.param}"
        out.append(f"payload {g.qubits[0]} {g.qubits[1]} {g.kind.value}{param}")
    return "\n".join(out) + "\n"


__all__ = [
    "Pair",
    "SkeletonSpec",
    "Slot",
    "StagePlan",
    "all_pairs",
    "emit_skeleton",
    "n_stages",
    "parse_skeleton",
    "schedule_lnn",
    "staged_schedule",
]
