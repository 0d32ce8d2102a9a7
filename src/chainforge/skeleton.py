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

The sites are known in closed form, since a schedule enters in one of two
orders. From the identity placement, slot (a, b) with d = b - a runs on
sites (d - 1, d), wire a on site d - 1; from the reversal, where a linear
synthesis part may enter, the sites are mirrored, wire a on n - d and wire
b on n - 1 - d.

So a stage is read by slices. Slot (a, b) has the code a * n + b in an n x n
grid, and stage s's slots (a, s - a), a ascending, have the codes
a * (n - 1) + s: one strided slice. Their d = s - 2a are one stride-2 slice
of a row indexed by n - 1 - d. A builder whose gates depend on d alone marks
its slots in a byte grid and keeps one row of site gates, so a stage's
payload is one `compress` of the row slice by the grid slice, with no Python
step per slot. A spec's slot map is first written into a table of
site gates by code, its fill a row at a time, and read by the same loop.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import AbstractSet, BinaryIO, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    Architecture,
    Gate,
    GateKind,
    ParseError,
    ScheduledCircuit,
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


_FILL = Slot(GateKind.GENERIC2)  # what every pair a spec does not list holds


class SkeletonSpec:
    """Presence flags and payloads for the n-wire all-pairs skeleton.

    A spec is a slot map (pair -> Slot, or None for an absent pair); every
    unlisted pair holds the generic two-qubit placeholder. `absent` is the
    frozenset of absent pairs and `payload` maps each listed pair to its gate.
    """

    def __init__(
        self, n: int, absent: AbstractSet[Pair] = frozenset(), payload: Mapping[Pair, Gate] = {}
    ) -> None:
        self.absent, self.payload = frozenset(absent), dict(payload)
        slots: dict[Pair, Slot | None] = dict.fromkeys(self.absent)
        for (a, b), g in payload.items():
            if type(g) is not Gate:
                raise ValueError(f"payload {g!r} of pair ({a}, {b}) is not a Gate")
            if (a, b) in slots:
                raise ValueError(f"pair ({a}, {b}) is absent but has a payload")
            if set(g.qubits) != {a, b}:
                raise ValueError(f"payload gate {g} does not act on pair ({a}, {b})")
            slots[a, b] = Slot(g.kind, g.qubits[0] > g.qubits[1], g.param)
        if n < 2:
            raise ValueError(f"skeleton needs n >= 2, got {n}")
        for a, b in slots:
            _check_pair(a, b, n)
        self.n, self._slots = n, slots

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.absent, self.payload) == (other.n, other.absent, other.payload)


def _check_pair(a: int, b: int, n: int) -> None:
    if not (0 <= a < b < n):
        raise ValueError(f"({a}, {b}) is not a pair with 0 <= a < b < {n}")


def n_stages(n: int) -> int:
    return 2 * n - 3 if n >= 2 else 0


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
    n: int, flip: bool, gates: Sequence[Gate | None], sublayers: list[tuple[int, str]],
    present: bytes | None = None, lead: Gate | None = None,
) -> tuple[list[Gate], list[Gate]]:
    """Each stage's payload then SWAPs from the identity placement (flip: the reversal), after `lead` at
    each odd stage if given, with each sublayer's (size, class) appended to `sublayers`; and the SWAPs made.
    `gates` holds site gates by n - 1 - d for the slots (a, b) that `present` marks at a * n + b, or,
    without `present`, by code a * n + b, None where absent. A stage's codes and d are strided slices."""
    table = _site_row(n, flip, [Slot(GateKind.SWAP)] * n, None)  # the SWAP after every slot of each d
    out: list[Gate] = []
    for s in range(1, n_stages(n) + 1):
        if lead and s % 2:
            out.append(lead)
            sublayers.append((1, "1"))
        lo, hi = max(0, s - n + 1), (s + 1) // 2  # the stage's slots are (a, s - a), lo <= a < hi
        by_d = slice(n - 1 - s + 2 * lo, n - 1 - s + 2 * hi, 2)
        at = slice(lo * (n - 1) + s, hi * (n - 1) + s, n - 1)
        start, swaps = len(out), table[by_d]
        out.extend(filter(None, gates[at]) if present is None else compress(gates[by_d], present[at]))
        sublayers += (len(out) - start, "L"), (len(swaps), "S")
        out += swaps
    return out, table


def schedule_lnn(spec: SkeletonSpec, drop_last_swaps: bool = False) -> ScheduledCircuit:
    """Execute the skeleton on a line from the identity, one payload stage + one SWAP stage each. Sites come
    from the module docstring's closed form, each listed slot read once and each distinct (slot, d) made into
    one gate; no wire is walked, and the chain ends reversed. A SWAP payload, whose payload sublayer need not be
    one class, and `drop_last_swaps`, whose last payload has no SWAP after it, leave no sublayer record."""
    n, slots = spec.n, spec._slots
    made: dict[tuple[Slot, int], Gate] = {}  # per slot and d = b - a, its site gate, made once

    def site_gate(e: Slot, d: int) -> Gate:
        return made.get((e, d)) or made.setdefault((e, d), _site_gate(n, False, e, d))

    cells: list[Gate | None] = [None] * (n * n)  # cells[a * n + b]: slot (a, b)'s site gate
    listed = Counter(b - a for a, b in slots)  # an unlisted slot's gate depends on d alone
    row = [site_gate(_FILL, d) if listed[d] < n - d else None for d in range(1, n)]  # made if some has d
    for a in range(n - 1):
        cells[a * n + a + 1 : a * n + n] = row[: n - 1 - a]
    for (a, b), e in slots.items():
        cells[a * n + b] = e and site_gate(e, b - a)
    sublayers: list[tuple[int, str]] = []
    gates, table = _grid_stages(n, False, cells, sublayers)
    distinct, final = [*table, *made.values()], tuple(range(n - 1, -1, -1))
    if drop_last_swaps:  # the last gate is the lone SWAP of slot (n - 2, n - 1), on sites (0, 1)
        gates.pop()
        final = (*final[:-2], 0, 1)
        distinct = distinct if n > 2 else gates  # n = 2: no other SWAP is left
    record = None if drop_last_swaps or any(e and e.kind is GateKind.SWAP for e in slots.values()) else sublayers
    return ScheduledCircuit(_known_circuit(n, [(gates, distinct)], record), Architecture.lnn(n), final)


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
    "all_pairs",
    "emit_skeleton",
    "n_stages",
    "parse_skeleton",
    "schedule_lnn",
]
