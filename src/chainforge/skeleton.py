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
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from typing import AbstractSet, Iterator, Mapping, NamedTuple, Sequence

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


class _Absent(AbstractSet):
    """Pairs a slot map marks None, or leaves out when the fill is None (holds no spec)."""

    def __init__(self, n: int, slots: Mapping[Pair, Slot | None], fill: Slot | None) -> None:
        self.n, self.slots, self.fill = n, slots, fill  # not the spec: no reference cycle

    def __contains__(self, pr: object) -> bool:
        try:
            a, b = pr
            return 0 <= a < b < self.n and self.slots.get(pr, self.fill) is None
        except (TypeError, ValueError):  # not a pair of wires
            return False

    def __len__(self) -> int:
        unlisted = self.n * (self.n - 1) // 2 - len(self.slots) if self.fill is None else 0
        return unlisted + sum(e is None for e in self.slots.values())

    def __iter__(self) -> Iterator[Pair]:
        pairs = all_pairs(self.n) if self.fill is None else self.slots
        return (pr for pr in pairs if self.slots.get(pr, self.fill) is None)


class SkeletonSpec:
    """Presence flags and payloads for the n-wire all-pairs skeleton.

    A spec is a slot map (pair -> Slot, or None for an absent pair) plus the
    fill every unlisted pair takes. `absent` is a view of the map, and
    `payload` holds the listed slots' gates, made on first read.
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
        for a, b in slots:
            _check_pair(a, b, n)
        self.n, self._slots, self._fill = n, slots, fill
        self.absent = _Absent(n, slots, fill)
        self._sites: dict[bool, dict[Slot, dict[int, Gate]]] = {}  # see `_made`

    def _made(self, flip: bool) -> list[Gate]:
        """The distinct gates `staged_schedule` kept from the identity placement (flipped: the reversal)."""
        return [g for row in self._sites.get(flip, {}).values() for g in row.values()]

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
    rows = spec._sites.setdefault(flip, {})  # per slot, its site gates by d = b - a

    def site_gate(e: Slot, d: int) -> Gate:  # a checked slot on adjacent sites: valid as made
        kind, from_larger, param = e
        i = n - 1 - d if flip else d - 1  # the slot's lower site, wire a's unless flipped
        # a CNOT keeps its direction; a symmetric gate stores its sites ascending
        sites = (i + 1, i) if kind is GateKind.CNOT and from_larger != flip else (i, i + 1)
        g = rows.setdefault(e, {})[d] = _unchecked_gate(kind, sites, param)
        return g

    # table[j] is the SWAP after every slot with d = n - 1 - j; made first, so a SWAP payload shares it
    table = [site_gate(e, d) for e in [Slot(GateKind.SWAP)] for d in range(n - 1, 0, -1)]
    cells: list[Gate | None] = [None] * (n * n)  # cells[a * n + b]: slot (a, b)'s site gate
    if fill is not None:  # an unlisted slot's gate depends on d alone; rows are made if used
        listed = Counter(b - a for a, b in slots)
        row = [site_gate(fill, d) if listed[d] < n - d else None for d in range(1, n)]
        for a in range(n - 1):
            cells[a * n + a + 1 : a * n + n] = row[: n - 1 - a]
    for (a, b), e in slots.items():  # a listed slot's gate is read from its row by d
        by_d = e and rows.get(e)
        cells[a * n + b] = e and (by_d and by_d.get(b - a) or site_gate(e, b - a))
    plans: list[StagePlan] = []
    for s in range(1, n_stages(n) + 1):
        lo, hi = max(0, s - n + 1), (s + 1) // 2  # the stage's slots are (a, s - a), lo <= a < hi
        j = n - 1 - s
        payload = filter(None, cells[lo * (n - 1) + s : hi * (n - 1) + s : n - 1])  # a ascending
        plans.append(StagePlan(tuple(payload), tuple(table[j + 2 * lo : j + 2 * hi : 2])))
    return plans, placement[::-1]


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

def parse_skeleton(text: str) -> SkeletonSpec:
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
            g = _gate(lineno, toks[3], [*toks[4:], toks[1], toks[2]], n)
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
