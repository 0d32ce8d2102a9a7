"""Depth lower bounds, schedule audits and a tiny exhaustive scheduler.

Two cost models: model A executes the all-pairs skeleton in its fixed
order (a gate may run only after the gates it shares a wire with that
precede it), model B may execute the pairs in any order. Layers are pure:
a computational layer holds disjoint pair gates that are currently
adjacent, a swapping layer holds a disjoint set of edge swaps.

The audit reads a schedule stage by stage, as written: the gate list is
cut wherever its two-qubit content switches between SWAP and non-SWAP, and
each piece is layered on its own, by one reader (`core._stage_tags`) of a
generated schedule's sublayer record or of any other circuit's class runs.
A layer holding a two-qubit non-SWAP gate counts as L (mixed layers count
as L), a SWAP-only layer counts as S, and layers with no two-qubit gate
are skipped. The spacing requirements:
any three consecutive L layers need at least one S strictly between the
first and third, and any four consecutive L layers need at least two S
between the first and fourth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import Architecture, Circuit, ScheduledCircuit, _stage_tags
from .skeleton import all_pairs


class Model(Enum):
    A = "A"
    B = "B"


class BoundArch(Enum):
    LNN = "lnn"
    GRID = "grid"
    BOUNDED_DEGREE = "degree"


@dataclass(frozen=True)
class BoundQuery:
    model: Model
    arch: BoundArch
    n: int
    k: int | None = None

    def __post_init__(self) -> None:
        if self.arch is BoundArch.BOUNDED_DEGREE:
            if self.k is None or self.k < 2:
                raise ValueError("bounded-degree queries need k >= 2")
        elif self.k is not None:
            raise ValueError(f"k applies to bounded-degree queries only, got k={self.k}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")


class LowerBound(NamedTuple):
    coefficient: Fraction
    formula: str


_COEFFS = {
    (Model.A, BoundArch.LNN): Fraction(10, 3),
    (Model.A, BoundArch.GRID): Fraction(3),
    (Model.B, BoundArch.LNN): Fraction(3, 2),
    (Model.B, BoundArch.GRID): Fraction(5, 4),
}


def lower_bound(q: BoundQuery) -> LowerBound:
    """Leading coefficient of the depth lower bound, as an exact rational."""
    if q.arch is BoundArch.BOUNDED_DEGREE:
        base = 2 if q.model is Model.A else 1
        coeff = base + Fraction(base, q.k)
    else:
        coeff = _COEFFS[(q.model, q.arch)]
    if coeff.denominator == 1:
        lead = f"{coeff.numerator}n"
    else:
        lead = f"({coeff.numerator}/{coeff.denominator})n"
    return LowerBound(coeff, f"{lead} + O(1)")


class AuditWindow(NamedTuple):
    first_layer: int
    last_layer: int
    swaps_between: int
    required: int


class AuditReport(NamedTuple):
    l_count: int
    s_count: int
    violations_3l1s: tuple[AuditWindow, ...]
    violations_4l2s: tuple[AuditWindow, ...]

    @property
    def ok(self) -> bool:
        return not self.violations_3l1s and not self.violations_4l2s


def classify_layers(circuit: Circuit) -> list[tuple[int, str]]:
    """(layer index, 'L' or 'S') for each layer holding a two-qubit gate.

    The gate list is taken as the schedule it spells out: it is cut into
    maximal stretches whose two-qubit gates are all SWAPs or all non-SWAPs,
    and every stretch is layered greedily on its own. Single-qubit gates
    stay with the stretch they were emitted in. Judging the written stage
    structure keeps the verdict stable under recompression, which would
    otherwise slide sparse stages into each other. The tags come from one
    reader (`core._stage_tags`): of a generated schedule's sublayer record
    (`core._known_circuit`), else of a record made from the circuit's class runs.
    """
    return _stage_tags(circuit)


def stage_audit(sc: ScheduledCircuit | Circuit) -> AuditReport:
    """Count the L and S layers of `classify_layers` and list every window that breaks the spacing.

    One pass over the L/S sequence keeps a prefix count: each L layer carries the number of S
    layers before it. The S layers strictly between two L layers are then the difference of
    their counts, so every window costs O(1) and the audit O(layers). A window of need + 2
    consecutive L layers (need = 1 for 3L1S, 2 for 4L2S) is a violation when that difference
    is below need.
    """
    circuit = sc.circuit if isinstance(sc, ScheduledCircuit) else sc
    l_layers: list[int] = []
    s_before: list[int] = []  # s_before[i]: S layers before the i-th L layer
    s_count = 0
    for layer, tag in classify_layers(circuit):
        if tag == "S":
            s_count += 1
        else:
            l_layers.append(layer)
            s_before.append(s_count)
    bad = []
    for need in (1, 2):
        span = need + 1
        bad.append(tuple(
            AuditWindow(first, last, s_last - s_first, need)
            for first, last, s_first, s_last in zip(l_layers, l_layers[span:], s_before, s_before[span:])
            if s_last - s_first < need
        ))
    return AuditReport(len(l_layers), s_count, *bad)


def _disjoint_sets(items: Sequence[tuple[object, int, int]]) -> list[tuple]:
    """The keys of every nonempty set of (key, site, site) items on pairwise disjoint sites."""
    out: list[tuple] = []

    def extend(start: int, used: int, picked: tuple) -> None:
        for i in range(start, len(items)):
            key, a, b = items[i]
            bit = (1 << a) | (1 << b)
            if not used & bit:
                out.append(picked + (key,))
                extend(i + 1, used | bit, out[-1])

    extend(0, 0, ())
    return out


def brute_force_min_depth(n: int, model: Model, arch: Architecture) -> int:
    """Exact minimum layer count to run all skeleton pairs, by state search.

    States are (site occupancy, set of executed pairs); a step applies
    either one computational layer (a nonempty set of executable, disjoint,
    currently adjacent pairs) or one swapping layer (a nonempty matching).
    Breadth-first search gives the optimum; refuses n > 5.
    """
    if n > 5:
        raise ValueError(f"exhaustive search is limited to n <= 5, got {n}")
    if arch.n_sites != n:
        raise ValueError(f"architecture has {arch.n_sites} sites for n={n}")
    pairs = list(all_pairs(n))
    pair_index = {pr: i for i, pr in enumerate(pairs)}
    all_done = (1 << len(pairs)) - 1
    if all_done == 0:
        return 0
    preds = []
    for a, b in pairs:
        mask = 0
        for other in pairs:
            if other < (a, b) and ({a, b} & set(other)):
                mask |= 1 << pair_index[other]
        preds.append(mask)
    edges = sorted(arch.edges)
    swap_layers = _disjoint_sets([(e, *e) for e in edges])

    def gate_layers(pos: tuple[int, ...], done: int) -> list[tuple[int, ...]]:
        # pos maps site -> wire
        site_of = [0] * n
        for site, wire in enumerate(pos):
            site_of[wire] = site
        ready = []
        for i, (a, b) in enumerate(pairs):
            if done >> i & 1:
                continue
            if model is Model.A and (preds[i] & ~done):
                continue
            sa, sb = site_of[a], site_of[b]
            if (min(sa, sb), max(sa, sb)) in arch.edges:
                ready.append((i, sa, sb))
        return _disjoint_sets(ready)

    start = (tuple(range(n)), 0)
    frontier = {start}
    seen = {start}
    depth = 0
    while frontier:
        depth += 1
        nxt = set()
        for pos, done in frontier:
            for picked in gate_layers(pos, done):
                new_done = done
                for i in picked:
                    new_done |= 1 << i
                if new_done == all_done:
                    return depth
                state = (pos, new_done)
                if state not in seen:
                    seen.add(state)
                    nxt.add(state)
            for matching in swap_layers:
                new_pos = list(pos)
                for a, b in matching:
                    new_pos[a], new_pos[b] = new_pos[b], new_pos[a]
                state = (tuple(new_pos), done)
                if state not in seen:
                    seen.add(state)
                    nxt.add(state)
        frontier = nxt
    raise RuntimeError("search space exhausted without completing the skeleton")


__all__ = [
    "AuditReport",
    "AuditWindow",
    "BoundArch",
    "BoundQuery",
    "LowerBound",
    "Model",
    "brute_force_min_depth",
    "classify_layers",
    "lower_bound",
    "stage_audit",
]
