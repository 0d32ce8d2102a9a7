"""The grid builders and present-pair skeleton specs against the all-pairs builders they replaced.

`ref_part_specs`, `ref_skeleton_for` and `ref_staged_schedule` below are
`linsynth._part_specs`, `qft._skeleton_for` and `skeleton.staged_schedule`
as they stood before specs kept a slot map, copied unchanged apart from
their names and docstrings: each spec is a public `SkeletonSpec` with an
all-pairs `absent` complement and one template `Gate` per present pair.
`synthesize_lnn`, `schedule_stabilizer` and `qft_lnn` now go from grids to
stages with no spec; the references are chained here the way they were.
`ref_staged_schedule` walks every slot's wires from site to site; its
`stage_pairs` is the skeleton's stage listing as it stood then, kept here
since the scheduler reads sites in closed form. It keeps its `loc` walk,
which also gives its final placement, but no longer records each stage's
placement, since plans hold only (payload, swaps). Plans, final placements
and whole circuits must be identical on seeded cases.
"""

from random import Random
from typing import Sequence

import chainforge.linsynth as linsynth
from chainforge.core import Circuit, Gate, GateKind, cnot, cphase, cz, generic2, h, p, swap
from chainforge.linsynth import GF2Matrix, gauss_jordan, rearrange, schedule_parts, synthesize_lnn
from chainforge.qft import QftSpec, qft_lnn
from chainforge.skeleton import (
    SkeletonSpec,
    Slot,
    StagePlan,
    _check_placement,
    all_pairs,
    n_stages,
    staged_schedule,
)
from chainforge.stabilizer import StageDecomposition, random_decomposition, schedule_stabilizer

SEED = 20261019

Pair = tuple[int, int]


def stage_pairs(n: int, stage: int) -> list[Pair]:
    """Slots of the given stage (1-based, 1..2n-3), smaller wire ascending."""
    if not 1 <= stage <= n_stages(n):
        raise ValueError(f"stage {stage} outside 1..{n_stages(n)}")
    return [(a, stage - a) for a in range(max(0, stage - n + 1), (stage + 1) // 2)]


def ref_part_specs(parts: linsynth.RearrangedParts) -> list[tuple[SkeletonSpec, bool]]:
    """Reference: each part's absent set is the complement over all pairs."""
    n = parts.n
    specs: list[tuple[SkeletonSpec, bool]] = []
    pivot_pairs = {(c, j): cnot(j, c) for c, j in parts.pivots}
    if pivot_pairs:
        absent = frozenset(pr for pr in all_pairs(n) if pr not in pivot_pairs)
        specs.append((SkeletonSpec(n, absent, pivot_pairs), False))
    if parts.lower:
        absent = frozenset(pr for pr in all_pairs(n) if pr not in parts.lower)
        payload = {(a, b): cnot(a, b) for a, b in parts.lower}
        specs.append((SkeletonSpec(n, absent, payload), False))
    if parts.upper:
        flipped = {(n - 1 - l, n - 1 - k): cnot(n - 1 - l, n - 1 - k) for k, l in parts.upper}
        absent = frozenset(pr for pr in all_pairs(n) if pr not in flipped)
        specs.append((SkeletonSpec(n, absent, flipped), True))
    return specs


def ref_skeleton_for(spec: QftSpec) -> SkeletonSpec:
    """Reference: one template cphase per kept pair, the rest absent."""
    absent = frozenset(pr for pr in all_pairs(spec.n) if not spec.keeps(*pr))
    payload = {
        (a, b): cphase(b - a + 1, a, b)
        for a, b in all_pairs(spec.n)
        if spec.keeps(a, b)
    }
    return SkeletonSpec(spec.n, absent, payload)


def ref_staged_schedule(
    spec: SkeletonSpec, initial_placement: Sequence[int] | None = None
) -> tuple[list[StagePlan], tuple[int, ...]]:
    """Reference: reads `absent` and the payload `Gate`s slot by slot."""
    n = spec.n
    loc = list(_check_placement(initial_placement or range(n), n))
    absent, payload_of = spec.absent, spec.payload
    cnot_kind, generic_kind = GateKind.CNOT, GateKind.GENERIC2
    # a chain has only n-1 site pairs, so each re-placed payload, keyed by
    # (kind, sites, param), and each SWAP is made and validated once per call
    made: dict[tuple, Gate] = {}
    swap_on: dict[Pair, Gate] = {}
    plans: list[StagePlan] = []
    for s in range(1, n_stages(n) + 1):
        payload: list[Gate] = []
        swaps: list[Gate] = []
        for a, b in stage_pairs(n, s):
            sa, sb = loc[a], loc[b]
            sites = (sa, sb) if sa < sb else (sb, sa)
            if (a, b) not in absent:
                g = payload_of.get((a, b))
                if g is None:
                    key = (generic_kind, sites, None)
                elif g.kind is cnot_kind:  # a CNOT keeps its direction
                    key = (cnot_kind, (loc[g.qubits[0]], loc[g.qubits[1]]), None)
                else:  # a symmetric gate stores its sites ascending
                    key = (g.kind, sites, g.param)
                pg = made.get(key)
                if pg is None:
                    pg = made[key] = Gate(*key)
                payload.append(pg)
            sw = swap_on.get(sites)
            if sw is None:
                sw = swap_on[sites] = swap(*sites)
            swaps.append(sw)
            loc[a], loc[b] = sb, sa
        plans.append(StagePlan(tuple(payload), tuple(swaps)))
    return plans, tuple(loc)


def _random_parts(n: int, rng: Random) -> linsynth.RearrangedParts:
    return rearrange(gauss_jordan(GF2Matrix.random_nonsingular(n, rng).inverse()))


def _ref_schedule_parts(parts, placement) -> tuple[list[Gate], tuple[int, ...]]:
    """`schedule_parts`' chaining over the reference specs and scheduler."""
    n, gates = parts.n, []
    for spec, reversed_labels in ref_part_specs(parts):
        entry = tuple(placement[n - 1 - w] for w in range(n)) if reversed_labels else placement
        plans, out = ref_staged_schedule(spec, entry)
        gates.extend(g for plan in plans for g in (*plan.payload, *plan.swaps))
        placement = tuple(out[n - 1 - w] for w in range(n)) if reversed_labels else out
    return gates, placement


def _ref_synthesize(a: GF2Matrix) -> tuple[Circuit, tuple[int, ...]]:
    """`synthesize_lnn` over the reference specs and scheduler."""
    gates, final = _ref_schedule_parts(rearrange(gauss_jordan(a.inverse())), tuple(range(a.n)))
    return Circuit(a.n, tuple(gates)), final


def _ref_schedule_stabilizer(d: StageDecomposition) -> tuple[Circuit, tuple[int, ...]]:
    """`schedule_stabilizer` over the reference specs and scheduler, one threaded placement."""
    placement, gates = tuple(range(d.n)), []
    for kind, content in d.stages():
        if kind == "c":
            part_gates, placement = _ref_schedule_parts(rearrange(gauss_jordan(content.inverse())), placement)
            gates += part_gates
        else:
            gates += [(h if kind == "h" else p)(placement[w]) for w in range(d.n) if content >> w & 1]
    return Circuit(d.n, tuple(gates)), placement


def _ref_qft_lnn(spec: QftSpec, scheduled=None) -> tuple[Circuit, tuple[int, ...]]:
    """`qft_lnn` over the reference spec and scheduler (or its given result): H(a) before stage
    2a+1, H(n-1) last, all on site 0."""
    plans, final = scheduled or ref_staged_schedule(ref_skeleton_for(spec))
    gates = []
    for idx, plan in enumerate(plans):
        gates += [h(0)] * (idx % 2 == 0) + [*plan.payload, *plan.swaps]
    return Circuit(spec.n, (*gates, h(0))), final


def test_linsynth_parts_match_the_reference():
    rng = Random(SEED)
    for n in range(2, 41):
        parts = _random_parts(n, rng)
        ref = ref_part_specs(parts)
        for placement in (tuple(range(n)), tuple(range(n - 1, -1, -1))):
            pieces, final = linsynth._part_pieces(parts, placement)
            assert len(pieces) == len(ref)
            for (gates, made), (ref_spec, reversed_labels) in zip(pieces, ref):
                entry = placement[::-1] if reversed_labels else placement
                plans, _ = ref_staged_schedule(ref_spec, entry)
                assert gates == [g for plan in plans for g in (*plan.payload, *plan.swaps)]
                assert {id(g) for g in gates} == {id(g) for g in made}  # each made gate occurs
                placement = placement[::-1]
            assert final == placement
        for placement in (tuple(range(n)), tuple(range(n - 1, -1, -1))):
            assert schedule_parts(parts, placement) == _ref_schedule_parts(parts, placement)


def test_qft_specs_match_the_reference_at_every_threshold():
    for n in range(2, 41):
        for m in (None, *range(1, n + 1)):
            spec, ref = QftSpec(n, m), ref_skeleton_for(QftSpec(n, m))
            scheduled = ref_staged_schedule(ref)
            assert staged_schedule(ref) == scheduled
            sc = qft_lnn(spec)
            assert (sc.circuit, sc.final_map) == _ref_qft_lnn(spec, scheduled)


def _mixed_spec(n: int, rng: Random) -> SkeletonSpec:
    """Random cnot (both ways), cz, cphase, explicit and implicit placeholders, absences."""
    absent, payload = set(), {}
    for a, b in all_pairs(n):
        k = rng.randint(1, n)
        choices = (cnot(a, b), cnot(b, a), cz(a, b), cphase(k, a, b), generic2(a, b))
        pick = rng.randrange(len(choices) + 2)
        if pick == len(choices):
            absent.add((a, b))
        elif pick < len(choices):
            payload[a, b] = choices[pick]
    return SkeletonSpec(n, frozenset(absent), payload)


def _on_pairs_spec(n: int, rng: Random) -> SkeletonSpec:
    """Random listed slots of every kind, cnot both ways; the rest absent."""
    slots = {}
    for a, b in all_pairs(n):
        choices = (
            Slot(GateKind.CNOT),
            Slot(GateKind.CNOT, True),
            Slot(GateKind.CZ),
            Slot(GateKind.CPHASE, False, rng.randint(1, n)),
            Slot(GateKind.GENERIC2),
        )
        pick = rng.randrange(len(choices) + 1)
        if pick < len(choices):
            slots[a, b] = choices[pick]
    return SkeletonSpec.on_pairs(n, slots)


def test_mixed_public_specs_match_the_reference():
    rng = Random(SEED + 1)
    for n in range(2, 41):
        spec = _mixed_spec(n, rng)
        for placement in (None, tuple(range(n - 1, -1, -1))):
            assert staged_schedule(spec, placement) == ref_staged_schedule(spec, placement)


def test_on_pairs_specs_match_the_reference():
    rng = Random(SEED + 3)
    for n in range(2, 41):
        spec = _on_pairs_spec(n, rng)
        for placement in (None, tuple(range(n - 1, -1, -1))):
            assert staged_schedule(spec, placement) == ref_staged_schedule(spec, placement)


def test_whole_circuits_match_the_reference():
    rng = Random(SEED + 2)
    matrices = [GF2Matrix.random_nonsingular(n, rng) for n in (2, 3, 8, 17, 32)]
    decompositions = [random_decomposition(n, rng) for n in (2, 5, 16)]
    qfts = [QftSpec(n) for n in (2, 3, 9, 24)] + [QftSpec(n, m) for n, m in ((3, 1), (9, 3), (24, 5))]
    new = (
        [synthesize_lnn(a) for a in matrices]
        + [schedule_stabilizer(d) for d in decompositions]
        + [qft_lnn(spec) for spec in qfts]
    )
    ref = (
        [_ref_synthesize(a) for a in matrices]
        + [_ref_schedule_stabilizer(d) for d in decompositions]
        + [_ref_qft_lnn(spec) for spec in qfts]
    )
    assert [(sc.circuit, sc.final_map) for sc in new] == ref
