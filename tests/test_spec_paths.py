"""The grid builders and present-pair skeleton specs against the all-pairs builders they replaced.

`ref_part_specs`, `ref_skeleton_for` and `ref_staged_schedule` below are
`linsynth._part_specs`, `qft._skeleton_for` and `skeleton.staged_schedule`
as they stood before specs kept a slot map, copied unchanged apart from
their names and docstrings, and apart from `ref_part_specs` reading the
parts' grids through `grid_pairs` as the pair sets they were then: each
spec is a public `SkeletonSpec` with an all-pairs `absent` complement and
one template `Gate` per present pair.
`synthesize_lnn`, `schedule_stabilizer` and `qft_lnn` now go from grids to
stages with no spec, and every linear-synthesis part sequence enters from
the identity; the references are chained here the way they were, and the
exit placement read through the pivot columns.
`ref_staged_schedule` walks every slot's wires from site to site from a
placement tuple; its `stage_pairs` and `StagePlan` are the skeleton's
stage listing and stage type as they stood then, kept here since the
scheduler reads sites in closed form and returns only the flattened gates.
It keeps its `loc` walk, which also gives its final placement. Gates,
final placements and whole circuits must be identical on seeded cases:
`schedule_lnn(spec)` and `linsynth._part_pieces(parts, [])` against the
reference from the identity.
"""

from random import Random
from typing import NamedTuple, Sequence

import chainforge.linsynth as linsynth
from chainforge.core import Circuit, Gate, GateKind, cnot, cphase, cz, generic2, h, p, swap
from chainforge.linsynth import GF2Matrix, gauss_jordan, synthesize_lnn
from chainforge.qft import QftSpec, qft_lnn
from chainforge.skeleton import SkeletonSpec, all_pairs, n_stages, schedule_lnn
from chainforge.stabilizer import StageDecomposition, random_decomposition, schedule_stabilizer
from test_linsynth import chained, grid_pairs

SEED = 20261019

Pair = tuple[int, int]


def stage_pairs(n: int, stage: int) -> list[Pair]:
    """Slots of the given stage (1-based, 1..2n-3), smaller wire ascending."""
    if not 1 <= stage <= n_stages(n):
        raise ValueError(f"stage {stage} outside 1..{n_stages(n)}")
    return [(a, stage - a) for a in range(max(0, stage - n + 1), (stage + 1) // 2)]


class StagePlan(NamedTuple):
    """Site-level gates for one stage of the schedule."""

    payload: tuple[Gate, ...]
    swaps: tuple[Gate, ...]


def _order(n: int, flip: bool) -> tuple[int, ...]:
    """The placement laid along the chain in order, or with `flip` reversed."""
    return tuple(range(n - 1, -1, -1) if flip else range(n))


def ref_part_specs(parts) -> list[tuple[SkeletonSpec, bool]]:
    """Reference: each part's absent set is the complement over all pairs."""
    n = parts.n
    lower, upper = grid_pairs(parts.lower, n), grid_pairs(parts.upper, n)
    specs: list[tuple[SkeletonSpec, bool]] = []
    if lower:
        absent = frozenset(pr for pr in all_pairs(n) if pr not in lower)
        payload = {(a, b): cnot(a, b) for a, b in lower}
        specs.append((SkeletonSpec(n, absent, payload), False))
    if upper:
        flipped = {(n - 1 - l, n - 1 - k): cnot(n - 1 - l, n - 1 - k) for k, l in upper}
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
    loc = list(initial_placement or range(n))
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


def _flat(scheduled: tuple[list[StagePlan], tuple[int, ...]]) -> tuple[list[Gate], tuple[int, ...]]:
    """Stage plans as one gate list, each stage's payload then SWAPs, beside the final placement."""
    plans, final = scheduled
    return [g for plan in plans for g in (*plan.payload, *plan.swaps)], final


def ref_gates(spec: SkeletonSpec) -> tuple[list[Gate], tuple[int, ...]]:
    """The reference's gates and final placement from the identity, as `schedule_lnn` gives them."""
    return _flat(ref_staged_schedule(spec))


def _random_parts(n: int, rng: Random):
    return gauss_jordan(GF2Matrix.random_nonsingular(n, rng).inverse())


def _ref_schedule_parts(parts) -> tuple[list[Gate], tuple[int, ...]]:
    """The parts' chaining over the reference specs and scheduler from the identity, beside the
    exit site of each column's wire: the wire that starts on site c carries column cols[c]."""
    n, gates, placement = parts.n, [], tuple(range(parts.n))
    for spec, reversed_labels in ref_part_specs(parts):
        entry = tuple(placement[n - 1 - w] for w in range(n)) if reversed_labels else placement
        plans, out = ref_staged_schedule(spec, entry)
        gates.extend(g for plan in plans for g in (*plan.payload, *plan.swaps))
        placement = tuple(out[n - 1 - w] for w in range(n)) if reversed_labels else out
    sites = [0] * n
    for c, col in enumerate(parts.cols):
        sites[col] = placement[c]
    return gates, tuple(sites)


def _ref_synthesize(a: GF2Matrix) -> tuple[Circuit, tuple[int, ...]]:
    """`synthesize_lnn` over the reference specs and scheduler."""
    gates, final = _ref_schedule_parts(gauss_jordan(a.inverse()))
    return Circuit(a.n, tuple(gates)), final


def _ref_schedule_stabilizer(d: StageDecomposition) -> tuple[Circuit, tuple[int, ...]]:
    """`schedule_stabilizer` over the reference specs and scheduler, one threaded placement: each C
    stage eliminates C^-1 with row w on wire w's site."""
    placement, gates = tuple(range(d.n)), []
    for kind, content in d.stages():
        if kind == "c":
            inverse = content.inverse()
            moved = GF2Matrix(d.n, tuple(inverse.rows[placement.index(site)] for site in range(d.n)))
            part_gates, placement = _ref_schedule_parts(gauss_jordan(moved))
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
    """Each part's gates, and the exit placement."""
    rng = Random(SEED)
    for n in range(2, 41):
        parts = _random_parts(n, rng)
        ref = ref_part_specs(parts)
        pieces, sites = linsynth._part_pieces(parts, [])
        assert len(pieces) == len(ref)
        flip = False
        for (gates, made), (ref_spec, reversed_labels) in zip(pieces, ref):
            seen = _order(n, flip != reversed_labels)  # reversed labels see the other order
            assert gates == _flat(ref_staged_schedule(ref_spec, seen))[0]
            assert {id(g) for g in gates} == {id(g) for g in made}  # each made gate occurs
            flip = not flip
        assert chained(parts) == _ref_schedule_parts(parts)


def test_qft_specs_match_the_reference_at_every_threshold():
    for n in range(2, 41):
        for m in (None, *range(1, n + 1)):
            spec, ref = QftSpec(n, m), ref_skeleton_for(QftSpec(n, m))
            scheduled = ref_staged_schedule(ref)
            sc = schedule_lnn(ref)
            assert (list(sc.circuit.gates), sc.final_map) == _flat(scheduled)
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


def _listed_only_spec(n: int, rng: Random) -> SkeletonSpec:
    """Random listed payloads of every kind, cnot both ways; every unlisted pair absent."""
    payload = {}
    for a, b in all_pairs(n):
        choices = (cnot(a, b), cnot(b, a), cz(a, b), cphase(rng.randint(1, n), a, b), generic2(a, b))
        pick = rng.randrange(len(choices) + 1)
        if pick < len(choices):
            payload[a, b] = choices[pick]
    return SkeletonSpec(n, frozenset(pr for pr in all_pairs(n) if pr not in payload), payload)


def _check_against_the_reference(spec: SkeletonSpec) -> None:
    """`schedule_lnn` gives the reference's gates and final placement; dropping the last SWAPs
    drops the reference's last gate, the lone SWAP of slot (n - 2, n - 1)."""
    sc, (gates, final) = schedule_lnn(spec), ref_gates(spec)
    assert (list(sc.circuit.gates), sc.final_map) == (gates, final)
    assert list(schedule_lnn(spec, drop_last_swaps=True).circuit.gates) == gates[:-1]


def test_mixed_public_specs_match_the_reference():
    rng = Random(SEED + 1)
    for n in range(2, 41):
        _check_against_the_reference(_mixed_spec(n, rng))


def test_listed_only_specs_match_the_reference():
    rng = Random(SEED + 3)
    for n in range(2, 41):
        _check_against_the_reference(_listed_only_spec(n, rng))


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
