"""Staged all-pairs scheduling on a chain."""

import gc
import weakref
from random import Random

import pytest

import chainforge.core as core
from chainforge.core import (
    MAX_WIRES,
    GateKind,
    _GateFields,
    ParseError,
    cnot,
    cphase,
    cz,
    generic2,
    invert_permutation,
    prune_trailing_swap_layers,
    swap,
)
from chainforge.linsynth import GF2Matrix, _part_pieces, _Parts, gauss_jordan
from chainforge.qft import QftSpec, qft_lnn
from chainforge.skeleton import (
    SkeletonSpec,
    all_pairs,
    emit_skeleton,
    n_stages,
    parse_skeleton,
    schedule_lnn,
)


def _count(circuit, kind) -> int:
    """How many of the circuit's gates are of `kind`."""
    return sum(g.kind is kind for g in circuit.gates)


def _stage_pairs(n: int, stage: int) -> list[tuple[int, int]]:
    return [pr for pr in all_pairs(n) if sum(pr) == stage]


def _stages(gates, n: int, present=lambda pr: True) -> list[tuple[tuple, tuple]]:
    """A schedule's gates cut into its 2n - 3 stages of (payload, SWAPs): stage s holds one
    payload per slot that `present` keeps, then one SWAP per slot."""
    stages, i = [], 0
    for s in range(1, n_stages(n) + 1):
        pairs = _stage_pairs(n, s)
        k = sum(map(present, pairs))
        stages.append((tuple(gates[i : i + k]), tuple(gates[i + k : i + k + len(pairs)])))
        i += k + len(pairs)
    assert i == len(gates)
    return stages


def _plans(spec: SkeletonSpec) -> list[tuple[tuple, tuple]]:
    """`schedule_lnn(spec)`'s stages."""
    return _stages(schedule_lnn(spec).circuit.gates, spec.n, lambda pr: pr not in spec.absent)


def test_stages_partition_all_pairs():
    for n in range(2, 9):
        plans = _plans(SkeletonSpec(n))
        assert len(plans) == n_stages(n)
        seen = []
        for s, (payload, swaps) in enumerate(plans, start=1):
            pairs = _stage_pairs(n, s)
            wires = [w for pr in pairs for w in pr]
            assert len(wires) == len(set(wires)), "stage must be wire-disjoint"
            assert [g.kind for g in payload] == [GateKind.GENERIC2] * len(pairs)
            assert [g.kind for g in swaps] == [GateKind.SWAP] * len(pairs)
            assert [g.qubits for g in payload] == [g.qubits for g in swaps]  # each slot's SWAP on its sites
            seen.extend(pairs)
        assert sorted(seen) == sorted(all_pairs(n))


def test_stage_sizes_for_five_wires():
    plans = _plans(SkeletonSpec(5))
    assert [len(swaps) for _, swaps in plans] == [1, 1, 2, 2, 2, 1, 1]
    assert _stage_pairs(5, 5) == [(1, 4), (2, 3)]


def test_slot_sites_follow_the_closed_form():
    """Slot (a, b), d = b - a, runs at stage a + b on sites (d - 1, d) from the
    identity, wire a on d - 1, and on the mirror (n - d, n - 1 - d) from the
    reversal, where an upper linear-synthesis part with no lower part before it enters on its
    reversed labels. A part marking every pair is the skeleton with CNOT(a, b) in every slot
    (a lower part), or in every slot of the reversed labels (an upper part)."""
    for n in range(2, 13):
        every, none = bytearray(n * n), bytes(n * n)
        for a, b in all_pairs(n):
            every[a * n + b] = 1
        scheduled = schedule_lnn(SkeletonSpec(n, payload={pr: cnot(*pr) for pr in all_pairs(n)}))
        for flip in (False, True):
            grids = (none, bytes(every[::-1])) if flip else (bytes(every), none)
            (gates, _), = _part_pieces(_Parts(n, tuple(range(n)), *grids), [])[0]
            assert flip or tuple(gates) == scheduled.circuit.gates
            placement = tuple(range(n - 1, -1, -1) if flip else range(n))
            loc = list(placement)  # wire -> site, replayed through the earlier stages' SWAPs
            for s, (payload, swaps) in enumerate(_stages(gates, n), start=1):
                for (a, b), g, sw in zip(_stage_pairs(n, s), payload, swaps, strict=True):
                    d = b - a
                    sites = (n - d, n - 1 - d) if flip else (d - 1, d)
                    assert g == cnot(*sites)  # control on wire a's site
                    assert (loc[a], loc[b]) == sites
                    assert sw == swap(*sites)
                at = invert_permutation(loc)  # site -> wire
                for x, y in (sw.qubits for sw in swaps):
                    loc[at[x]], loc[at[y]] = y, x
            assert tuple(loc) == placement[::-1]
        assert scheduled.final_map == tuple(range(n - 1, -1, -1))


def test_spec_validation():
    with pytest.raises(ValueError):
        SkeletonSpec(1)
    for pair in ((2, 1), (1, 0), (2, 2), (-1, 1), (0, 4)):  # each listed pair is checked
        with pytest.raises(ValueError, match="is not a pair with 0 <= a < b < 4"):
            SkeletonSpec(4, absent=frozenset({pair}))
    with pytest.raises(ValueError):
        SkeletonSpec(4, payload={(0, 1): cnot(0, 2)})
    with pytest.raises(ValueError):
        SkeletonSpec(4, absent=frozenset({(0, 1)}), payload={(0, 1): cnot(0, 1)})
    # gate fields that never went through validate_gate are not a payload
    for fields in ((GateKind.CNOT, (0, 1), None), _GateFields(GateKind.CNOT, (0, 1))):
        with pytest.raises(ValueError, match="is not a Gate"):
            SkeletonSpec(3, payload={(0, 1): fields})
    spec = SkeletonSpec(4, absent=frozenset({(0, 3)}))
    assert (0, 3) in spec.absent and (0, 1) not in spec.absent
    # the five present slots each hold one placeholder in the schedule
    assert _count(schedule_lnn(spec).circuit, GateKind.GENERIC2) == 5


def test_full_schedule_shape():
    sc = schedule_lnn(SkeletonSpec(5))
    assert sc.circuit.depth() == 14
    assert sc.final_map == (4, 3, 2, 1, 0)  # the full reversal
    assert _count(sc.circuit, GateKind.GENERIC2) == 10
    assert _count(sc.circuit, GateKind.SWAP) == 10


def test_every_stage_swaps_all_slots():
    """SWAPs run on every slot whether or not the payload is present."""
    spec = SkeletonSpec(5, absent=frozenset(all_pairs(5)))
    sc = schedule_lnn(spec)
    assert _count(sc.circuit, GateKind.SWAP) == 10
    assert _count(sc.circuit, GateKind.GENERIC2) == 0
    assert sc.circuit.depth() == 7
    assert sc.final_map == (4, 3, 2, 1, 0)


def test_payload_direction_follows_placement():
    sc = schedule_lnn(SkeletonSpec(2, payload={(0, 1): cnot(1, 0)}))
    assert sc.circuit.gates[0] == cnot(1, 0)
    spec = SkeletonSpec(3, payload={(0, 2): cnot(2, 0)})
    # (0, 2) runs at stage 2; by then the stage-1 swap moved wire 0 to site 1
    gate = _plans(spec)[1][0][0]
    assert gate.kind is GateKind.CNOT
    assert gate.qubits == (2, 1)


def test_reversed_initial_placement_flips_back():
    """Entered from the reversal, as an upper part with no lower part before it is on its reversed
    labels, a part runs the mirror image of the same grid's schedule from the identity, site i for
    site n - 1 - i. Each part flips the order, so one part leaves wire c on site n - 1 - c and two
    parts bring it back to site c."""
    rng = Random(3)
    for n in (2, 3, 6, 11):
        parts = gauss_jordan(GF2Matrix.random_nonsingular(n, rng).inverse())
        none, ident, back = bytes(n * n), tuple(range(n)), list(range(n - 1, -1, -1))
        (ahead, out), (behind, out_back) = (
            _part_pieces(_Parts(n, ident, *grids), []) for grids in ((parts.lower, none), (none, parts.lower[::-1]))
        )
        both = _Parts(n, ident, parts.lower, parts.lower[::-1])
        assert out == out_back == back and _part_pieces(both, [])[1] == [*ident]

        def mirror(g):
            a, b = (n - 1 - q for q in g.qubits)
            return cnot(a, b) if g.kind is GateKind.CNOT else swap(a, b)

        assert [[mirror(g) for g in gates] for gates, _ in ahead] == [gates for gates, _ in behind]


def test_drop_last_swaps():
    spec = SkeletonSpec(4)
    full = schedule_lnn(spec)
    trimmed = schedule_lnn(spec, drop_last_swaps=True)
    assert _plans(spec)[-1][1] == (swap(0, 1),)  # the last stage's lone SWAP, the last gate
    assert trimmed.circuit.gates == full.circuit.gates[:-1]
    assert trimmed.final_map == (3, 2, 0, 1)  # the reversal with its last two wires exchanged


def test_drop_last_swaps_and_pruning_are_different_rules():
    # drop removes the last stage's SWAPs; pruning removes trailing SWAP-only
    # ASAP layers, which here reach back into stage 2
    spec = SkeletonSpec(3, frozenset({(1, 2)}))
    dropped = schedule_lnn(spec, drop_last_swaps=True)
    assert dropped.circuit.gates == (generic2(0, 1), swap(0, 1), generic2(1, 2), swap(1, 2))
    assert dropped.final_map == (2, 0, 1)
    pruned = prune_trailing_swap_layers(schedule_lnn(spec))
    assert pruned.circuit.gates == (generic2(0, 1), swap(0, 1), generic2(1, 2))
    assert pruned.final_map == (1, 0, 2)


def test_stage_assignment_honors_absence():
    spec = SkeletonSpec(4, absent=frozenset({(0, 2), (1, 2)}))
    plans = _plans(spec)
    assert plans[0 + 2 - 1][0] == ()  # slot (a, b) runs in stage a + b
    # (1, 2) shares stage 3 with (0, 3); only the absent pair drops out
    # (stages 1 and 2 moved wire 0 next to wire 3, on site 2)
    assert plans[1 + 2 - 1] == ((generic2(2, 3),), (swap(2, 3), swap(0, 1)))  # slots (0, 3), then (1, 2)


def test_shared_wire_pairs_meet_in_lexicographic_order():
    """The staged order equals lexicographic order wherever pairs share a wire."""
    seen = [pr for s in range(1, n_stages(6) + 1) for pr in _stage_pairs(6, s)]
    for i, pr in enumerate(seen):
        for later in seen[i + 1 :]:
            if set(pr) & set(later):
                assert pr < later
    assert len(seen) == 15


def test_parse_emit_roundtrip():
    spec = SkeletonSpec(
        5,
        absent=frozenset({(0, 4), (1, 2)}),
        payload={(0, 1): cnot(1, 0), (2, 4): cz(2, 4)},
    )
    assert parse_skeleton(emit_skeleton(spec)) == spec
    # an explicit placeholder payload is written out, not dropped
    spec = SkeletonSpec(3, payload={(0, 1): generic2(0, 1)})
    assert emit_skeleton(spec) == "skeleton 3\npayload 0 1 g\n"
    assert parse_skeleton(emit_skeleton(spec)) == spec
    spec = parse_skeleton("skeleton 3\nabsent 0 1\npayload 1 2 cnot\n")
    # slot (0, 2) holds the placeholder, on sites (1, 2) after the stage-1
    # swap; slot (1, 2) holds its cnot, wire 1 then on site 0 and wire 2 on 1
    payload = [g for g in schedule_lnn(spec).circuit.gates if g.kind is not GateKind.SWAP]
    assert payload == [generic2(1, 2), cnot(0, 1)]
    # exact repeats, either wire order, are one line
    text = "skeleton 3\npayload 0 1 cz\npayload 1 0 cz\nabsent 0 2\nabsent 2 0\n"
    assert parse_skeleton(text) == SkeletonSpec(3, frozenset({(0, 2)}), {(0, 1): cz(0, 1)})


def test_parse_errors_name_their_line():
    for text, line in (
        ("skeleton 4\n\nabsent 1 1\n", 3),
        ("skeleton 4\nabsent 0 1\npayload 0 5 cz\n", 3),
        ("skeleton 99999999999\n", 1),
        ("skeleton 1\n", 1),
        # a pair given two different contents fails at the second line
        ("skeleton 4\npayload 0 1 cz\npayload 0 1 cnot\n", 3),
        ("skeleton 4\npayload 0 1 cnot\npayload 1 0 cnot\n", 3),
        ("skeleton 4\npayload 0 2 cphase 2\n\npayload 0 2 cphase 3\n", 4),
        ("skeleton 4\nabsent 0 1\npayload 0 1 cz\n", 3),
        ("skeleton 4\npayload 0 1 cz\nabsent 1 0\n", 3),
        # a payload is a two-qubit gate with exactly the arguments its kind takes
        ("skeleton 4\nabsent 0 2\npayload 0 1 h\n", 3),
        ("skeleton 4\nabsent 0 2\n# k for a cnot\npayload 0 1 cnot 5\n", 4),
        ("skeleton 4\npayload 0 1 cz\npayload 0 2 cphase x\n", 3),
    ):
        with pytest.raises(ParseError) as err:
            parse_skeleton(text)
        assert err.value.line == line, text


def _mixed_payload_spec(n: int) -> SkeletonSpec:
    """cnot (both directions), cz, cphase and placeholder slots, some absent."""
    payload = {}
    absent = set()
    for i, (a, b) in enumerate(all_pairs(n)):
        pick = i % 6
        if pick == 0:
            payload[a, b] = cnot(a, b)
        elif pick == 1:
            payload[a, b] = cnot(b, a)
        elif pick == 2:
            payload[a, b] = cz(a, b)
        elif pick == 3:
            payload[a, b] = cphase(b - a + 1, a, b)
        elif pick == 4:
            absent.add((a, b))
    return SkeletonSpec(n, frozenset(absent), payload)


def test_staged_schedule_makes_each_distinct_gate_once(monkeypatch):
    """`schedule_lnn`, stage by stage, makes one gate object per distinct site gate."""
    cases = [
        SkeletonSpec(16),
        _mixed_payload_spec(12),
        SkeletonSpec(16, payload={(a, b): cphase(b - a + 1, a, b) for a, b in all_pairs(16)}),  # QFT slots
    ]
    for spec in cases:  # specs and their templates are made first
        calls = []
        real = core.validate_gate
        monkeypatch.setattr(core, "validate_gate", lambda g: calls.append(g) or real(g))
        gates = schedule_lnn(spec).circuit.gates
        monkeypatch.undo()
        assert len(calls) <= len(set(gates)) < len(gates)
        assert len({id(g) for g in gates}) == len(set(gates))  # copies share one Gate


def test_building_part_and_qft_specs_validates_no_gate(monkeypatch):
    """The linsynth parts and the QFT go from their grids to site gates: no gate is checked but
    the QFT's one Hadamard, made by the public `h`."""
    rng = Random(7)
    matrices = [GF2Matrix.random_nonsingular(n, rng) for n in (6, 24)]
    parts = [gauss_jordan(a.inverse()) for a in matrices]
    calls = []
    monkeypatch.setattr(core, "validate_gate", calls.append)
    scheduled = [_part_pieces(pt, [])[0] for pt in parts]
    monkeypatch.undo()
    assert calls == [] and all(scheduled)
    for spec in (QftSpec(24), QftSpec(24, 4)):
        monkeypatch.setattr(core, "validate_gate", calls.append)
        sc = qft_lnn(spec)
        monkeypatch.undo()
        assert [g.kind for g in calls] == [GateKind.H] and _count(sc.circuit, GateKind.CPHASE) > 0
        calls.clear()


def _random_payload(n: int, rng: Random) -> dict:
    """Random payloads of every kind, cnot both ways, on a random share of the pairs."""
    payload = {}
    for a, b in all_pairs(n):
        choices = (cnot(a, b), cnot(b, a), cz(a, b), cphase(rng.randint(1, n), a, b), generic2(a, b))
        pick = rng.randrange(len(choices) + 1)
        if pick < len(choices):
            payload[a, b] = choices[pick]
    return payload


def test_random_public_specs_round_trip_through_text():
    """A spec keeps the absent set it was given and the payload gates; its text reparses to an equal
    spec that schedules the same."""
    rng = Random(11)
    for n in range(2, 13):
        payload = _random_payload(n, rng)
        absent = frozenset(pr for pr in all_pairs(n) if pr not in payload)
        spec = SkeletonSpec(n, absent, payload)
        assert spec.absent is absent and spec.payload == payload and spec.payload is spec.payload
        reparsed = parse_skeleton(emit_skeleton(spec))
        assert reparsed == spec and spec == reparsed
        for drop in (False, True):
            assert schedule_lnn(spec, drop) == schedule_lnn(reparsed, drop)


def test_a_cphase_payload_k_range():
    """A payload line is a gate line, checked by `Gate`; k = 1 and k = MAX_WIRES schedule."""
    for k in (0, -1, MAX_WIRES + 1):
        with pytest.raises(ParseError) as err:
            parse_skeleton(f"skeleton 3\nabsent 0 1\npayload 0 2 cphase {k}\n")
        assert err.value.line == 3
    for k in (1, MAX_WIRES):
        sc = schedule_lnn(SkeletonSpec(3, frozenset({(0, 1), (1, 2)}), {(0, 2): cphase(k, 0, 2)}))
        # slot (0, 2) has d = 2, so it runs on sites (1, 2)
        assert [g for g in sc.circuit.gates if g.kind is GateKind.CPHASE] == [cphase(k, 1, 2)]


def test_specs_are_freed_without_the_cycle_collector():
    """A spec and its views form no reference cycle."""
    gc.disable()
    try:
        for make in (lambda: SkeletonSpec(4, frozenset({(0, 1)}), {(1, 2): cz(1, 2)}),
                     lambda: SkeletonSpec(4, frozenset(all_pairs(4)) - {(0, 3)}, {(0, 3): cz(0, 3)})):
            spec = make()
            ref = weakref.ref(spec)
            assert len(spec.absent) > 0 and spec.payload and spec == spec
            assert schedule_lnn(spec).circuit.gates  # the spec keeps the gates its schedule made
            del spec
            assert ref() is None
    finally:
        gc.enable()
