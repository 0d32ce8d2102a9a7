"""Staged all-pairs scheduling on a chain."""

import gc
import weakref
from random import Random

import pytest

import chainforge.core as core
from chainforge.core import (
    MAX_WIRES,
    Circuit,
    GateKind,
    _GateFields,
    ParseError,
    cnot,
    cphase,
    cz,
    emit_circuit,
    generic2,
    invert_permutation,
    parse_circuit,
    prune_trailing_swap_layers,
    swap,
    swap_flow_map,
)
from chainforge.linsynth import GF2Matrix, gauss_jordan, rearrange, schedule_parts
from chainforge.qft import QftSpec, qft_lnn
from chainforge.skeleton import (
    SkeletonSpec,
    Slot,
    all_pairs,
    emit_skeleton,
    n_stages,
    parse_skeleton,
    schedule_lnn,
    staged_schedule,
)


def _stage_pairs(n: int, stage: int) -> list[tuple[int, int]]:
    return [pr for pr in all_pairs(n) if sum(pr) == stage]


def test_stages_partition_all_pairs():
    for n in range(2, 9):
        plans, _ = staged_schedule(SkeletonSpec(n))
        assert len(plans) == n_stages(n)
        seen = []
        for s, plan in enumerate(plans, start=1):
            pairs = _stage_pairs(n, s)
            wires = [w for pr in pairs for w in pr]
            assert len(wires) == len(set(wires)), "stage must be wire-disjoint"
            assert len(plan.swaps) == len(plan.payload) == len(pairs)
            seen.extend(pairs)
        assert sorted(seen) == sorted(all_pairs(n))


def test_stage_sizes_for_five_wires():
    plans, _ = staged_schedule(SkeletonSpec(5))
    assert [len(plan.swaps) for plan in plans] == [1, 1, 2, 2, 2, 1, 1]
    assert _stage_pairs(5, 5) == [(1, 4), (2, 3)]


def test_slot_sites_follow_the_closed_form():
    """Slot (a, b), d = b - a, runs at stage a + b on sites (d - 1, d) from the
    identity, wire a on d - 1, and on the mirror (n - d, n - 1 - d) from the reversal."""
    for n in range(2, 13):
        spec = SkeletonSpec(n, payload={pr: cnot(*pr) for pr in all_pairs(n)})
        for placement in (tuple(range(n)), tuple(range(n - 1, -1, -1))):
            plans, final = staged_schedule(spec, placement)
            assert final == placement[::-1]
            loc = list(placement)  # wire -> site, replayed through the earlier stages' SWAPs
            for s, plan in enumerate(plans, start=1):
                for (a, b), g, sw in zip(_stage_pairs(n, s), plan.payload, plan.swaps, strict=True):
                    d = b - a
                    sites = (d - 1, d) if placement[0] == 0 else (n - d, n - 1 - d)
                    assert g == cnot(*sites)  # control on wire a's site
                    assert (loc[a], loc[b]) == sites
                    assert sw == swap(*sites)
                at = invert_permutation(loc)  # site -> wire
                for x, y in (sw.qubits for sw in plan.swaps):
                    loc[at[x]], loc[at[y]] = y, x
            assert tuple(loc) == final


def test_an_empty_placement_is_not_the_default():
    with pytest.raises(ValueError, match="placement"):
        staged_schedule(SkeletonSpec(3), ())
    for placement in ((0, 1, 2, 3), (1, 2, 0), (0, 2, 1)):
        with pytest.raises(ValueError, match="placement"):
            staged_schedule(SkeletonSpec(3), placement)


def test_spec_validation():
    with pytest.raises(ValueError):
        SkeletonSpec(1)
    with pytest.raises(ValueError):
        SkeletonSpec(4, absent=frozenset({(2, 1)}))
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
    assert schedule_lnn(spec).circuit.count(GateKind.GENERIC2) == 5


def test_full_schedule_shape():
    sc = schedule_lnn(SkeletonSpec(5))
    assert sc.circuit.depth() == 14
    assert sc.final_map == (4, 3, 2, 1, 0)  # the full reversal
    assert sc.circuit.count(GateKind.GENERIC2) == 10
    assert sc.circuit.count(GateKind.SWAP) == 10


def test_every_stage_swaps_all_slots():
    """SWAPs run on every slot whether or not the payload is present."""
    spec = SkeletonSpec(5, absent=frozenset(all_pairs(5)))
    sc = schedule_lnn(spec)
    assert sc.circuit.count(GateKind.SWAP) == 10
    assert sc.circuit.count(GateKind.GENERIC2) == 0
    assert sc.circuit.depth() == 7
    assert sc.final_map == (4, 3, 2, 1, 0)


def test_payload_direction_follows_placement():
    sc = schedule_lnn(SkeletonSpec(2, payload={(0, 1): cnot(1, 0)}))
    assert sc.circuit.gates[0] == cnot(1, 0)
    spec = SkeletonSpec(3, payload={(0, 2): cnot(2, 0)})
    plans, _ = staged_schedule(spec)
    # (0, 2) runs at stage 2; by then the stage-1 swap moved wire 0 to site 1
    gate = plans[1].payload[0]
    assert gate.kind is GateKind.CNOT
    assert gate.qubits == (2, 1)


def test_reversed_initial_placement_flips_back():
    plans, final = staged_schedule(SkeletonSpec(4), initial_placement=(3, 2, 1, 0))
    assert final == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        staged_schedule(SkeletonSpec(4), initial_placement=(1, 0, 3, 2))


def test_reversed_placement_stores_symmetric_payloads_ascending():
    spec = SkeletonSpec(3, payload={(0, 1): cz(0, 1), (0, 2): cphase(2, 0, 2), (1, 2): cnot(2, 1)})
    plans, _ = staged_schedule(spec, initial_placement=(2, 1, 0))
    payload = [g for plan in plans for g in plan.payload]
    assert payload == [cz(1, 2), cphase(2, 0, 1), cnot(1, 2)]
    c = Circuit(3, tuple(payload))
    assert parse_circuit(emit_circuit(c)) == c


def test_drop_last_swaps():
    spec = SkeletonSpec(4)
    full = schedule_lnn(spec)
    trimmed = schedule_lnn(spec, drop_last_swaps=True)
    plans, _ = staged_schedule(spec)
    assert len(trimmed.circuit) == len(full.circuit) - len(plans[-1].swaps)
    assert trimmed.final_map == swap_flow_map(trimmed.circuit)


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
    plans, _ = staged_schedule(spec)
    assert plans[0 + 2 - 1].payload == ()  # slot (a, b) runs in stage a + b
    # (1, 2) shares stage 3 with (0, 3); only the absent pair drops out
    # (stages 1 and 2 moved wire 0 next to wire 3, on site 2)
    assert plans[1 + 2 - 1].payload == (generic2(2, 3),)
    assert len(plans[1 + 2 - 1].swaps) == 2


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
    cases = [
        (SkeletonSpec(16), None),
        (_mixed_payload_spec(12), tuple(range(11, -1, -1))),
        (SkeletonSpec.on_pairs(16, {(a, b): Slot(GateKind.CPHASE, False, b - a + 1) for a, b in all_pairs(16)}),
         None),  # the QFT's slots
    ]
    for spec, placement in cases:  # specs and their templates are made first
        calls = []
        real = core.validate_gate
        monkeypatch.setattr(core, "validate_gate", lambda g: calls.append(g) or real(g))
        plans, _ = staged_schedule(spec, placement)
        monkeypatch.undo()
        gates = [g for plan in plans for g in (*plan.payload, *plan.swaps)]
        assert len(calls) <= len(set(gates)) < len(gates)
        assert len({id(g) for g in gates}) == len(set(gates))  # copies share one Gate


def test_building_part_and_qft_specs_validates_no_gate(monkeypatch):
    """The linsynth parts and the QFT go from their grids to site gates: no gate is checked but
    the QFT's one Hadamard, made by the public `h`."""
    rng = Random(7)
    matrices = [GF2Matrix.random_nonsingular(n, rng) for n in (6, 24)]
    parts = [rearrange(gauss_jordan(a.inverse())) for a in matrices]
    calls = []
    monkeypatch.setattr(core, "validate_gate", calls.append)
    scheduled = [schedule_parts(pt)[0] for pt in parts]
    monkeypatch.undo()
    assert calls == [] and all(scheduled)
    for spec in (QftSpec(24), QftSpec(24, 4)):
        monkeypatch.setattr(core, "validate_gate", calls.append)
        sc = qft_lnn(spec)
        monkeypatch.undo()
        assert [g.kind for g in calls] == [GateKind.H] and sc.circuit.count(GateKind.CPHASE) > 0
        calls.clear()


def _slot_and_public_specs(n: int, rng: Random) -> tuple[SkeletonSpec, SkeletonSpec]:
    """The same random slots as an on_pairs spec and as a public spec."""
    slots, payload = {}, {}
    for a, b in all_pairs(n):
        k = rng.randint(1, n)
        choices = (
            (cnot(a, b), Slot(GateKind.CNOT)),
            (cnot(b, a), Slot(GateKind.CNOT, True)),
            (cz(a, b), Slot(GateKind.CZ)),
            (cphase(k, a, b), Slot(GateKind.CPHASE, False, k)),
            (generic2(a, b), Slot(GateKind.GENERIC2)),
        )
        pick = rng.randrange(len(choices) + 1)
        if pick < len(choices):
            payload[a, b], slots[a, b] = choices[pick]
    absent = frozenset(pr for pr in all_pairs(n) if pr not in slots)
    return SkeletonSpec.on_pairs(n, slots), SkeletonSpec(n, absent, payload)


def test_on_pairs_spec_agrees_with_its_public_equivalent():
    rng = Random(11)
    for n in range(2, 13):
        spec, public = _slot_and_public_specs(n, rng)
        assert spec == public and public == spec
        assert len(spec.absent) == len(public.absent) and set(spec.absent) == public.absent
        assert spec.payload == public.payload and spec.payload is spec.payload
        assert all((pr in spec.absent) == (pr in public.absent) for pr in all_pairs(n))
        text = emit_skeleton(spec)
        assert text == emit_skeleton(public)
        reparsed = parse_skeleton(text)
        assert reparsed == spec
        for placement in (None, tuple(range(n - 1, -1, -1))):
            plans = staged_schedule(spec, placement)
            assert plans == staged_schedule(public, placement)
            assert plans == staged_schedule(reparsed, placement)
        for outside in ((1, 0), (0, n), (-1, 0), (0, 0), (0, 1, 2), ("a", "b"), "ab", 3):
            assert outside not in spec.absent and outside not in public.absent


def test_on_pairs_checks_each_listed_pair_and_entry():
    for pair in ((1, 0), (2, 2), (-1, 1), (0, 4)):
        with pytest.raises(ValueError):
            SkeletonSpec.on_pairs(4, {pair: Slot(GateKind.CZ)})
    with pytest.raises(ValueError, match="not a Slot"):
        SkeletonSpec.on_pairs(4, {(0, 1): (GateKind.CNOT, False, None)})
    with pytest.raises(ValueError):
        SkeletonSpec.on_pairs(1, {})
    spec = SkeletonSpec.on_pairs(4, {(0, 3): Slot(GateKind.CZ)})
    assert len(spec.absent) == 5 and (0, 3) not in spec.absent and (1, 2) in spec.absent
    assert schedule_lnn(spec).circuit.count(GateKind.CZ) == 1


def test_on_pairs_rejects_slots_that_describe_no_two_wire_gate():
    """Each would schedule, or fail only later in `payload`, `==` or `emit_skeleton`."""
    for bad in (
        Slot(GateKind.CZ, True),  # a direction on a symmetric gate
        Slot(GateKind.GENERIC2, True),
        Slot(GateKind.CNOT, 5),  # a direction is a bool
        Slot(GateKind.CNOT, False, 5),  # a parameter on a CNOT
        Slot(GateKind.SWAP, False, 2),
        Slot(GateKind.CPHASE),  # a cphase with no k
        Slot(GateKind.CPHASE, False, True),
        Slot(GateKind.H),  # a one-wire kind
        Slot(GateKind.P),
        Slot("cz"),
    ):
        with pytest.raises(ValueError, match=r"slot \(0, 2\)"):
            SkeletonSpec.on_pairs(3, {(0, 1): Slot(GateKind.CZ), (0, 2): bad})
    ok = (Slot(GateKind.CNOT, True), Slot(GateKind.CPHASE, False, 2), Slot(GateKind.SWAP))
    spec = SkeletonSpec.on_pairs(3, dict(zip(all_pairs(3), ok)))
    assert spec.payload == {(0, 1): cnot(1, 0), (0, 2): cphase(2, 0, 2), (1, 2): swap(1, 2)}


def test_on_pairs_checks_a_cphase_k_range():
    """The site gates are made unchecked, so `on_pairs` holds k to 1..MAX_WIRES itself."""
    for k in (0, -1, MAX_WIRES + 1):
        with pytest.raises(ValueError, match=rf"slot \(0, 2\).*1\.\.{MAX_WIRES}"):
            SkeletonSpec.on_pairs(3, {(0, 1): Slot(GateKind.CZ), (0, 2): Slot(GateKind.CPHASE, False, k)})
        with pytest.raises(ParseError) as err:  # a payload line is a gate line, checked by `Gate`
            parse_skeleton(f"skeleton 3\nabsent 0 1\npayload 0 2 cphase {k}\n")
        assert err.value.line == 3
    for k in (1, MAX_WIRES):
        sc = schedule_lnn(SkeletonSpec.on_pairs(3, {(0, 2): Slot(GateKind.CPHASE, False, k)}))
        # slot (0, 2) has d = 2, so it runs on sites (1, 2)
        assert [g for g in sc.circuit.gates if g.kind is GateKind.CPHASE] == [cphase(k, 1, 2)]


def test_specs_are_freed_without_the_cycle_collector():
    """A spec and its views form no reference cycle."""
    gc.disable()
    try:
        for make in (lambda: SkeletonSpec(4, frozenset({(0, 1)}), {(1, 2): cz(1, 2)}),
                     lambda: SkeletonSpec.on_pairs(4, {(0, 3): Slot(GateKind.CZ)})):
            spec = make()
            ref = weakref.ref(spec)
            assert len(spec.absent) > 0 and spec.payload and spec == spec
            assert schedule_lnn(spec).circuit.gates  # the spec keeps the gates its schedule made
            del spec
            assert ref() is None
    finally:
        gc.enable()
