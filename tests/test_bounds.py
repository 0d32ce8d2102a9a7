"""Lower-bound tables, the stage audit and the exhaustive scheduler."""

from fractions import Fraction

import pytest

from chainforge.bounds import (
    AuditWindow,
    BoundArch,
    BoundQuery,
    Model,
    brute_force_min_depth,
    classify_layers,
    lower_bound,
    stage_audit,
)
from chainforge.core import Architecture, Circuit, GateKind, cnot, h, p, swap
from chainforge.qft import QftSpec, qft_lnn
from chainforge.skeleton import SkeletonSpec, schedule_lnn


def test_lower_bound_coefficients():
    cases = [
        (Model.A, BoundArch.LNN, None, Fraction(10, 3)),
        (Model.B, BoundArch.LNN, None, Fraction(3, 2)),
        (Model.A, BoundArch.GRID, None, Fraction(3)),
        (Model.B, BoundArch.GRID, None, Fraction(5, 4)),
        (Model.A, BoundArch.BOUNDED_DEGREE, 3, Fraction(8, 3)),
        (Model.B, BoundArch.BOUNDED_DEGREE, 3, Fraction(4, 3)),
        (Model.B, BoundArch.BOUNDED_DEGREE, 4, Fraction(5, 4)),
        (Model.A, BoundArch.BOUNDED_DEGREE, 2, Fraction(3)),
    ]
    for model, arch, k, expected in cases:
        got = lower_bound(BoundQuery(model, arch, 16, k))
        assert got.coefficient == expected, (model, arch, k)


def test_degree_four_matches_grid_row():
    grid_b = lower_bound(BoundQuery(Model.B, BoundArch.GRID, 12))
    deg4_b = lower_bound(BoundQuery(Model.B, BoundArch.BOUNDED_DEGREE, 12, k=4))
    assert grid_b.coefficient == deg4_b.coefficient == Fraction(5, 4)


def test_formula_strings():
    assert lower_bound(BoundQuery(Model.A, BoundArch.LNN, 8)).formula == "(10/3)n + O(1)"
    assert lower_bound(BoundQuery(Model.A, BoundArch.GRID, 8)).formula == "3n + O(1)"
    assert (
        lower_bound(BoundQuery(Model.B, BoundArch.BOUNDED_DEGREE, 8, k=2)).formula
        == "(3/2)n + O(1)"
    )


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(Model.A, BoundArch.BOUNDED_DEGREE, 8)
    with pytest.raises(ValueError):
        BoundQuery(Model.A, BoundArch.BOUNDED_DEGREE, 8, k=1)
    with pytest.raises(ValueError):
        BoundQuery(Model.A, BoundArch.LNN, 8, k=3)
    with pytest.raises(ValueError):
        BoundQuery(Model.A, BoundArch.LNN, 1)


def test_classify_layers_full_skeleton_alternates():
    sc = schedule_lnn(SkeletonSpec(4))
    tags = classify_layers(sc.circuit)
    assert tags == [(i, "LS"[i % 2]) for i in range(10)]


def test_classify_layers_reads_gate_order():
    c = Circuit(4, (h(0), cnot(0, 1), swap(2, 3), cnot(1, 2)))
    assert classify_layers(c) == [(1, "L"), (2, "S"), (3, "L")]
    # the same gates with the swap written last form one computational stage
    reordered = Circuit(4, (h(0), cnot(0, 1), cnot(1, 2), swap(2, 3)))
    assert classify_layers(reordered) == [(1, "L"), (2, "L"), (3, "S")]


def test_classify_layers_skips_single_qubit_circuits():
    assert classify_layers(Circuit(2, (h(0), p(1)))) == []


def test_audit_passes_generated_schedules():
    for n in (2, 5, 9):
        report = stage_audit(schedule_lnn(SkeletonSpec(n)))
        assert report.ok
        assert report.l_count == report.s_count == max(2 * n - 3, 0)
    report = stage_audit(qft_lnn(QftSpec(6)))
    assert report.ok
    assert report.l_count == 2 * 6 - 3


def test_audit_flags_hand_built_llll():
    llll = Circuit(2, tuple(cnot(0, 1) for _ in range(4)))
    report = stage_audit(llll)
    assert not report.ok
    assert report.l_count == 4 and report.s_count == 0
    assert report.violations_3l1s == (
        AuditWindow(0, 2, 0, 1),
        AuditWindow(1, 3, 0, 1),
    )
    assert report.violations_4l2s == (AuditWindow(0, 3, 0, 2),)


def test_audit_flags_swap_stripped_schedule():
    full = schedule_lnn(SkeletonSpec(8))
    stripped = Circuit(
        8, tuple(g for g in full.circuit.gates if g.kind is not GateKind.SWAP)
    )
    report = stage_audit(stripped)
    assert not report.ok
    assert report.violations_3l1s and report.violations_4l2s
    assert report.s_count == 0


def test_audit_tolerates_single_swap_gap():
    # L S L L S L: every three-L window sees a swap layer, every four-L window two
    gates = (cnot(0, 1), swap(0, 1), cnot(0, 1), cnot(0, 1), swap(0, 1), cnot(0, 1))
    assert stage_audit(Circuit(2, gates)).ok
    # L L S L L satisfies the three-L rule but not the four-L rule
    gates = (cnot(0, 1), cnot(0, 1), swap(0, 1), cnot(0, 1), cnot(0, 1))
    report = stage_audit(Circuit(2, gates))
    assert report.violations_3l1s == ()
    assert report.violations_4l2s == (AuditWindow(0, 4, 1, 2),)


def test_ratio_full_schedule_near_six_fifths():
    n = 60
    sc = schedule_lnn(SkeletonSpec(n))
    q = BoundQuery(Model.A, BoundArch.LNN, n)
    ratio = Fraction(sc.circuit.depth()) / (lower_bound(q).coefficient * n)
    assert ratio == Fraction(117, 100)
    assert abs(ratio - Fraction(6, 5)) <= Fraction(6, 5) * Fraction(5, 100)


def test_ratio_model_b():
    n = 30
    sc = schedule_lnn(SkeletonSpec(n))
    q = BoundQuery(Model.B, BoundArch.LNN, n)
    ratio = Fraction(sc.circuit.depth()) / (lower_bound(q).coefficient * n)
    assert abs(ratio - Fraction(8, 3)) <= Fraction(8, 3) * Fraction(10, 100)


def test_brute_force_tiny_values():
    assert brute_force_min_depth(2, Model.A, Architecture.lnn(2)) == 1
    assert brute_force_min_depth(2, Model.B, Architecture.lnn(2)) == 1
    assert brute_force_min_depth(3, Model.A, Architecture.lnn(3)) == 4
    assert brute_force_min_depth(3, Model.B, Architecture.lnn(3)) == 4
    assert brute_force_min_depth(4, Model.B, Architecture.lnn(4)) == 6
    assert brute_force_min_depth(4, Model.A, Architecture.lnn(4)) == 9


def test_brute_force_model_b_never_beats_a():
    for n in (3, 4, 5):
        arch = Architecture.lnn(n)
        b = brute_force_min_depth(n, Model.B, arch)
        a = brute_force_min_depth(n, Model.A, arch)
        assert b <= a
        assert 2 * n - 3 <= b
        assert a <= 4 * n - 6


def test_brute_force_rejects_large_or_mismatched():
    with pytest.raises(ValueError):
        brute_force_min_depth(6, Model.A, Architecture.lnn(6))
    with pytest.raises(ValueError):
        brute_force_min_depth(4, Model.A, Architecture.lnn(5))
