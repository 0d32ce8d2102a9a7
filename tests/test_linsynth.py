"""GF(2) linear reversible synthesis on a chain."""

from collections import Counter
from random import Random

import pytest

from chainforge import linsynth, skeleton
from chainforge.core import (
    Circuit,
    GateKind,
    ParseError,
    cnot,
    cz,
    generic_depth,
    h,
    prune_trailing_swap_layers,
    swap,
)
from chainforge.linsynth import (
    GF2Matrix,
    SingularMatrixError,
    emit_gf2,
    expand_circuit_to_cnot,
    expand_to_cnot,
    gauss_jordan,
    parse_gf2,
    rearrange,
    schedule_parts,
    synthesize_lnn,
)
from chainforge.oracle import gf2_action, unitary_equiv


def _identity(n):
    return GF2Matrix(n, tuple(1 << i for i in range(n)))


def _act(n: int, gates) -> GF2Matrix:
    return gf2_action(Circuit(n, tuple(gates)))


def _gf2(*rows: str) -> GF2Matrix:
    """The matrix with these 0/1 rows, character j of row i being entry (i, j)."""
    return parse_gf2("\n".join([f"gf2 {len(rows)}", *rows]))


def test_matrix_basics():
    a = _gf2("01", "11")
    assert a.rows == (0b10, 0b11)  # bit j of row i is entry (i, j)
    assert a.to_strings() == ["01", "11"]
    assert a.inverse() == _gf2("11", "10")
    assert a.inverse().inverse() == a
    assert a.apply(0b01) == 0b10  # column 0 of a, packed
    with pytest.raises(ValueError):
        GF2Matrix(2, (1, 4))
    with pytest.raises(SingularMatrixError):
        _gf2("11", "11").inverse()


def test_random_nonsingular_is_reproducible_and_invertible():
    a = GF2Matrix.random_nonsingular(6, Random(4))
    b = GF2Matrix.random_nonsingular(6, Random(4))
    assert a == b
    assert a.inverse().inverse() == a
    assert all(a.apply(a.inverse().apply(x)) == x for x in range(1 << 6))


def test_relabel_reads_rows_through_the_map():
    a = _gf2("100", "010", "001")
    swapped = a.relabel((2, 1, 0))
    assert swapped == _gf2("001", "010", "100")
    with pytest.raises(ValueError):
        a.relabel((0, 0, 1))


def test_gauss_jordan_trace_fields():
    a = _gf2("01", "11")
    trace = gauss_jordan(a)
    assert trace.pivot_donor == (1,)
    assert trace.lower == frozenset({(0, 1)})
    assert trace.upper == frozenset()
    assert trace.gates_in_order() == [cnot(1, 0), cnot(0, 1)]


def test_gauss_jordan_on_identity_is_empty():
    trace = gauss_jordan(_identity(4))
    assert trace.pivot_donor == (None, None, None)
    assert trace.lower == frozenset() and trace.upper == frozenset()
    assert trace.gates_in_order() == []


def test_gauss_jordan_rejects_singular():
    with pytest.raises(SingularMatrixError):
        gauss_jordan(_gf2("10", "10"))


def test_trace_replay_computes_the_inverse():
    rng = Random(9)
    for _ in range(50):
        n = rng.randint(1, 7)
        a = GF2Matrix.random_nonsingular(n, rng)
        trace = gauss_jordan(a)
        assert _act(n, trace.gates_in_order()) == a.inverse()


def test_rearrange_on_a_matrix_needing_a_pivot_crossing():
    """Pulling the pivot fix of column 1 ahead of column 0's elimination."""
    b = _gf2("110", "111", "010")
    trace = gauss_jordan(b)
    assert trace.pivot_donor == (None, 2)
    assert trace.lower == frozenset({(0, 1), (1, 2)})
    assert trace.upper == frozenset({(0, 1), (1, 2)})
    parts = rearrange(trace)
    assert parts.pivots == ((1, 2),)
    assert parts.lower == frozenset({(0, 1), (1, 2)})
    assert _act(3, parts.gates_in_order()) == _act(3, trace.gates_in_order())


def test_rearrange_preserves_the_action():
    rng = Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = GF2Matrix.random_nonsingular(n, rng)
        trace = gauss_jordan(a)
        parts = rearrange(trace)
        assert _act(n, parts.gates_in_order()) == a.inverse()
        assert [c for c, _ in parts.pivots] == sorted(c for c, _ in parts.pivots)


def test_synthesize_two_wire_swap_matrix():
    a = _gf2("01", "10")
    sc = synthesize_lnn(a)
    assert sc.circuit.gates == (cnot(1, 0), swap(0, 1)) * 3
    assert sc.final_map == (1, 0)
    assert gf2_action(sc.circuit).relabel(sc.final_map) == a


def test_synthesize_identity_and_one_wire():
    sc = synthesize_lnn(_identity(3))
    assert gf2_action(sc.circuit).relabel(sc.final_map) == _identity(3)
    # one wire takes the general path: no part is nonempty, so no skeleton is built
    for prune in (False, True):
        sc = synthesize_lnn(GF2Matrix(1, (1,)))
        sc = prune_trailing_swap_layers(sc) if prune else sc
        assert len(sc.circuit) == 0 and sc.final_map == (0,)
    with pytest.raises(SingularMatrixError, match=r"^matrix is singular \(no pivot in column 0\)$"):
        synthesize_lnn(GF2Matrix(1, (0,)))


def test_schedule_parts_checks_the_placement_even_with_no_part():
    empty = rearrange(gauss_jordan(_identity(3)))
    for placement in ((7, 7, 9), (), (1, 0, 2)):
        with pytest.raises(ValueError, match="placement"):
            schedule_parts(empty, placement)
    assert schedule_parts(empty, (2, 1, 0)) == ([], (2, 1, 0))
    assert schedule_parts(empty) == ([], (0, 1, 2))


def test_synthesis_checks_each_listed_slot_pair_once(monkeypatch):
    rng = Random(5)
    for n in (2, 5, 9):
        a = GF2Matrix.random_nonsingular(n, rng)
        specs = linsynth._part_specs(rearrange(gauss_jordan(a.inverse())))
        listed = Counter(pr for spec, _ in specs for pr in spec._slots)
        checked: Counter = Counter()
        real = skeleton._check_pair

        def counting(x: int, y: int, m: int) -> None:
            checked[x, y] += 1
            real(x, y, m)

        for mod in (skeleton, linsynth):  # wherever the check is bound
            monkeypatch.setattr(mod, "_check_pair", counting, raising=False)
        synthesize_lnn(a)
        monkeypatch.undo()
        assert checked == listed


def test_synthesize_random_matrices():
    rng = Random(23)
    for _ in range(60):
        n = rng.randint(2, 9)
        a = GF2Matrix.random_nonsingular(n, rng)
        sc = synthesize_lnn(a)
        assert gf2_action(sc.circuit).relabel(sc.final_map) == a
        assert generic_depth(sc.circuit) <= 3 * (2 * n - 3)


def test_synthesize_with_pruning_keeps_the_action():
    rng = Random(29)
    for _ in range(30):
        n = rng.randint(2, 7)
        a = GF2Matrix.random_nonsingular(n, rng)
        full = synthesize_lnn(a)
        pruned = prune_trailing_swap_layers(full)
        assert len(pruned.circuit) <= len(full.circuit)
        assert gf2_action(pruned.circuit).relabel(pruned.final_map) == a


def test_expand_folds_swap_into_preceding_gate():
    c = expand_circuit_to_cnot(Circuit(2, (cnot(0, 1), swap(0, 1))))
    assert c.gates == (cnot(1, 0), cnot(0, 1))
    c = expand_circuit_to_cnot(Circuit(2, (swap(0, 1),)))
    assert c.gates == (cnot(0, 1), cnot(1, 0), cnot(0, 1))


def test_expand_fold_blocked_by_intervening_gate():
    c = expand_circuit_to_cnot(Circuit(2, (cnot(0, 1), h(0), swap(0, 1))))
    assert c.gates == (cnot(0, 1), h(0), cnot(0, 1), cnot(1, 0), cnot(0, 1))
    with pytest.raises(ValueError):
        expand_circuit_to_cnot(Circuit(2, (cz(0, 1),)))


def test_expand_preserves_unitary_and_final_map():
    rng = Random(41)
    for _ in range(10):
        a = GF2Matrix.random_nonsingular(4, rng)
        sc = synthesize_lnn(a)
        expanded = expand_to_cnot(sc)
        assert expanded.final_map == sc.final_map
        assert expanded.circuit.count(GateKind.SWAP) == 0
        assert unitary_equiv(expanded.circuit, sc.circuit, tol=1e-12)
        assert gf2_action(expanded.circuit).relabel(expanded.final_map) == a


def test_parse_emit_gf2_roundtrip():
    a = GF2Matrix(4, (0b0110, 0b0101, 0b1100, 0b0001))  # bit j of row i is entry (i, j)
    assert a.to_strings() == ["0110", "1010", "0011", "1000"]
    assert parse_gf2(emit_gf2(a)) == a
    assert parse_gf2("gf2 2\n10\n01\n") == _identity(2)
    with pytest.raises(ParseError) as err:
        parse_gf2("gf2 2\n10\n0\n")
    assert err.value.line == 3  # the bad row's own line
    with pytest.raises(ValueError):
        parse_gf2("10\n01\n")
