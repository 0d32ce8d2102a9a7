"""GF(2) linear reversible synthesis on a chain."""

import re
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
    GaussJordanTrace,
    RearrangedParts,
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
from chainforge.qft import QftSpec, qft_lnn
from chainforge.stabilizer import random_decomposition, schedule_stabilizer


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
    """Pairs given by hand, as sets, are checked where they are used: a trace's lower pairs by
    `rearrange`, the parts' pivots, lower and upper pairs by `schedule_parts`. The traces and parts
    the library makes are grids it marked in range: synthesis, the stabilizer schedule and the QFT
    check no pair, build no skeleton spec and never list a grid's pairs."""
    rng = Random(5)
    for n in (2, 5, 9):
        a = GF2Matrix.random_nonsingular(n, rng)
        trace = gauss_jordan(a.inverse())
        made = rearrange(trace)
        by_hand = RearrangedParts(n, made.pivots, frozenset(made.lower), frozenset(made.upper))
        assert schedule_parts(by_hand) == schedule_parts(made)
        assert rearrange(GaussJordanTrace(n, trace.pivot_donor, set(trace.lower), set(trace.upper))) == made
        calls: Counter = Counter()
        watched = ((skeleton, "_check_pair"), (linsynth, "_check_pair"), (skeleton.SkeletonSpec, "_bind"),
                   (skeleton._GridPairs, "__iter__"))
        for owner, name in watched:
            real = getattr(owner, name)
            counting = lambda *args, real=real, name=name: calls.update([name]) or real(*args)
            monkeypatch.setattr(owner, name, counting)
        synthesize_lnn(a)
        schedule_stabilizer(random_decomposition(n, rng))
        qft_lnn(QftSpec(n))
        monkeypatch.undo()
        assert calls == Counter()
    for bad in ((1, 0), (0, 0), (-1, 1), (0, 3)):
        for parts in (RearrangedParts(3, (bad,), frozenset(), frozenset()),
                      RearrangedParts(3, (), frozenset({bad}), frozenset()),
                      RearrangedParts(3, (), frozenset(), frozenset({bad}))):
            with pytest.raises(ValueError, match=f"^{re.escape(str(bad))} is not a pair with 0 <= a < b < 3$"):
                schedule_parts(parts)
        with pytest.raises(ValueError, match=r"is not a pair with 0 <= a < b < 3"):
            rearrange(GaussJordanTrace(3, (None, None), frozenset({bad}), frozenset()))


def _ref_trace(b: GF2Matrix) -> tuple[tuple, set, set]:
    """Reference elimination on pair sets, as `gauss_jordan` kept its trace before grids."""
    n, rows = b.n, list(b.rows)
    pivot_donor, lower, upper = [], set(), set()
    for c in range(n):
        if not rows[c] >> c & 1:
            j = next(i for i in range(c + 1, n) if rows[i] >> c & 1)
            rows[c] ^= rows[j]
            pivot_donor.append(j)
        elif c < n - 1:
            pivot_donor.append(None)
        for s in range(c + 1, n):
            if rows[s] >> c & 1:
                rows[s] ^= rows[c]
                lower.add((c, s))
    for l in range(n - 1, 0, -1):
        for k in range(l - 1, -1, -1):
            if rows[k] >> l & 1:
                rows[k] ^= rows[l]
                upper.add((k, l))
    return tuple(pivot_donor), lower, upper


def _ref_rearrange(pivot_donor: tuple, lower: set) -> tuple[tuple, set, int]:
    """Reference pivot moves on a pair set; also counts the toggles."""
    lower, pivots, toggles = set(lower), [], 0
    for c, j in enumerate(pivot_donor):
        if j is not None:
            for c_prev in range(c):
                if (c_prev, j) in lower:
                    lower ^= {(c_prev, c)}
                    toggles += 1
            pivots.append((c, j))
    return tuple(pivots), lower, toggles


def _ref_schedule(n: int, pivots: tuple, lower: set, upper: set, placement: tuple) -> tuple[list, tuple]:
    """Reference chaining of the three parts from pair sets, slot by slot: stage s runs its present
    slots (a, s - a), a ascending, then a SWAP on every slot, with d = b - a on sites (d - 1, d)
    from the identity and wire a on n - d, wire b on n - 1 - d from the reversal."""
    gates = []
    flipped = {(n - 1 - l, n - 1 - k) for k, l in upper}
    for pairs, from_larger, rev in ((set(pivots), True, False), (lower, False, False), (flipped, False, True)):
        if not pairs:
            continue
        flip = (placement[::-1] if rev else placement)[0] != 0
        for s in range(1, 2 * n - 2):
            slots = [(a, s - a) for a in range(max(0, s - n + 1), (s + 1) // 2)]
            on = {(a, b): (n - (b - a), n - 1 - (b - a)) if flip else (b - a - 1, b - a) for a, b in slots}
            gates += [cnot(*on[pr][:: -1 if from_larger else 1]) for pr in slots if pr in pairs]
            gates += [swap(*sorted(on[pr])) for pr in slots]
        placement = placement[::-1]
    return gates, placement


def test_grid_elimination_and_parts_match_pair_sets():
    """The grids `gauss_jordan` marks, `rearrange` toggles by strided slices and the parts stage by
    grid slices, against pair sets scheduled slot by slot. Every matrix eliminated needs a pivot fix
    at column 0, so the toggles fire."""
    rng = Random(20261019)
    toggles = 0
    for n in range(1, 41):
        for _ in range(2):
            b = GF2Matrix.random_nonsingular(n, rng)
            while n > 1 and b.rows[0] & 1:  # a zero diagonal entry at (0, 0)
                b = GF2Matrix.random_nonsingular(n, rng)
            trace = gauss_jordan(b)
            donors, lower, upper = _ref_trace(b)
            assert (trace.pivot_donor, trace.lower, trace.upper) == (donors, lower, upper), n
            parts = rearrange(trace)
            pivots, moved, count = _ref_rearrange(donors, lower)
            toggles += count
            assert (parts.pivots, parts.lower, parts.upper) == (pivots, moved, upper), n
            assert trace.lower == lower  # the toggles wrote a copy
            for placement in (tuple(range(n)), tuple(range(n - 1, -1, -1))):
                assert schedule_parts(parts, placement) == _ref_schedule(n, pivots, moved, upper, placement), n
            sc = synthesize_lnn(b.inverse())
            assert schedule_parts(parts) == (list(sc.circuit.gates), sc.final_map)
    assert toggles > 1000


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
