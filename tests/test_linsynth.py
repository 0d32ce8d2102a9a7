"""GF(2) linear reversible synthesis on a chain."""

from collections import Counter
from random import Random

import pytest

from chainforge import skeleton
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
    _part_pieces,
    emit_gf2,
    expand_circuit_to_cnot,
    expand_to_cnot,
    gauss_jordan,
    parse_gf2,
    synthesize_lnn,
)
from chainforge.oracle import gf2_action, unitary_equiv
from chainforge.qft import QftSpec, qft_lnn
from chainforge.stabilizer import random_decomposition, schedule_stabilizer


def _identity(n):
    return GF2Matrix(n, tuple(1 << i for i in range(n)))


def _act(n: int, gates) -> GF2Matrix:
    return gf2_action(Circuit(n, tuple(gates)))


def grid_pairs(grid: bytes, n: int) -> set:
    """The pairs (a, b), a < b, of the CNOTs an n x n grid marks at control * n + target: a part's
    grid as the pair set it was kept as before grids."""
    return {tuple(sorted(divmod(code, n))) for code, marked in enumerate(grid) if marked}


def pivot_pairs(parts) -> tuple:
    """The parts' pivots as (column, donor) pairs, column ascending: CNOT(donor, column) each."""
    return tuple(sorted(grid_pairs(parts.pivots, parts.n)))


def _parts_gates(parts) -> list:
    """The parts' gates in replay order: pivots by column, lower gates by control then target, upper
    gates by descending control then descending target."""
    n = parts.n
    codes = sorted((code for code, marked in enumerate(parts.pivots) if marked), key=lambda code: code % n)
    codes += [code for code, marked in enumerate(parts.lower) if marked]
    codes += reversed([code for code, marked in enumerate(parts.upper) if marked])
    return [cnot(*divmod(code, n)) for code in codes]


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


def test_gauss_jordan_parts_fields():
    a = _gf2("01", "11")
    parts = gauss_jordan(a)
    assert type(parts.pivots) is type(parts.lower) is type(parts.upper) is bytes  # read-only grids
    assert parts.pivots == bytes([0, 0, 1, 0])  # the fix CNOT(1, 0) at code 1 * 2 + 0
    assert parts.lower == bytes([0, 1, 0, 0])  # CNOT(0, 1) at code 0 * 2 + 1
    assert grid_pairs(parts.upper, 2) == set()
    assert _parts_gates(parts) == [cnot(1, 0), cnot(0, 1)]


def test_gauss_jordan_on_identity_is_empty():
    parts = gauss_jordan(_identity(4))
    assert parts.pivots == parts.lower == parts.upper == bytes(16)
    assert _parts_gates(parts) == []


def test_gauss_jordan_rejects_singular():
    with pytest.raises(SingularMatrixError):
        gauss_jordan(_gf2("10", "10"))


def test_trace_replay_computes_the_inverse():
    """The parts' gates, replayed pivots first, compute the inverse."""
    rng = Random(9)
    for _ in range(50):
        n = rng.randint(1, 7)
        a = GF2Matrix.random_nonsingular(n, rng)
        parts = gauss_jordan(a)
        assert _act(n, _parts_gates(parts)) == a.inverse()


def test_rearrange_preserves_the_action():
    """Moving the pivot fixes ahead of the lower gates, as one `gauss_jordan` pass does, keeps the
    action of the elimination it ran, and every pivot fix CNOT(j, c) has j > c."""
    rng = Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = GF2Matrix.random_nonsingular(n, rng)
        parts = gauss_jordan(a)
        _, _, _, order = ref_trace(a)
        assert _act(n, _parts_gates(parts)) == _act(n, [cnot(*pair) for pair in order]) == a.inverse()
        assert all(parts.pivots[code] == 0 for code in range(n * n) if code // n <= code % n)


def test_a_pivot_fix_moved_past_a_lower_gate_toggles_its_lower_mark():
    """Column 1's pivot fix CNOT(2, 1) runs after CNOT(0, 2) and is replayed before it: the crossing
    spawns CNOT(0, 1), so the lower grid marks (0, 1), which elimination never ran."""
    b = _gf2("100", "001", "110")
    donors, lower, upper, order = ref_trace(b)
    assert donors == (None, 2) and order == [(0, 2), (2, 1), (1, 2), (2, 1)]
    parts = gauss_jordan(b)
    assert pivot_pairs(parts) == ((1, 2),)
    assert parts.pivots[2 * 3 + 1] == 1  # CNOT(2, 1) at its code control * n + target
    assert grid_pairs(parts.lower, 3) == lower | {(0, 1)} == {(0, 1), (0, 2), (1, 2)}
    assert grid_pairs(parts.upper, 3) == upper == {(1, 2)}
    assert _act(3, _parts_gates(parts)) == _act(3, [cnot(*pair) for pair in order]) == b.inverse()


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


def chained(parts, flip: bool = False) -> tuple[list, tuple[int, ...]]:
    """The parts' pieces from the identity (flip: the reversal) as one gate list, beside the
    exit order as a placement."""
    pieces, out = _part_pieces(parts, flip)
    return [g for gates, _ in pieces for g in gates], tuple(range(parts.n - 1, -1, -1) if out else range(parts.n))


def test_no_part_keeps_the_entry_order():
    empty = gauss_jordan(_identity(3))
    assert _part_pieces(empty) == ([], False)
    assert _part_pieces(empty, True) == ([], True)


def test_synthesis_checks_each_listed_slot_pair_once(monkeypatch):
    """The parts the library makes are grids it marked in range: synthesis, the
    stabilizer schedule and the QFT check no pair and build no skeleton spec."""
    rng = Random(5)
    for n in (2, 5, 9):
        a = GF2Matrix.random_nonsingular(n, rng)
        calls: Counter = Counter()
        for owner, name in ((skeleton, "_check_pair"), (skeleton.SkeletonSpec, "__init__")):
            real = getattr(owner, name)
            counting = lambda *args, real=real, name=name: calls.update([name]) or real(*args)
            monkeypatch.setattr(owner, name, counting)
        synthesize_lnn(a)
        schedule_stabilizer(random_decomposition(n, rng))
        qft_lnn(QftSpec(n))
        monkeypatch.undo()
        assert calls == Counter()


def ref_trace(b: GF2Matrix) -> tuple[tuple, set, set, list]:
    """Reference elimination on pair sets, as `gauss_jordan` kept its trace before one pass made the
    parts: the pivot donors (None where no fix was needed, no entry for the last column), the lower
    pairs (c, s) and upper pairs (k, l), and each CNOT (control, target) in the order it ran."""
    n, rows = b.n, list(b.rows)
    pivot_donor, lower, upper, order = [], set(), set(), []
    for c in range(n):
        if not rows[c] >> c & 1:
            j = next(i for i in range(c + 1, n) if rows[i] >> c & 1)
            rows[c] ^= rows[j]
            pivot_donor.append(j)
            order.append((j, c))
        elif c < n - 1:
            pivot_donor.append(None)
        for s in range(c + 1, n):
            if rows[s] >> c & 1:
                rows[s] ^= rows[c]
                lower.add((c, s))
                order.append((c, s))
    for l in range(n - 1, 0, -1):
        for k in range(l - 1, -1, -1):
            if rows[k] >> l & 1:
                rows[k] ^= rows[l]
                upper.add((k, l))
                order.append((l, k))
    return tuple(pivot_donor), lower, upper, order


def _ref_rearrange(pivot_donor: tuple, lower: set) -> tuple[tuple, set, int]:
    """Reference pivot moves on a pair set, after the whole trace: moving the fix CNOT(j, c) ahead of
    the lower gates past a CNOT(c', j) spawns a CNOT(c', c), which toggles the pair (c', c). Pivots
    move in column order against the pairs as updated so far. Also counts the toggles."""
    lower, pivots, toggles = set(lower), [], 0
    for c, j in enumerate(pivot_donor):
        if j is not None:
            for c_prev in range(c):
                if (c_prev, j) in lower:
                    lower ^= {(c_prev, c)}
                    toggles += 1
            pivots.append((c, j))
    return tuple(pivots), lower, toggles


def two_step_grids(b: GF2Matrix) -> tuple[tuple[bytes, bytes, bytes], int]:
    """`gauss_jordan(b)`'s pivot, lower and upper grids by the two-step reference (the trace, then the
    pivot moves), and how many lower toggles the moves made."""
    n = b.n
    donors, lower, upper, _ = ref_trace(b)
    pivots, moved, toggles = _ref_rearrange(donors, lower)
    codes = ({j * n + c for c, j in pivots}, {c * n + s for c, s in moved}, {l * n + k for k, l in upper})
    return tuple(bytes(code in marked for code in range(n * n)) for marked in codes), toggles


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


def _zero_diagonal(n: int, rng: Random) -> GF2Matrix:
    """A random nonsingular matrix whose every diagonal entry is zero (n >= 2)."""
    while True:
        b = GF2Matrix(n, tuple(rng.randrange(1 << n) & ~(1 << i) for i in range(n)))
        try:
            b.inverse()
        except SingularMatrixError:
            continue
        return b


def test_grid_elimination_and_parts_match_pair_sets():
    """The three grids one `gauss_jordan` pass marks, against the two-step reference on pair sets
    (the trace, then the pivot moves), and the parts staged by grid slices, against their pair sets
    scheduled slot by slot (n <= 40), for n <= 64. Every other matrix has a zero diagonal, so the
    pivot fixes and their toggles fire."""
    rng = Random(20261019)
    toggles = 0
    for n in range(1, 65):
        for b in (GF2Matrix.random_nonsingular(n, rng), _zero_diagonal(n, rng) if n > 1 else None):
            if b is None:
                continue
            grids, count = two_step_grids(b)
            parts = gauss_jordan(b)
            assert tuple(parts) == (n, *grids), n
            toggles += count
            if n > 40:
                continue
            pivots, lower, upper = pivot_pairs(parts), grid_pairs(parts.lower, n), grid_pairs(parts.upper, n)
            for flip in (False, True):
                placement = tuple(range(n - 1, -1, -1) if flip else range(n))
                assert chained(parts, flip) == _ref_schedule(n, pivots, lower, upper, placement), n
            sc = synthesize_lnn(b.inverse())
            assert chained(parts) == (list(sc.circuit.gates), sc.final_map)
    assert toggles > 10000


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
        assert all(g.kind is not GateKind.SWAP for g in expanded.circuit.gates)
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
