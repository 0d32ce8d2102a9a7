"""GF(2) linear reversible synthesis on a chain."""

from collections import Counter
from itertools import permutations
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
    invert_permutation,
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
from chainforge.stabilizer import random_decomposition, schedule_stabilizer, tableau_equiv


def _identity(n):
    return GF2Matrix(n, tuple(1 << i for i in range(n)))


def _act(n: int, gates) -> GF2Matrix:
    return gf2_action(Circuit(n, tuple(gates)))


def grid_pairs(grid: bytes, n: int) -> set:
    """The pairs (a, b), a < b, of the CNOTs an n x n grid marks at control * n + target: a part's
    grid as the pair set it was kept as before grids."""
    return {tuple(sorted(divmod(code, n))) for code, marked in enumerate(grid) if marked}


def _parts_gates(parts) -> list:
    """The parts' gates in replay order: lower gates by control then target, upper gates by
    descending control then descending target."""
    n = parts.n
    codes = [code for code, marked in enumerate(parts.lower) if marked]
    codes += reversed([code for code, marked in enumerate(parts.upper) if marked])
    return [cnot(*divmod(code, n)) for code in codes]


def _pivoted(a: GF2Matrix, cols) -> GF2Matrix:
    """The matrix whose row c is row cols[c] of `a`."""
    return GF2Matrix(a.n, tuple(a.rows[col] for col in cols))


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
    assert type(parts.lower) is type(parts.upper) is bytes  # read-only grids
    assert parts.cols == (1, 0)  # row 0 pivots on its one in column 1, and no row is added to it
    assert parts.lower == bytes([0, 1, 0, 0])  # CNOT(0, 1) at code 0 * 2 + 1
    assert grid_pairs(parts.upper, 2) == set()
    assert _parts_gates(parts) == [cnot(0, 1)]


def test_gauss_jordan_on_identity_is_empty():
    parts = gauss_jordan(_identity(4))
    assert parts.lower == parts.upper == bytes(16) and parts.cols == (0, 1, 2, 3)
    assert _parts_gates(parts) == []


def test_gauss_jordan_rejects_singular():
    for rows in (("10", "10"), ("00", "01"), ("110", "011", "101")):
        with pytest.raises(SingularMatrixError):
            gauss_jordan(_gf2(*rows))


def test_trace_replay_computes_the_inverse():
    """The parts' gates, replayed in order, compute the inverse with row c of it on wire cols[c]."""
    rng = Random(9)
    for _ in range(50):
        n = rng.randint(1, 7)
        a = GF2Matrix.random_nonsingular(n, rng)
        parts = gauss_jordan(a)
        assert _act(n, _parts_gates(parts)) == _pivoted(a.inverse(), parts.cols)


def test_parts_replay_the_elimination_in_order():
    """The parts' gates, lower then upper, are the column-pivoted elimination's own in the order it
    ran them: a lower CNOT adds a row into a later one, an upper CNOT into an earlier one, and no
    pivot is fixed."""
    rng = Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = GF2Matrix.random_nonsingular(n, rng)
        parts = gauss_jordan(a)
        cols, _, _, order = column_trace(a)
        assert parts.cols == cols and _parts_gates(parts) == [cnot(*pair) for pair in order]
        assert all(parts.lower[code] == 0 for code in range(n * n) if code // n >= code % n)
        assert all(parts.upper[code] == 0 for code in range(n * n) if code // n <= code % n)


def test_a_zero_diagonal_pivots_by_column_with_no_fix():
    """Row 1 has no one in column 1, so it pivots on its one in column 2, with no row added to it
    first: one CNOT."""
    b = _gf2("100", "001", "110")
    parts = gauss_jordan(b)
    assert column_trace(b) == ((0, 2, 1), {(0, 2)}, set(), [(0, 2)])
    assert parts.cols == (0, 2, 1) and _parts_gates(parts) == [cnot(0, 2)]
    assert _act(3, _parts_gates(parts)) == _pivoted(b.inverse(), parts.cols)
    sc = synthesize_lnn(b.inverse())
    assert sc.final_map == (2, 0, 1)  # one part: the wire with column cols[c] ends on site 2 - c
    assert gf2_action(sc.circuit).relabel(sc.final_map) == b.inverse()


def test_synthesize_two_wire_swap_matrix():
    """A permutation matrix costs no gate: the output relabel is the whole synthesis."""
    a = _gf2("01", "10")
    sc = synthesize_lnn(a)
    assert sc.circuit.gates == ()
    assert sc.final_map == (1, 0)
    assert gf2_action(sc.circuit).relabel(sc.final_map) == a


def test_permutation_matrices_cost_no_gate():
    for n in range(1, 5):
        for perm in permutations(range(n)):
            a = GF2Matrix(n, tuple(1 << w for w in perm))
            sc = synthesize_lnn(a)
            assert len(sc.circuit) == 0, perm
            assert gf2_action(sc.circuit).relabel(sc.final_map) == a, perm


def test_synthesize_identity_and_one_wire():
    sc = synthesize_lnn(_identity(3))
    assert gf2_action(sc.circuit).relabel(sc.final_map) == _identity(3)
    # one wire takes the general path: no part is nonempty, so no skeleton is built
    for prune in (False, True):
        sc = synthesize_lnn(GF2Matrix(1, (1,)))
        sc = prune_trailing_swap_layers(sc) if prune else sc
        assert len(sc.circuit) == 0 and sc.final_map == (0,)
    with pytest.raises(SingularMatrixError, match=r"^matrix is singular \(no pivot in row 0\)$"):
        synthesize_lnn(GF2Matrix(1, (0,)))


def chained(parts) -> tuple[list, tuple[int, ...]]:
    """The parts' pieces as one gate list, beside the exit placement."""
    pieces, sites = _part_pieces(parts, [])
    return [g for gates, _ in pieces for g in gates], tuple(sites)


def test_no_part_keeps_the_entry_order():
    assert _part_pieces(gauss_jordan(_identity(3)), []) == ([], [0, 1, 2])
    # a permutation needs no part: the wire with column cols[c] stays on site c
    assert _part_pieces(gauss_jordan(_gf2("010", "001", "100")), []) == ([], [2, 0, 1])


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


def column_trace(b: GF2Matrix) -> tuple[tuple, set, set, list]:
    """Reference elimination with column pivots on pair sets: row c pivots on its smallest column
    with a one among those no earlier row took. Returns each row's pivot column, the lower pairs
    (c, s) and upper pairs (k, l), and each CNOT (control, target) in the order it ran."""
    n, rows = b.n, list(b.rows)
    cols, lower, upper, order = [], set(), set(), []
    for c in range(n):
        col = min(j for j in range(n) if rows[c] >> j & 1 and j not in cols)
        cols.append(col)
        for s in range(c + 1, n):
            if rows[s] >> col & 1:
                rows[s] ^= rows[c]
                lower.add((c, s))
                order.append((c, s))
    for l in range(n - 1, 0, -1):
        for k in range(l - 1, -1, -1):
            if rows[k] >> cols[l] & 1:
                rows[k] ^= rows[l]
                upper.add((k, l))
                order.append((l, k))
    assert rows == [1 << col for col in cols]
    return tuple(cols), lower, upper, order


def ref_swaps(cols) -> list:
    """SWAPs moving the value on wire cols[c] to wire c for every c, cycle by cycle: wire j's value
    goes to wire dest[j], and on each cycle j -> dest[j] -> ... its smallest wire trades with each
    later wire in turn."""
    dest, swaps = {col: c for c, col in enumerate(cols)}, []
    for j in range(len(cols)):
        cycle = [j]
        while dest[cycle[-1]] != j:
            cycle.append(dest[cycle[-1]])
        if j == min(cycle):
            swaps += [swap(j, k) for k in cycle[1:]]
    return swaps


def ref_flat_gates(b: GF2Matrix) -> list:
    """A SWAP/CNOT gate list computing `b` on unrestricted connectivity: the column reference's
    elimination E takes b to the pivot permutation P, so b = E^-1 P, the SWAPs that realize P
    followed by E's CNOTs backwards."""
    cols, _, _, order = column_trace(b)
    return ref_swaps(cols) + [cnot(*pair) for pair in reversed(order)]


def column_grids(b: GF2Matrix) -> tuple:
    """`gauss_jordan(b)`'s pivot columns, lower grid and upper grid, by the column reference."""
    n = b.n
    cols, lower, upper, _ = column_trace(b)
    codes = ({c * n + s for c, s in lower}, {l * n + k for k, l in upper})
    return (cols, *(bytes(code in marked for code in range(n * n)) for marked in codes))


def _ref_schedule(n: int, lower: set, upper: set, cols: tuple) -> tuple[list, tuple]:
    """Reference chaining of the two parts from pair sets, slot by slot, from the identity: stage s
    runs its present slots (a, s - a), a ascending, then a SWAP on every slot, with d = b - a on
    sites (d - 1, d) from the identity and wire a on n - d, wire b on n - 1 - d from the reversal.
    Beside the gates, the exit site of each column's wire: the wire of row c carries cols[c]."""
    gates, placement = [], tuple(range(n))
    flipped = {(n - 1 - l, n - 1 - k) for k, l in upper}
    for pairs, rev in ((lower, False), (flipped, True)):
        if not pairs:
            continue
        flip = (placement[::-1] if rev else placement)[0] != 0
        for s in range(1, 2 * n - 2):
            slots = [(a, s - a) for a in range(max(0, s - n + 1), (s + 1) // 2)]
            on = {(a, b): (n - (b - a), n - 1 - (b - a)) if flip else (b - a - 1, b - a) for a, b in slots}
            gates += [cnot(*on[pr]) for pr in slots if pr in pairs]
            gates += [swap(*sorted(on[pr])) for pr in slots]
        placement = placement[::-1]
    sites = [0] * n
    for c, col in enumerate(cols):
        sites[col] = placement[c]
    return gates, tuple(sites)


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
    """The pivot columns and two grids one `gauss_jordan` pass marks, against the column reference
    on pair sets, and the parts staged by grid slices, against their pair sets scheduled slot by
    slot (n <= 40), for n <= 64. Every other matrix has a zero diagonal, so rows pivot off it."""
    rng = Random(20261019)
    off_diagonal = 0
    for n in range(1, 65):
        for b in (GF2Matrix.random_nonsingular(n, rng), _zero_diagonal(n, rng) if n > 1 else None):
            if b is None:
                continue
            parts = gauss_jordan(b)
            assert tuple(parts) == (n, *column_grids(b)), n
            off_diagonal += sum(col != c for c, col in enumerate(parts.cols))
            if n > 40:
                continue
            lower, upper = grid_pairs(parts.lower, n), grid_pairs(parts.upper, n)
            assert chained(parts) == _ref_schedule(n, lower, upper, parts.cols), n
            sc = synthesize_lnn(b.inverse())
            assert chained(parts) == (list(sc.circuit.gates), sc.final_map)
    assert off_diagonal > 1000


def test_synthesize_random_matrices():
    rng = Random(23)
    for _ in range(60):
        n = rng.randint(2, 9)
        a = GF2Matrix.random_nonsingular(n, rng)
        sc = synthesize_lnn(a)
        assert gf2_action(sc.circuit).relabel(sc.final_map) == a
        assert generic_depth(sc.circuit) <= 2 * (2 * n - 3)


def test_final_maps_tell_a_map_from_its_inverse():
    """Seeded matrices whose final map is not its own inverse: the GF(2), tableau and (n <= 5)
    dense checks pass through the final map and fail through its inverse."""
    rng, seen = Random(59), Counter()
    while min(seen[n] for n in range(3, 9)) < 5:
        n = rng.randint(3, 8)
        a = GF2Matrix.random_nonsingular(n, rng)
        sc = synthesize_lnn(a)
        inverse = invert_permutation(sc.final_map)
        if inverse == sc.final_map:
            continue
        seen[n] += 1
        assert gf2_action(sc.circuit).relabel(sc.final_map) == a
        assert gf2_action(sc.circuit).relabel(inverse) != a
        flat = Circuit(n, tuple(ref_flat_gates(a)))
        assert gf2_action(flat) == a
        assert tableau_equiv(sc.circuit, flat, sc.final_map) and not tableau_equiv(sc.circuit, flat, inverse)
        if n <= 5:
            assert unitary_equiv(sc.circuit, flat, relabel=sc.final_map)
            assert not unitary_equiv(sc.circuit, flat, relabel=inverse)


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
