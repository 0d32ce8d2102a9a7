"""Pauli tableau simulation and 11-stage scheduling."""

from collections import Counter
from functools import reduce
from operator import xor
from random import Random

import numpy as np
import pytest

import chainforge.linsynth as linsynth
import chainforge.stabilizer as stab
from chainforge.core import (
    Circuit,
    GateKind,
    ParseError,
    cnot,
    cphase,
    cz,
    generic2,
    generic_depth,
    h,
    invert_permutation,
    p,
    swap,
)
from chainforge.linsynth import GF2Matrix, expand_circuit_to_cnot
from chainforge.oracle import circuit_unitary, gf2_action, unitary_equiv
from chainforge.stabilizer import (
    PauliTableau,
    StageDecomposition,
    emit_stab,
    parse_stab,
    random_decomposition,
    schedule_stabilizer,
    stabilizer_flat,
    tableau_equiv,
    tableau_of,
)
from test_linsynth import column_trace, ref_flat_gates

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_EYE = np.eye(2, dtype=complex)


def _pauli_dense(n: int, x_bits: int, z_bits: int, sign: int) -> np.ndarray:
    """(-1)^sign prod_w i^{x z} X^x Z^z, bit w of x_bits / z_bits being wire w,
    with wire 0 in the low bit position of the basis index."""
    out = np.array([[1.0 + 0j]])
    for w in range(n - 1, -1, -1):
        x, z = x_bits >> w & 1, z_bits >> w & 1
        if x and z:
            m = 1j * (_X @ _Z)
        elif x:
            m = _X
        elif z:
            m = _Z
        else:
            m = _EYE
        out = np.kron(out, m)
    return -out if sign else out


def _conjugation_matches(circuit: Circuit) -> bool:
    n = circuit.n_wires
    u = circuit_unitary(circuit)
    t = tableau_of(circuit)
    for row in range(2 * n):
        bit = 1 << (row % n)
        source = _pauli_dense(n, bit if row < n else 0, 0 if row < n else bit, 0)
        expect = u @ source @ u.conj().T
        got = _pauli_dense(n, *t.row(row))
        if not np.allclose(expect, got, atol=1e-10):
            return False
    return True


def _apply(t: PauliTableau, g) -> PauliTableau:
    """Update the tableau by one Clifford gate, in place: the one gate loop over one gate."""
    stab._apply_gates(t, (g,))
    return t


def _is_symplectic(t: PauliTableau) -> bool:
    """The images keep the generators' commutation pattern: of all row pairs, only the images of
    X_w and Z_w (rows w, n + w) anticommute."""
    rows = [t.row(g) for g in range(2 * t.n)]
    return all(
        ((xa & zb).bit_count() ^ (za & xb).bit_count()) & 1 == (b == a + t.n)
        for a, (xa, za, _) in enumerate(rows)
        for b, (xb, zb, _) in enumerate(rows[a + 1 :], a + 1)
    )


def test_identity_tableau():
    t = PauliTableau.identity(3)
    assert t.n == 3
    assert _is_symplectic(t)
    assert t == tableau_of(Circuit(3, ()))
    assert [t.row(g) for g in range(6)] == [(1, 0, 0), (2, 0, 0), (4, 0, 0), (0, 1, 0), (0, 2, 0), (0, 4, 0)]


def test_is_symplectic_rejects_a_broken_commutation_pattern():
    for w in range(3):
        for g in range(6):
            t = PauliTableau.identity(3)
            t.xs[w] ^= 1 << g  # one X bit flipped
            # only Z_w -> Y_w keeps the pattern (it is a Clifford map); any other flip breaks it
            assert _is_symplectic(t) == (g == 3 + w), (w, g)
    t = PauliTableau.identity(2)
    t.signs = 0b1011  # signs never change the pattern
    assert _is_symplectic(t)


def test_single_gate_conjugations_match_dense():
    single = [
        Circuit(1, (h(0),)),
        Circuit(1, (p(0),)),
        Circuit(2, (cnot(0, 1),)),
        Circuit(2, (cnot(1, 0),)),
        Circuit(2, (cz(0, 1),)),
        Circuit(2, (swap(0, 1),)),
        Circuit(2, (cphase(1, 0, 1),)),
    ]
    for c in single:
        assert _conjugation_matches(c), c.gates


def test_known_conjugation_facts():
    # P sends X to Y and Y to -X; the tableau keeps the signs
    t = tableau_of(Circuit(1, (p(0),)))
    assert t.row(0) == (1, 1, 0) and t.row(1) == (0, 1, 0)
    t = tableau_of(Circuit(1, (p(0), p(0))))  # Z gate: X -> -X
    assert t.row(0) == (1, 0, 1) and t.row(1) == (0, 1, 0)
    # H exchanges X and Z
    t = tableau_of(Circuit(1, (h(0),)))
    assert t.row(0) == (0, 1, 0) and t.row(1) == (1, 0, 0)
    # row() reads wire w as bit w: CNOT(0, 2) sends X_0 to X_0 X_2 and Z_2 to Z_0 Z_2
    t = tableau_of(Circuit(3, (cnot(0, 2),)))
    assert t.row(0) == (0b101, 0, 0) and t.row(5) == (0, 0b101, 0)


def _random_clifford(n: int, count: int, rng: Random) -> Circuit:
    gates = []
    for _ in range(count):
        kind = rng.choice(["h", "p", "cnot", "cz", "swap"])
        if kind in ("h", "p"):
            w = rng.randrange(n)
            gates.append(h(w) if kind == "h" else p(w))
        elif n >= 2:
            a, b = rng.sample(range(n), 2)
            gates.append({"cnot": cnot(a, b), "cz": cz(a, b), "swap": swap(a, b)}[kind])
    return Circuit(n, tuple(gates))


def test_random_clifford_circuits_match_dense():
    rng = Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        c = _random_clifford(n, rng.randint(1, 25), rng)
        assert _conjugation_matches(c)
        assert _is_symplectic(tableau_of(c))


def test_random_clifford_then_inverse_is_identity_at_n64():
    n = 64
    c = _random_clifford(n, 3000, Random(64))
    inverse = []
    for g in reversed(c.gates):  # P^-1 = P^3; H, CNOT, CZ and SWAP are self-inverse
        inverse.extend([g] * (3 if g.kind is GateKind.P else 1))
    t = tableau_of(c)
    assert _is_symplectic(t)
    assert t != PauliTableau.identity(n)
    for g in inverse:
        _apply(t, g)
    assert t == PauliTableau.identity(n)


def test_native_cz_rule_matches_h_cnot_h():
    rng = Random(29)
    for _ in range(30):
        n = rng.randint(2, 12)
        start = _random_clifford(n, 40, rng)
        a, b = rng.sample(range(n), 2)
        native, phase1, composed = tableau_of(start), tableau_of(start), tableau_of(start)
        _apply(native, cz(a, b))
        _apply(phase1, cphase(1, a, b))
        for g in (h(b), cnot(a, b), h(b)):
            _apply(composed, g)
        assert native == phase1 == composed


def test_tableau_of_makes_one_pass_of_the_one_gate_loop(monkeypatch):
    passes = []
    original = stab._apply_gates

    def counting(t, gates):
        passes.append(gates)
        return original(t, gates)

    monkeypatch.setattr(stab, "_apply_gates", counting)
    sc = schedule_stabilizer(random_decomposition(4, Random(5)))
    circuit = Circuit(4, sc.circuit.gates + (cz(0, 1), cphase(1, 2, 3)))
    t = tableau_of(circuit)
    assert len(passes) == 1 and passes[0] is circuit.gates  # no call per gate
    passes.clear()
    one_by_one = PauliTableau.identity(4)
    for g in circuit.gates:
        assert _apply(one_by_one, g) is one_by_one
    assert [tuple(gates) for gates in passes] == [(g,) for g in circuit.gates]  # the same loop, one gate long
    assert one_by_one == t
    for bad in (cphase(2, 0, 1), generic2(0, 1)):
        with pytest.raises(ValueError, match="not a Clifford gate"):
            tableau_of(Circuit(2, (h(0), bad)))
        before = tableau_of(Circuit(2, (h(0), p(0))))
        after = tableau_of(Circuit(2, (h(0), p(0))))
        with pytest.raises(ValueError, match="not a Clifford gate"):
            _apply(after, bad)
        assert after == before  # a rejected gate leaves the tableau alone


def test_tableau_rejects_non_clifford_gates():
    with pytest.raises(ValueError):
        tableau_of(Circuit(2, (cphase(2, 0, 1),)))
    with pytest.raises(ValueError):
        tableau_of(Circuit(2, (generic2(0, 1),)))


def test_tableau_equiv_and_relabel():
    assert tableau_equiv(Circuit(1, (h(0), h(0))), Circuit(1, ()))
    assert not tableau_equiv(Circuit(1, (p(0),)), Circuit(1, ()))
    # Z and S differ only in phases that the tableau's sign bits catch
    assert not tableau_equiv(Circuit(1, (p(0), p(0))), Circuit(1, (p(0),)))
    assert tableau_equiv(Circuit(2, (swap(0, 1),)), Circuit(2, ()), relabel=(1, 0))


def test_decomposition_validation():
    n = 2
    ident = GF2Matrix(n, (0b01, 0b10))
    d = StageDecomposition(n, (0, 3), (1, 2, 0, 3), (ident,) * 5)
    assert [kind for kind, _ in d.stages()] == list(stab.STAGE_ORDER)
    with pytest.raises(ValueError):
        StageDecomposition(n, (4, 0), (0,) * 4, (ident,) * 5)
    with pytest.raises(ValueError):
        StageDecomposition(n, (0, 0), (0,) * 4, (GF2Matrix(2, (3, 3)),) * 5)


def test_each_c_stage_and_each_inverse_is_eliminated_once(monkeypatch):
    eliminated, inverted = [], []
    eliminate, invert = linsynth._eliminate, GF2Matrix.inverse

    def counting_eliminate(rows, n, *args, **kwargs):
        eliminated.append(GF2Matrix(n, tuple(r & ((1 << n) - 1) for r in rows)))  # the [C | I] rows' C
        return eliminate(rows, n, *args, **kwargs)

    def counting_inverse(m):
        inverted.append(m)
        return invert(m)

    drawn = random_decomposition(6, Random(23))  # drawing a stage inverts it, so count from here
    inverses = [c.inverse() for c in drawn.c_stages]
    monkeypatch.setattr(linsynth, "_eliminate", counting_eliminate)
    monkeypatch.setattr(GF2Matrix, "inverse", counting_inverse)
    d = StageDecomposition(drawn.n, drawn.h_masks, drawn.p_masks, drawn.c_stages)
    assert eliminated == list(d.c_stages) and inverted == []  # the check eliminates each C stage once
    eliminated.clear()
    sc = schedule_stabilizer(d)
    # and the schedule each inverse once, its rows moved to their wires' sites
    assert [sorted(m.rows) for m in eliminated] == [sorted(inv.rows) for inv in inverses]
    assert eliminated != inverses
    assert inverted == []
    eliminated.clear()
    flat = stabilizer_flat(d)
    assert eliminated == [] and inverted == []  # the reference replays what the check recorded
    assert tableau_equiv(sc.circuit, flat, relabel=sc.final_map)
    assert "_c_inverses" not in repr(d) and "_c_orders" not in repr(d)  # kept beside the fields


def test_random_decomposition_reproducible():
    a = random_decomposition(5, Random(2))
    b = random_decomposition(5, Random(2))
    assert a == b


def test_flat_reference_and_schedule_agree():
    rng = Random(19)
    for _ in range(15):
        n = rng.randint(2, 5)
        d = random_decomposition(n, rng)
        flat = stabilizer_flat(d)
        sc = schedule_stabilizer(d)
        assert tableau_equiv(sc.circuit, flat, relabel=sc.final_map)
        assert generic_depth(sc.circuit) <= 20 * n - 30


def test_final_maps_tell_a_map_from_its_inverse():
    """Seeded schedules whose final map is not its own inverse: the tableau and (n <= 5) dense
    checks against the flat reference pass through the final map and fail through its inverse."""
    rng, seen = Random(61), Counter()
    while min(seen[n] for n in range(3, 9)) < 4:
        n = rng.randint(3, 8)
        d = random_decomposition(n, rng)
        sc, flat = schedule_stabilizer(d), stabilizer_flat(d)
        inverse = invert_permutation(sc.final_map)
        if inverse == sc.final_map:
            continue
        seen[n] += 1
        assert tableau_equiv(sc.circuit, flat, sc.final_map) and not tableau_equiv(sc.circuit, flat, inverse)
        if n <= 5:
            assert unitary_equiv(sc.circuit, flat, relabel=sc.final_map)
            assert not unitary_equiv(sc.circuit, flat, relabel=inverse)
        assert generic_depth(sc.circuit) <= 20 * n - 30


def _ref_stabilizer_flat(d: StageDecomposition) -> Circuit:
    """Reference: each C stage is the SWAPs that realize its pivot permutation, then its column
    reference elimination backwards, with CNOTs made per stage."""
    gates = []
    for kind, content in d.stages():
        if kind == "c":
            gates.extend(ref_flat_gates(content))
        else:
            gates.extend((h if kind == "h" else p)(w) for w in range(d.n) if content >> w & 1)
    return Circuit(d.n, tuple(gates))


def test_flat_reference_makes_one_cnot_per_ordered_pair():
    rng = Random(23)
    for n in (2, 5, 16, 40):
        d = random_decomposition(n, rng)
        flat = stabilizer_flat(d)
        assert flat == _ref_stabilizer_flat(d)
        assert any(g.kind is GateKind.SWAP for g in flat.gates)  # some pivot permutation is not I
        cnots = [g for g in flat.gates if g.kind is GateKind.CNOT]
        assert len({id(g) for g in cnots}) == len(set(cnots))  # one object per ordered pair


def _product(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """a b over GF(2): row i is the XOR of the rows of b that row i of a selects."""
    return GF2Matrix(a.n, tuple(reduce(xor, (r for j, r in enumerate(b.rows) if row >> j & 1), 0) for row in a.rows))


def test_one_elimination_per_c_stage_records_the_grid_order_and_the_inverse():
    rng = Random(47)
    for n in range(1, 41):
        d = random_decomposition(n, rng)
        identity = GF2Matrix(n, tuple(1 << w for w in range(n)))
        for i, c in enumerate(d.c_stages):
            cols, _, _, pairs = column_trace(c)
            order = [cnot(*pair) for pair in pairs]
            assert linsynth._replay(d._c_orders[i], n, {}) == order, (n, i)  # the decomposition's record
            assert d._c_cols[i] == cols, (n, i)
            # which takes C to the pivot permutation P: E C = P
            pivoted = GF2Matrix(n, tuple(1 << col for col in cols))
            assert _product(gf2_action(Circuit(n, tuple(order))), c) == pivoted, (n, i)
            inverse = d._c_inverses[i]  # read from [C | I], which ends as [P | E]
            assert _product(c, inverse) == identity == _product(inverse, c), (n, i)
        # a singular block: one row the sum of others (zero at n = 1) fails at a seeded column
        i = rng.randrange(5)
        rows = list(d.c_stages[i].rows)
        r = rng.randrange(n)
        others = [w for w in range(n) if w != r]
        rows[r] = 0
        for w in rng.sample(others, rng.randint(1, len(others))) if others else ():
            rows[r] ^= rows[w]
        stages = list(d.c_stages)
        stages[i] = GF2Matrix(n, tuple(rows))
        with pytest.raises(ValueError, match=f"^C stage {i} is singular$"):
            StageDecomposition(n, d.h_masks, d.p_masks, tuple(stages))
        text = emit_stab(d).splitlines()
        at = [k for k, line in enumerate(text) if line == "stage c"][i]
        text[at + 1 : at + 1 + n] = stages[i].to_strings()
        with pytest.raises(ParseError, match=f"C stage {i} is singular") as err:
            parse_stab("\n".join(text))
        assert err.value.line == at + 1, (n, i)


def test_schedule_depth_bounds():
    rng = Random(37)
    for n in (3, 5, 7):
        d = random_decomposition(n, rng)
        sc = schedule_stabilizer(d)
        assert generic_depth(sc.circuit) <= 20 * n - 30
        expanded = expand_circuit_to_cnot(sc.circuit)
        assert expanded.depth() <= 90 * n - 129


def test_symplectic_checks_can_be_enabled():
    d = random_decomposition(3, Random(43))
    sc = schedule_stabilizer(d)
    t = PauliTableau.identity(3)
    for g in sc.circuit.gates:
        _apply(t, g)
        assert _is_symplectic(t), f"symplectic invariant broken by {g}"
    assert t == tableau_of(sc.circuit)
    assert tableau_equiv(sc.circuit, stabilizer_flat(d), relabel=sc.final_map)


def test_parse_emit_roundtrip():
    d = random_decomposition(4, Random(3))
    assert parse_stab(emit_stab(d)) == d
    with pytest.raises(ValueError):
        parse_stab("stab 2\nstage h\n11\n")
    text = emit_stab(d).splitlines()
    text[text.index("stage c") + 2] = "01x0"  # second row of the first matrix
    with pytest.raises(ParseError) as err:
        parse_stab("\n".join(text))
    assert err.value.line == text.index("stage c") + 3
    # a singular block fails at its 'stage c' line
    text = emit_stab(random_decomposition(2, Random(8))).splitlines()
    second = [i for i, line in enumerate(text) if line == "stage c"][1]
    text[second + 1 : second + 3] = ["11", "11"]
    with pytest.raises(ParseError, match="C stage 1 is singular") as err:
        parse_stab("\n".join(text))
    assert err.value.line == second + 1
    # a malformed line after the singular block is still the error reported
    with pytest.raises(ParseError) as err:
        parse_stab("\n".join(text + ["stage h"]))
    assert err.value.line == len(text) + 1
