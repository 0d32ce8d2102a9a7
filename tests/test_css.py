"""Parity-check controlled blocks: flat references and the belt schedule.

`ref_belt_schedule` below is `css_schedule_lnn` as it stood before it read
its sites in closed form: it walks one token per site, level by level, and
checks each met pair's level as it goes. The closed form must give the same
gates and final placement on seeded specs.
"""

from random import Random

import pytest

from chainforge.bounds import stage_audit
from chainforge.core import Gate, GateKind, cnot, cz, generic_depth, swap
from chainforge.css import (
    CssGate,
    CssMode,
    CssSpec,
    _hadamard_layer,
    _payload,
    css_flat,
    css_schedule_lnn,
    emit_css,
    parse_css,
    steane_syndrome,
)
from chainforge.oracle import unitary_equiv

_N, _X, _Z = CssGate.NONE, CssGate.CNOT, CssGate.CZ


def _full(mode: CssMode, s: int, t: int, kind: CssGate = _X) -> CssSpec:
    n_controls = s + 1 if mode is CssMode.ENCODE else s
    rows = tuple(tuple(kind for _ in range(t)) for _ in range(n_controls))
    return CssSpec(mode, s, t, rows)


def ref_belt_schedule(spec: CssSpec) -> tuple[list[Gate], tuple[int, ...]]:
    """Reference: per level, scan the sites for a control left of a target, fire, then swap."""
    n = spec.n_wires
    gates = _hadamard_layer(spec)
    # tokens per site: (True, p) for control position p, (False, j) for c_j
    sites: list[tuple[bool, int]] = [(True, p) for p in range(1, spec.n_controls + 1)]
    sites += [(False, j) for j in range(spec.t, 0, -1)]
    for level in range(1, spec.last_level() + 1):
        meets = [m for m in range(n - 1) if sites[m][0] and not sites[m + 1][0]]
        for m in meets:
            p, j = sites[m][1], sites[m + 1][1]
            assert spec.level_of(p, j) == level, f"pair ({p}, {j}) met at level {level}"
            kind = spec.cell(p, j)
            if kind is not CssGate.NONE:
                gates.append(_payload(kind, m, m + 1))
        for m in meets:
            gates.append(swap(m, m + 1))
            sites[m], sites[m + 1] = sites[m + 1], sites[m]
    loc = [0] * n
    for m, (is_control, idx) in enumerate(sites):
        wire = spec.control_wire(idx) if is_control else spec.target_wire(idx)
        loc[wire] = m
    return gates, tuple(loc)


def test_closed_form_matches_the_token_walk():
    """Both modes, s and t up to 7, densities from empty to full, random Hadamard masks; every
    fourth spec keeps only the farthest pairs, so the flow stops early."""
    rng = Random(20261019)
    kinds = [_X, _Z]
    specs = [CssSpec(mode, s, t, ((_N,) * t,) * (s + (mode is CssMode.ENCODE)))
             for mode in CssMode for s, t in ((1, 1), (3, 5), (7, 7))]  # all '.': no level, identity map
    for i in range(2000):
        mode, s, t, density = rng.choice(list(CssMode)), rng.randint(1, 7), rng.randint(1, 7), rng.random()
        rows = s + (mode is CssMode.ENCODE)
        reach = rng.randint(0, rows + t) if i % 4 == 0 else rows + t  # keep p + j > rows + t - reach
        types = tuple(
            tuple(rng.choice(kinds) if rng.random() < density and p + j > rows + t - reach else _N
                  for j in range(1, t + 1))
            for p in range(1, rows + 1)
        )
        specs.append(CssSpec(mode, s, t, types, rng.randrange(1 << (rows + t))))
    for spec in specs:
        sc = css_schedule_lnn(spec)
        assert (list(sc.circuit.gates), sc.final_map) == ref_belt_schedule(spec), emit_css(spec)
    stops = [spec.last_level() / (spec.n_controls + spec.t - 1) for spec in specs]
    assert 0 in stops and sum(0 < x < 1 for x in stops) > 300  # empty, and stopped early


def test_wire_geometry():
    spec = _full(CssMode.ENCODE, 3, 4)
    assert spec.n_controls == 4 and spec.n_wires == 8
    assert spec.control_wire(1) == 0 and spec.control_wire(4) == 3
    assert spec.target_wire(4) == 4 and spec.target_wire(1) == 7
    synd = _full(CssMode.SYNDROME, 3, 4)
    assert synd.n_controls == 3 and synd.n_wires == 7


def test_spec_validation():
    with pytest.raises(ValueError):
        CssSpec(CssMode.ENCODE, 0, 2, ())
    with pytest.raises(ValueError):
        CssSpec(CssMode.SYNDROME, 2, 2, ((_X, _X),))  # one row short
    with pytest.raises(ValueError):
        CssSpec(CssMode.SYNDROME, 1, 2, ((_X,),))  # one column short
    with pytest.raises(ValueError):
        CssSpec(CssMode.SYNDROME, 1, 1, ((_X,),), hadamard_mask=1 << 2)


def test_levels_of_the_worked_example():
    spec = _full(CssMode.ENCODE, 3, 4)
    assert spec.level_of(1, 1) == 7 == spec.last_level()
    assert spec.level_of(4, 4) == 1
    level_3 = {(p, j) for p, j, _ in spec.present() if spec.level_of(p, j) == 3}
    assert level_3 == {(4, 2), (3, 3), (2, 4)}  # control position 4 is b


def test_flat_gate_order_is_block_by_block():
    spec = CssSpec(CssMode.ENCODE, 1, 2, ((_X, _Z), (_X, _N)))
    c = css_flat(spec)
    assert c.gates == (cnot(1, 3), cz(0, 2), cnot(0, 3))


def test_schedule_matches_flat_reference():
    rng = Random(59)
    kinds = (_N, _X, _Z)
    for _ in range(25):
        mode = rng.choice((CssMode.ENCODE, CssMode.SYNDROME))
        s = rng.randint(1, 3)
        t = rng.randint(1, 3)
        n_controls = s + 1 if mode is CssMode.ENCODE else s
        rows = tuple(
            tuple(rng.choice(kinds) for _ in range(t)) for _ in range(n_controls)
        )
        mask = rng.randrange(1 << (n_controls + t))
        spec = CssSpec(mode, s, t, rows, hadamard_mask=mask)
        sc = css_schedule_lnn(spec)
        assert unitary_equiv(sc.circuit, css_flat(spec), relabel=sc.final_map)


def test_full_crossing_moves_controls_past_targets():
    for mode, s, t in ((CssMode.ENCODE, 2, 2), (CssMode.SYNDROME, 3, 2)):
        spec = _full(mode, s, t)
        sc = css_schedule_lnn(spec)
        control_sites = [sc.final_map[spec.control_wire(p)] for p in range(1, spec.n_controls + 1)]
        target_sites = [sc.final_map[spec.target_wire(j)] for j in range(1, spec.t + 1)]
        assert max(target_sites) < min(control_sites)


def test_depth_bounds_on_full_presence():
    for s in (1, 2, 4):
        for t in (1, 3, 5):
            enc = css_schedule_lnn(_full(CssMode.ENCODE, s, t)).circuit
            assert generic_depth(enc) <= s + t + 1
            syn = css_schedule_lnn(_full(CssMode.SYNDROME, s, t)).circuit
            assert generic_depth(syn) <= s + t - 1


def test_empty_matrix_schedules_nothing():
    spec = CssSpec(CssMode.SYNDROME, 2, 2, ((_N, _N), (_N, _N)), hadamard_mask=0b1)
    sc = css_schedule_lnn(spec)
    assert [g.kind for g in sc.circuit.gates] == [GateKind.H]
    assert sc.final_map == (0, 1, 2, 3)


def test_schedules_pass_the_stage_audit():
    for spec in (_full(CssMode.ENCODE, 3, 4), steane_syndrome()):
        sc = css_schedule_lnn(spec)
        assert stage_audit(sc).ok


def test_steane_preset():
    spec = steane_syndrome()
    assert spec.mode is CssMode.SYNDROME and spec.s == 7 and spec.t == 6
    assert spec.hadamard_mask == (1 << 7) | (1 << 8) | (1 << 9)
    assert spec.cell(1, 1) is _X
    assert spec.cell(2, 4) is _N
    assert spec.cell(1, 4) is _Z
    assert spec.cell(4, 6) is _Z
    circuit = css_schedule_lnn(spec).circuit
    assert generic_depth(circuit) == 12
    assert circuit.depth() <= 26


def test_parse_emit_roundtrip():
    spec = CssSpec(
        CssMode.ENCODE, 2, 3, ((_X, _N, _Z), (_N, _X, _X), (_Z, _Z, _N)), hadamard_mask=0b10010
    )
    assert parse_css(emit_css(spec)) == spec
    parsed = parse_css("css syndrome 1 2\nxz\n")
    assert parsed.cell(1, 1) is _X and parsed.cell(1, 2) is _Z
    with pytest.raises(ValueError):
        parse_css("css encode 1 2\nxz\n")  # missing the b row
    with pytest.raises(ValueError):
        parse_css("css backwards 1 1\nx\n")
