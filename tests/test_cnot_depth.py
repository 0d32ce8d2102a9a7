"""The fold-aware layering against a fresh walk of the expansion it describes.

`Circuit.cnot_depth()` layers a circuit's CNOT expansion without building
it, and `expand_circuit_to_cnot` returns the expansion with its depth and
CNOT depth already known, and a CNOT-only one with its two-qubit layer
count, generic depth and tags too. All must equal what a `Circuit` built
fresh over the expanded gates computes by its own walks.
"""

from random import Random

import pytest
from test_expand import HAND_MADE, N_CIRCUITS, SEED, _random_circuit

from chainforge import core
from chainforge.bounds import classify_layers
from chainforge.core import (
    Architecture,
    Circuit,
    Gate,
    GateKind,
    cnot,
    cphase,
    cz,
    generic2,
    generic_depth,
    h,
    prune_trailing_swap_layers,
    swap,
    two_qubit_layer_count,
    validate_on,
)
from chainforge.css import CssGate, CssMode, CssSpec, css_flat, css_schedule_lnn
from chainforge.linsynth import GF2Matrix, expand_circuit_to_cnot, synthesize_lnn
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, schedule_lnn
from chainforge.stabilizer import random_decomposition, schedule_stabilizer, stabilizer_flat


def _check(c: Circuit) -> int | None:
    """Compare both memos with a fresh walk; the expansion's depth, or None."""
    try:
        expanded = expand_circuit_to_cnot(c)
    except ValueError:
        assert c.cnot_depth() is None, c
        return None
    fresh = Circuit(c.n_wires, expanded.gates)
    reads = (Circuit.depth, two_qubit_layer_count, generic_depth, Circuit.cnot_depth, classify_layers)
    assert [read(expanded) for read in reads] == [read(fresh) for read in reads], c
    assert c.cnot_depth() == expanded.cnot_depth() == fresh.depth(), c
    return fresh.depth()


def test_seeded_and_hand_made_circuits():
    rng = Random(SEED)
    circuits = [Circuit(2, gates) for gates, _ in HAND_MADE]
    circuits += [_random_circuit(rng) for _ in range(N_CIRCUITS)]
    assert all(_check(c) is not None for c in circuits)


@pytest.mark.parametrize(
    "gates, depth",
    [
        ((cnot(0, 1), swap(0, 1)), 2),  # folds: one layer past the CNOT
        ((swap(0, 1),), 3),
        ((cnot(0, 1), h(0), swap(0, 1)), 5),  # the H blocks the fold
        ((cnot(0, 1), swap(0, 1), swap(0, 1)), 5),
        ((h(0), h(0), swap(0, 1)), 5),  # a bare SWAP starts above its deeper wire
    ],
)
def test_fold_cases(gates, depth):
    assert _check(Circuit(2, gates)) == depth


def _css(n_wires: int, rng: Random, kinds: tuple[CssGate, ...]) -> CssSpec:
    s = max(1, n_wires // 3)
    t = n_wires - s - 1
    rows = tuple(tuple(rng.choice(kinds) for _ in range(t)) for _ in range(s + 1))
    return CssSpec(CssMode.ENCODE, s, t, rows, rng.getrandbits(n_wires))


def _generated(n: int, rng: Random) -> list[tuple[str, Circuit, bool]]:
    """(name, circuit, whether it has a CNOT form) for every generator at size n."""
    a = GF2Matrix.random_nonsingular(n, rng)
    d = random_decomposition(n, rng)
    cnot_only, mixed = _css(n, rng, (CssGate.NONE, CssGate.CNOT)), _css(n, rng, tuple(CssGate))
    return [
        ("linsynth", synthesize_lnn(a).circuit, True),
        ("linsynth pruned", prune_trailing_swap_layers(synthesize_lnn(a)).circuit, True),
        ("stabilizer", schedule_stabilizer(d).circuit, True),
        ("stabilizer flat", stabilizer_flat(d), True),
        ("css", css_schedule_lnn(cnot_only).circuit, True),
        ("css flat", css_flat(cnot_only), True),
        ("css with cz", css_schedule_lnn(mixed).circuit, False),
        ("qft", qft_lnn(QftSpec(n)).circuit, False),
        ("aqft", qft_lnn(QftSpec(n, 2)).circuit, False),
        ("qft flat", qft_flat(QftSpec(n)), False),
        ("skeleton", schedule_lnn(SkeletonSpec(n)).circuit, False),
    ]


@pytest.mark.parametrize("n", [5, 12])
def test_every_generator(n):
    for name, c, has_form in _generated(n, Random(n)):
        assert (_check(c) is not None) == has_form, name


@pytest.mark.parametrize(
    "gate", [cz(0, 1), cphase(1, 0, 1), generic2(0, 1)], ids=["cz", "cphase", "g"]
)
def test_no_cnot_form_is_none(gate):
    c = Circuit(2, (cnot(0, 1), swap(0, 1), gate))
    assert c.cnot_depth() is None
    with pytest.raises(ValueError, match=f"cannot expand {gate.kind.value}"):
        expand_circuit_to_cnot(c)


def test_expansion_depth_is_a_read(monkeypatch):
    c = synthesize_lnn(GF2Matrix.random_nonsingular(6, Random(2))).circuit
    expanded, want = expand_circuit_to_cnot(c), c.cnot_depth()

    def no_walk(*args):
        raise AssertionError("the expansion was walked again")

    monkeypatch.setattr(core, "_layer_walk", no_walk)
    monkeypatch.setattr(core, "_fold_walk", no_walk)
    assert expanded.depth() == want
    assert two_qubit_layer_count(expanded) == generic_depth(expanded) == want  # only CNOTs: each its own unit
    assert expanded.cnot_depth() == expanded.depth()
    assert [layer for layer, _ in classify_layers(expanded)] == list(range(want))


def test_expansion_arrives_with_its_distinct_gates(monkeypatch):
    """Every object of an expansion is among the distinct gates it arrives with,
    so the placement check reads them as it reads a fresh Circuit's, and no
    position of the expansion is scanned."""
    rng = Random(SEED)
    circuits = [Circuit(2, gates) for gates, _ in HAND_MADE]
    circuits += [_random_circuit(rng) for _ in range(N_CIRCUITS)]
    circuits += [c for n in (5, 12) for _, c, has_form in _generated(n, Random(n)) if has_form]
    scans = []
    real = Circuit.__post_init__
    monkeypatch.setattr(Circuit, "__post_init__", lambda self: scans.append(self) or real(self))
    for c in circuits:
        expanded = expand_circuit_to_cnot(c)
        assert scans == [], c
        distinct = {id(g) for g in expanded._distinct}
        assert len(distinct) == len(expanded._distinct)
        assert all(id(g) in distinct for g in expanded.gates), c
        fresh = Circuit(c.n_wires, expanded.gates)
        scans.clear()
        arch = Architecture.lnn(c.n_wires)
        assert validate_on(expanded, arch) == validate_on(fresh, arch), c


def test_validate_on_names_the_first_off_edge_gate():
    arch = Architecture.lnn(4)
    bad = Gate(GateKind.CNOT, (2, 0))
    c = Circuit(4, (cnot(0, 1), h(3), swap(2, 3), bad, cz(0, 3), bad, cnot(1, 2)))
    report = validate_on(c, arch)
    assert not report.ok
    assert report.violation == (3, (0, 2))
    assert validate_on(Circuit(4, (cnot(0, 1), swap(2, 3), cnot(2, 1))), arch).ok
