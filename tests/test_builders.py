"""Generated circuits arrive built: each generator and flat reference hands its `Circuit` the gate
objects it made, so `Circuit.__post_init__` scans no position and no made gate is checked twice.
The checks a scan would make are made here instead, on every builder's output."""

from random import Random

import pytest

import chainforge.core as core
from chainforge.core import (
    Circuit,
    Gate,
    cnot,
    cphase,
    cz,
    generic2,
    prune_trailing_swap_layers,
    swap,
    validate_gate,
)
from chainforge.css import CssGate, CssMode, CssSpec, css_flat, css_schedule_lnn, steane_syndrome
from chainforge.linsynth import GF2Matrix, expand_circuit_to_cnot, synthesize_lnn
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.skeleton import SkeletonSpec, schedule_lnn
from chainforge.stabilizer import random_decomposition, schedule_stabilizer, stabilizer_flat

_RNG = Random(20261019)
_A = GF2Matrix.random_nonsingular(12, _RNG)
_D = random_decomposition(7, _RNG)
_ONE_CNOT = GF2Matrix(7, tuple(1 << i | (i == 5) << 2 for i in range(7)))  # row 5 adds row 2: one slot, d = 3
_SWAP = swap(0, 1)  # a payload, made before any count starts
_MIXED = {
    (0, 1): cnot(1, 0), (1, 2): cz(1, 2), (1, 4): cphase(3, 1, 4), (2, 6): generic2(2, 6), (3, 4): cnot(3, 4)
}
_NEIGHBOURS = {(a, a + 1): cz(a, a + 1) for a in range(5)}  # every d = 1 pair listed on 6 wires
_ENCODE = CssSpec(CssMode.ENCODE, 2, 3, ((CssGate.CNOT, CssGate.NONE, CssGate.CZ),) * 3, 0b101)


# name -> (builder, validate_gate calls it may make: None where public gate helpers make gates)
BUILDERS = {
    "schedule_lnn": (lambda: schedule_lnn(SkeletonSpec(9)), 0),
    "schedule_lnn, mixed payloads and absences": (
        lambda: schedule_lnn(SkeletonSpec(7, frozenset({(0, 3), (2, 5)}), _MIXED)), 0),
    "schedule_lnn, every neighbour pair a payload": (
        lambda: schedule_lnn(SkeletonSpec(6, payload=_NEIGHBOURS)), 0),
    "schedule_lnn --drop": (lambda: schedule_lnn(SkeletonSpec(6), drop_last_swaps=True), 0),
    "schedule_lnn n=2 --drop, the only SWAP dropped": (lambda: schedule_lnn(SkeletonSpec(2), True), 0),
    "schedule_lnn n=2 --drop, a SWAP payload kept": (
        lambda: schedule_lnn(SkeletonSpec(2, payload={(0, 1): _SWAP}), True), 0),
    "qft_lnn": (lambda: qft_lnn(QftSpec(9)), 1),
    "qft_lnn --approx": (lambda: qft_lnn(QftSpec(9, 3)), 1),
    "qft_lnn n=1": (lambda: qft_lnn(QftSpec(1)), 1),
    "qft_lnn --approx 1, no rotation kept": (lambda: qft_lnn(QftSpec(9, 1)), 1),
    "qft_flat": (lambda: qft_flat(QftSpec(9)), None),
    "qft_flat --approx": (lambda: qft_flat(QftSpec(9, 3)), None),
    "qft_flat n=1": (lambda: qft_flat(QftSpec(1)), None),
    "synthesize_lnn": (lambda: synthesize_lnn(_A), 0),
    "synthesize_lnn, one slot": (lambda: synthesize_lnn(_ONE_CNOT), 0),
    "prune_trailing_swap_layers": (lambda: prune_trailing_swap_layers(synthesize_lnn(_A)), 0),
    "schedule_stabilizer": (lambda: schedule_stabilizer(_D), None),
    "stabilizer_flat": (lambda: stabilizer_flat(_D), None),
    # one check per distinct gate handed over: each Hadamard, and one gate per (kind, site m), SWAPs included
    "css_schedule_lnn syndrome": (lambda: css_schedule_lnn(steane_syndrome()), 3 + 26),
    "css_schedule_lnn encode": (lambda: css_schedule_lnn(_ENCODE), 2 + 11),
    "css_flat": (lambda: css_flat(steane_syndrome()), None),
    "expand_circuit_to_cnot": (lambda: expand_circuit_to_cnot(synthesize_lnn(_A).circuit), None),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_a_builder_hands_over_exactly_the_gates_it_made(name, monkeypatch):
    build, most_checks = BUILDERS[name]
    scans, checks = [], []
    real_check = core.validate_gate
    monkeypatch.setattr(Circuit, "__post_init__", lambda c: scans.append(c))
    monkeypatch.setattr(core, "validate_gate", lambda g: checks.append(g) or real_check(g))
    built = build()
    monkeypatch.undo()
    circuit = getattr(built, "circuit", built)
    assert scans == []
    assert most_checks is None or len(checks) == most_checks
    fresh = Circuit(circuit.n_wires, circuit.gates)
    assert circuit == fresh and type(circuit.gates) is tuple
    # exactly the objects that occur: a site gate is made only for a d that some present slot has
    assert sorted(map(id, circuit._distinct)) == sorted({id(g) for g in circuit.gates})
    assert len(circuit._distinct) == len(fresh._distinct)
    for g in circuit._distinct:
        assert type(g) is Gate and all(q < circuit.n_wires for q in g.qubits)
        validate_gate(g)
