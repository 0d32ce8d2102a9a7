"""The CNOT expansion against the dict-based loop it replaced.

`ref_expand_circuit_to_cnot` below is `linsynth.expand_circuit_to_cnot` as
it stood before the per-wire rewrite, copied unchanged apart from its name
and docstring. The expansion must return the same gates, in the same order,
on seeded random circuits and on the hand-made fold cases.
"""

from random import Random

import pytest

from chainforge.core import Circuit, Gate, GateKind, cnot, cz, generic_depth, h, p, swap
from chainforge.linsynth import expand_circuit_to_cnot

SEED = 20261020
N_CIRCUITS = 400

Pair = tuple[int, int]


def _count(circuit, kind) -> int:
    """How many of the circuit's gates are of `kind`."""
    return sum(g.kind is kind for g in circuit.gates)


def ref_expand_circuit_to_cnot(circuit: Circuit) -> Circuit:
    """Reference loop: last gate per wire and foldable CNOT per pair in dicts."""
    out: list[Gate] = []
    last_on_wire: dict[int, int] = {}
    foldable: dict[Pair, int] = {}  # may go stale; last_on_wire decides
    cnots: dict[Pair, Gate] = {}

    def cx(c: int, t: int) -> Gate:
        g = cnots.get((c, t))
        if g is None:
            g = cnots[c, t] = cnot(c, t)
        return g

    for g in circuit.gates:
        if g.kind in (GateKind.H, GateKind.P):
            out.append(g)
            last_on_wire[g.qubits[0]] = len(out) - 1
            continue
        if g.kind not in (GateKind.CNOT, GateKind.SWAP):
            raise ValueError(f"cannot expand {g.kind.value} gates to CNOTs")
        pair = (min(g.qubits), max(g.qubits))
        if g.kind is GateKind.SWAP:
            idx = foldable.pop(pair, None)
            if idx is not None and last_on_wire[pair[0]] == idx and last_on_wire[pair[1]] == idx:
                c, t = out[idx].qubits
                out.append(out[idx])
                out[idx] = cx(t, c)
            else:
                a, b = pair
                ab = cx(a, b)
                out.extend((ab, cx(b, a), ab))
        else:
            out.append(g)
            foldable[pair] = len(out) - 1
        for q in pair:
            last_on_wire[q] = len(out) - 1
    return Circuit(circuit.n_wires, tuple(out))


def _random_circuit(rng: Random) -> Circuit:
    """H, P, CNOT both ways and SWAP; some stretches stay on one pair so
    SWAPs meet the CNOTs they fold into, sometimes across a one-qubit gate."""
    n = rng.randint(2, 12)
    gates = []
    for _ in range(rng.randint(1, 10)):
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            pool = (cnot(a, b), cnot(b, a), swap(a, b), h(a), p(b))
            gates.extend(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        else:
            for _ in range(rng.randint(1, 2 * n)):
                a, b = rng.sample(range(n), 2)
                pick = rng.randrange(4)
                if pick == 0:
                    gates.append(rng.choice((h, p))(a))
                elif pick == 1:
                    gates.append(swap(a, b))
                else:
                    gates.append(cnot(a, b))  # a random order covers both directions
    return Circuit(n, tuple(gates))


HAND_MADE = [
    # CNOT then SWAP: folds into two CNOTs
    ((cnot(0, 1), swap(0, 1)), (cnot(1, 0), cnot(0, 1))),
    # a one-qubit gate in between blocks the fold
    ((cnot(0, 1), h(0), swap(0, 1)), (cnot(0, 1), h(0), cnot(0, 1), cnot(1, 0), cnot(0, 1))),
    # the second SWAP finds no unfolded CNOT and stays bare
    (
        (cnot(0, 1), swap(0, 1), swap(0, 1)),
        (cnot(1, 0), cnot(0, 1), cnot(0, 1), cnot(1, 0), cnot(0, 1)),
    ),
    # only the later of two CNOTs on the pair folds
    ((cnot(0, 1), cnot(0, 1), swap(0, 1)), (cnot(0, 1), cnot(1, 0), cnot(0, 1))),
    # a reversed CNOT folds too
    ((cnot(1, 0), swap(0, 1)), (cnot(0, 1), cnot(1, 0))),
    # a bare SWAP's CNOTs never fold with the next SWAP
    ((swap(0, 1), swap(0, 1)), (cnot(0, 1), cnot(1, 0), cnot(0, 1)) * 2),
]


def test_expansion_matches_the_reference_loop():
    rng = Random(SEED)
    circuits = [Circuit(2, gates) for gates, _ in HAND_MADE]
    circuits += [_random_circuit(rng) for _ in range(N_CIRCUITS)]
    folds = 0
    for c in circuits:
        got = expand_circuit_to_cnot(c)
        assert got.n_wires == c.n_wires
        assert got.gates == ref_expand_circuit_to_cnot(c).gates, c
        # a folded SWAP adds one CNOT, a bare one three
        folds += (3 * _count(c, GateKind.SWAP) + len(c) - len(got)) // 2
    assert folds > 100  # the random circuits do exercise the fold (272 of 2,661 SWAPs)


def test_hand_made_fold_cases():
    for gates, want in HAND_MADE:
        assert expand_circuit_to_cnot(Circuit(2, gates)).gates == want, gates
    with pytest.raises(ValueError, match="cannot expand cz"):
        expand_circuit_to_cnot(Circuit(2, (cnot(0, 1), cz(0, 1))))


def test_fold_differs_from_generic_depth_fuse():
    """generic_depth fuses a SWAP into its gate across a one-qubit gate;
    the expansion does not fold across one."""
    c = Circuit(2, (cnot(0, 1), h(0), swap(0, 1)))
    assert generic_depth(c) == 1
    assert len(expand_circuit_to_cnot(c)) == 5
