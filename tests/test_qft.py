"""Fourier transform generation, flat and chained."""

import numpy as np
import pytest

from chainforge.core import Circuit, GateKind, generic_depth, two_qubit_layer_count
from chainforge.oracle import (
    _source_index,
    bit_reversal_permutation,
    circuit_unitary,
    dft_matrix,
    matrices_equiv,
    unitary_equiv,
)
from chainforge.qft import QftSpec, qft_flat, qft_lnn


def _dft_check(circuit, final_map, n) -> bool:
    """The unitary relabeled by bit reversal, as `unitary @ permutation_matrix(bit_reversal_permutation(n))`
    by a column gather: that matrix's row y is one-hot at src[y], so the product's column src[y] is column y."""
    unitary, src = circuit_unitary(circuit), _source_index(bit_reversal_permutation(n))
    u = np.empty_like(unitary)
    u[:, src] = unitary
    return matrices_equiv(u, dft_matrix(n), out_perm=final_map)


def test_flat_gate_list_for_three_wires():
    c = qft_flat(QftSpec(3))
    names = [(g.kind, g.qubits, g.param) for g in c.gates]
    assert names == [
        (GateKind.H, (0,), None),
        (GateKind.CPHASE, (0, 1), 2),
        (GateKind.CPHASE, (0, 2), 3),
        (GateKind.H, (1,), None),
        (GateKind.CPHASE, (1, 2), 2),
        (GateKind.H, (2,), None),
    ]


def test_flat_matches_dft_after_bit_reversal():
    for n in range(1, 6):
        c = qft_flat(QftSpec(n))
        assert _dft_check(c, None, n)


def test_chain_schedule_matches_dft():
    for n in range(1, 6):
        sc = qft_lnn(QftSpec(n))
        assert _dft_check(sc.circuit, sc.final_map, n)


def test_chain_depth_and_final_map():
    for n in range(2, 12):
        sc = qft_lnn(QftSpec(n))
        assert two_qubit_layer_count(sc.circuit) == 4 * n - 6
        assert sc.circuit.depth() == 4 * n - 4
        assert sc.final_map == bit_reversal_permutation(n)
    assert qft_lnn(QftSpec(1)).circuit.depth() == 1


def test_single_wire_is_one_hadamard():
    sc = qft_lnn(QftSpec(1))
    assert [g.kind for g in sc.circuit.gates] == [GateKind.H]
    assert sc.final_map == (0,)


def test_generic_depth_of_schedule():
    # each rotation absorbs its slot's swap; only the edge hadamards remain
    for n in range(3, 9):
        assert generic_depth(qft_lnn(QftSpec(n)).circuit) == 2 * n - 3


def test_approximation_drops_small_rotations_but_keeps_routing():
    spec = QftSpec(6, approx_threshold=3)
    full = qft_lnn(QftSpec(6))
    approx = qft_lnn(spec)
    assert approx.circuit.count(GateKind.CPHASE) < full.circuit.count(GateKind.CPHASE)
    assert approx.circuit.count(GateKind.SWAP) == full.circuit.count(GateKind.SWAP)
    assert approx.final_map == full.final_map
    assert all(
        g.param <= 3 for g in approx.circuit.gates if g.kind is GateKind.CPHASE
    )
    flat = qft_flat(spec)
    assert all(g.param <= 3 for g in flat.gates if g.kind is GateKind.CPHASE)


def test_truncated_schedule_is_the_full_one_without_the_dropped_rotations():
    for n in range(2, 25):
        full = qft_lnn(QftSpec(n))
        for m in range(1, n + 1):
            sc = qft_lnn(QftSpec(n, m))
            kept = tuple(g for g in full.circuit.gates if g.kind is not GateKind.CPHASE or g.param <= m)
            assert sc.circuit.gates == kept, (n, m)
            assert sc.final_map == full.final_map and sc.arch == full.arch


def test_every_scheduled_spec_matches_its_flat_circuit():
    for n in range(2, 8):
        for m in (None, *range(1, n + 1)):
            spec = QftSpec(n, m)
            sc = qft_lnn(spec)
            assert unitary_equiv(qft_flat(spec), sc.circuit, relabel=sc.final_map), (n, m)
    # the check sees a single missing rotation
    spec = QftSpec(5, 3)
    sc = qft_lnn(spec)
    drop = next(i for i, g in enumerate(sc.circuit.gates) if g.kind is GateKind.CPHASE)
    short = Circuit(5, sc.circuit.gates[:drop] + sc.circuit.gates[drop + 1 :])
    assert not unitary_equiv(qft_flat(spec), short, relabel=sc.final_map)


def test_approximation_flag_is_respected():
    with pytest.raises(ValueError):
        QftSpec(4, approx_threshold=9)
    with pytest.raises(ValueError):
        QftSpec(0)
