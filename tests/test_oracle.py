"""Dense statevector reference, equivalence checks, and the GF(2) shadow."""

import cmath
import math
from random import Random

import numpy as np
import pytest

from chainforge import oracle
from chainforge.core import Circuit, Gate, GateKind, cnot, cphase, cz, generic2, h, p, swap
from chainforge.css import CssGate, CssMode, CssSpec, css_flat, css_schedule_lnn
from chainforge.linsynth import parse_gf2
from chainforge.qft import QftSpec, qft_flat, qft_lnn
from chainforge.oracle import (
    MAX_SIM_WIRES,
    MAX_UNITARY_WIRES,
    apply_gate,
    bit_reversal_permutation,
    circuit_unitary,
    dft_matrix,
    gf2_action,
    matrices_equiv,
    permutation_matrix,
    simulate,
    states_equiv,
    unitary_equiv,
)

_SQ2 = 1.0 / np.sqrt(2.0)


def _basis(n: int, x: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[x] = 1.0
    return state


def test_wire_zero_is_the_low_bit():
    out = simulate(Circuit(2, (h(0),)), _basis(2, 0))
    assert np.allclose(out, [_SQ2, _SQ2, 0, 0])
    out = simulate(Circuit(2, (h(1),)), _basis(2, 0))
    assert np.allclose(out, [_SQ2, 0, _SQ2, 0])


def test_cnot_targets_the_named_wire():
    c = Circuit(2, (cnot(0, 1),))
    assert np.allclose(simulate(c, _basis(2, 1)), _basis(2, 3))
    assert np.allclose(simulate(c, _basis(2, 2)), _basis(2, 2))
    c = Circuit(2, (cnot(1, 0),))
    assert np.allclose(simulate(c, _basis(2, 2)), _basis(2, 3))


def test_swap_exchanges_wire_values():
    c = Circuit(2, (swap(0, 1),))
    assert np.allclose(simulate(c, _basis(2, 1)), _basis(2, 2))
    assert np.allclose(simulate(c, _basis(2, 3)), _basis(2, 3))


def test_phase_gates():
    assert np.allclose(simulate(Circuit(1, (p(0),)), _basis(1, 1)), 1j * _basis(1, 1))
    assert np.allclose(simulate(Circuit(2, (cz(0, 1),)), _basis(2, 3)), -_basis(2, 3))
    # cphase(1) is exactly cz, cphase(2) applies i, cphase(3) the eighth root
    assert np.allclose(
        circuit_unitary(Circuit(2, (cphase(1, 0, 1),))),
        circuit_unitary(Circuit(2, (cz(0, 1),))),
    )
    out = simulate(Circuit(2, (cphase(2, 0, 1),)), _basis(2, 3))
    assert np.allclose(out, 1j * _basis(2, 3))
    out = simulate(Circuit(2, (cphase(3, 0, 1),)), _basis(2, 3))
    assert np.allclose(out, np.exp(1j * np.pi / 4) * _basis(2, 3))


def test_generic_placeholder_cannot_be_simulated():
    with pytest.raises(ValueError):
        simulate(Circuit(2, (generic2(0, 1),)))


def test_simulate_defaults_and_copies():
    out = simulate(Circuit(1, ()))
    assert np.allclose(out, _basis(1, 0))
    state = _basis(2, 1)
    before = state.copy()
    simulate(Circuit(2, (h(0), cnot(0, 1))), state)
    assert np.array_equal(state, before)


def test_simulate_batch_columns():
    c = Circuit(2, (h(0), cnot(0, 1)))
    batch = simulate(c, np.eye(4, dtype=complex))
    assert np.allclose(batch, circuit_unitary(c))


def test_wire_caps_are_enforced():
    with pytest.raises(ValueError):
        simulate(Circuit(MAX_SIM_WIRES + 1, ()))
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(MAX_UNITARY_WIRES + 1, ()))


def test_permutation_matrix_moves_bits():
    assert np.allclose(
        permutation_matrix((1, 0)), circuit_unitary(Circuit(2, (swap(0, 1),)))
    )
    assert np.allclose(permutation_matrix((0, 1, 2)), np.eye(8))
    # wire 0 -> wire 2 sends basis index 1 to index 4
    m = permutation_matrix((2, 0, 1))
    assert m[4, 1] == 1.0


def test_unitary_equiv_ignores_global_phase():
    xz = Circuit(1, (p(0), p(0), h(0), p(0), p(0), h(0)))
    zx = Circuit(1, (h(0), p(0), p(0), h(0), p(0), p(0)))
    assert unitary_equiv(xz, zx, tol=1e-12)
    assert not unitary_equiv(xz, Circuit(1, (h(0),)))


def test_unitary_equiv_relabel_matches_final_map_convention():
    routed = Circuit(2, (cnot(0, 1), swap(0, 1)))
    flat = Circuit(2, (cnot(0, 1),))
    assert unitary_equiv(routed, flat, relabel=(1, 0))
    assert not unitary_equiv(routed, flat)
    assert unitary_equiv(Circuit(2, (swap(0, 1),)), Circuit(2, ()), relabel=(1, 0))


def test_states_equiv_phase_and_mismatch():
    plus = simulate(Circuit(1, (h(0),)))
    also_plus = np.exp(0.7j) * plus
    assert states_equiv(plus, also_plus)
    assert not states_equiv(plus, _basis(1, 0))


def test_dft_matrix_small_cases():
    assert np.allclose(dft_matrix(1), _SQ2 * np.array([[1, 1], [1, -1]]))
    w = 1j
    expect = 0.5 * np.array(
        [[w ** (j * k) for k in range(4)] for j in range(4)], dtype=complex
    )
    assert np.allclose(dft_matrix(2), expect)


def test_bit_reversal_permutation():
    assert bit_reversal_permutation(3) == (2, 1, 0)
    assert bit_reversal_permutation(1) == (0,)


def test_gf2_action_of_cnot_and_swap():
    a = gf2_action(Circuit(2, (cnot(0, 1),)))
    assert a == parse_gf2("gf2 2\n10\n11\n")
    a = gf2_action(Circuit(3, (swap(0, 2),)))
    assert a == parse_gf2("gf2 3\n001\n010\n100\n")
    with pytest.raises(ValueError):
        gf2_action(Circuit(2, (h(0),)))


def test_gf2_action_agrees_with_dense_on_random_circuits():
    rng = Random(31)
    for _ in range(25):
        n = rng.randint(2, 6)
        gates = []
        for _ in range(rng.randint(1, 30)):
            a, b = rng.sample(range(n), 2)
            gates.append(cnot(a, b) if rng.random() < 0.7 else swap(a, b))
        c = Circuit(n, tuple(gates))
        m = gf2_action(c)
        for _ in range(4):
            x = rng.randrange(1 << n)
            out = simulate(c, _basis(n, x))
            assert np.allclose(out, _basis(n, m.apply(x)))


# --- the moveaxis/tensordot kernels and the matrix-product relabeling that the
# strided in-place kernels and the row gather replaced, kept as the reference

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_P = np.array([[1, 0], [0, 1j]], dtype=complex)


def _axis(n: int, wire: int) -> int:
    # after reshaping to [2] * n the first axis is the most significant bit
    return n - 1 - wire


def _reference_apply_gate(state, g, n):
    batched = state.ndim == 2
    batch = state.shape[1] if batched else 1
    psi = state.reshape([2] * n + [batch])
    if g.kind is GateKind.H or g.kind is GateKind.P:
        ax = _axis(n, g.qubits[0])
        psi = np.moveaxis(psi, ax, 0)
        m = _H if g.kind is GateKind.H else _P
        psi = np.tensordot(m, psi, axes=([1], [0]))
        psi = np.moveaxis(psi, 0, ax)
    elif g.kind is GateKind.GENERIC2:
        raise ValueError("generic two-qubit placeholders have no fixed unitary")
    else:
        a, b = g.qubits
        psi = np.moveaxis(psi, (_axis(n, a), _axis(n, b)), (0, 1))
        if g.kind is GateKind.CNOT:
            psi[1] = psi[1, ::-1]
        elif g.kind is GateKind.CZ:
            psi[1, 1] = -psi[1, 1]
        elif g.kind is GateKind.SWAP:
            tmp = psi[0, 1].copy()
            psi[0, 1] = psi[1, 0]
            psi[1, 0] = tmp
        elif g.kind is GateKind.CPHASE:
            psi[1, 1] = cmath.exp(2j * math.pi / 2**g.param) * psi[1, 1]
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown gate kind {g.kind}")
        psi = np.moveaxis(psi, (0, 1), (_axis(n, a), _axis(n, b)))
    out = psi.reshape(2**n, batch)
    return out if batched else out[:, 0]


def _reference_permutation_matrix(perm):
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{tuple(perm)} is not a permutation")
    dim = 2**n
    sigma = np.zeros(dim, dtype=np.int64)
    for x in range(dim):
        y = 0
        for w in range(n):
            if (x >> w) & 1:
                y |= 1 << perm[w]
        sigma[x] = y
    m = np.zeros((dim, dim), dtype=complex)
    m[sigma, np.arange(dim)] = 1.0
    return m


def _reference_matrices_equiv(u1, u2, out_perm=None, tol=1e-10):
    if out_perm is not None:
        u2 = _reference_permutation_matrix(out_perm) @ u2
    if u1.shape != u2.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(u1)), u1.shape)
    if abs(u1[idx]) < tol or abs(u2[idx]) < tol:
        return False
    phase = u1[idx] / u2[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(u1 - phase * u2)) <= tol)


# fixed before the comparison was written: a few complex128 roundings per gate
_KERNEL_TOL = 1e-12


def _random_gate(rng: Random, n: int) -> Gate:
    if n == 1 or rng.random() < 0.4:
        return (h if rng.random() < 0.5 else p)(rng.randrange(n))
    a, b = rng.sample(range(n), 2)  # any two wires, adjacent or not, either order
    kind = rng.choice(("cnot", "swap", "cz", "cphase"))
    if kind == "cphase":
        return cphase(rng.randint(1, 5), a, b)
    return {"cnot": cnot, "swap": swap, "cz": cz}[kind](a, b)


def _random_state(rng: Random, n: int, batch: int | None) -> np.ndarray:
    shape = (1 << n,) if batch is None else (1 << n, batch)
    np_rng = np.random.default_rng(rng.randrange(1 << 30))
    return np_rng.normal(size=shape) + 1j * np_rng.normal(size=shape)


def test_kernels_match_the_reference_on_random_circuits():
    rng = Random(5)
    kinds = set()
    for n in range(1, 11):
        for batch in (None, 1, 3):
            gates = [_random_gate(rng, n) for _ in range(rng.randint(20, 40))]
            kinds.update(g.kind for g in gates)
            state = _random_state(rng, n, batch)
            ours, ref = state.copy(), state.copy()
            for g in gates:
                ours = apply_gate(ours, g, n)
                ref = _reference_apply_gate(ref, g, n)
                assert ours.shape == ref.shape == state.shape
                assert np.max(np.abs(ours - ref)) <= _KERNEL_TOL, (n, batch, g)
    assert kinds == set(GateKind) - {GateKind.GENERIC2}


def test_permutation_matrix_matches_the_reference():
    rng = Random(7)
    perms = [(0,), (1, 0), (0, 1, 2), (2, 0, 1), (1, 2, 0), (3, 1, 0, 2)]
    for n in range(2, 9):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(tuple(perm))
    for perm in perms:
        assert np.array_equal(permutation_matrix(perm), _reference_permutation_matrix(perm))
    with pytest.raises(ValueError):
        permutation_matrix((0, 0))


def test_matrices_equiv_verdicts_match_the_reference():
    rng = Random(8)
    verdicts = []
    for n in range(1, 7):
        for _ in range(4):
            u2 = circuit_unitary(Circuit(n, tuple(_random_gate(rng, n) for _ in range(25))))
            perm = list(range(n))
            rng.shuffle(perm)
            perm = tuple(perm)
            match = cmath.exp(1j * rng.uniform(0, 6)) * (_reference_permutation_matrix(perm) @ u2)
            perturbed = match.copy()
            perturbed[rng.randrange(1 << n), rng.randrange(1 << n)] += 1e-6
            other = list(range(n))
            rng.shuffle(other)
            for u1, out_perm in (
                (match, perm),
                (perturbed, perm),
                (match, tuple(other)),
                (match, None),
                (u2, None),
                (2 * u2, None),
            ):
                got = matrices_equiv(u1, u2, out_perm=out_perm)
                assert got == _reference_matrices_equiv(u1, u2, out_perm=out_perm)
                verdicts.append(got)
            assert matrices_equiv(match, u2, out_perm=perm)
            assert not matrices_equiv(perturbed, u2, out_perm=perm)
    assert True in verdicts and False in verdicts
    assert not matrices_equiv(np.eye(4), np.eye(2))
    assert not matrices_equiv(np.ones(4), np.ones(4))


def test_phase_fixed_comparison_across_blocks():
    """Matrices spanning several comparison blocks: a 1e-6 mismatch in the
    last block is caught, and the phase is fixed at the largest entry when
    it lies in a later block than the first."""
    gen = np.random.default_rng(11)
    dim = 512  # 2**18 entries, several blocks
    assert oracle._BLOCK <= dim * dim // 4
    u2 = gen.uniform(-0.5, 0.5, (dim, dim)) + 1j * gen.uniform(-0.5, 0.5, (dim, dim))
    u2.reshape(-1)[: oracle._BLOCK] *= 1e-9  # the first block holds only tiny entries
    u2[dim - 2, 7] = 3.0 - 1.0j  # the largest entry
    phase = cmath.exp(0.7j)
    match = phase * u2
    # within tol of phase * u2, but a phase fixed at this entry has |phase| - 1 = 1e-3
    first = int(np.argmax(np.abs(u2.reshape(-1)[: oracle._BLOCK])))
    match.reshape(-1)[first] *= 1 + 1e-3
    late = match.copy()
    late[-1, -1] += 1e-6  # in the last block
    big = match.copy()
    big[dim - 2, 7] *= 1 + 1e-6  # the entry that fixes the phase
    for u1, expect in ((match, True), (late, False), (big, False)):
        assert matrices_equiv(u1, u2) is expect
        assert _reference_matrices_equiv(u1, u2) is expect
        assert states_equiv(u1.reshape(-1), u2.reshape(-1)) is expect
    assert matrices_equiv(late, u2, tol=1e-5)
    nan = match.copy()
    nan[-1, 0] = np.nan
    assert not matrices_equiv(nan, u2) and not matrices_equiv(match, nan)


def test_apply_gate_updates_and_returns_the_given_buffer():
    rng = Random(9)
    n = 4
    gates = [h(1), p(2), cnot(3, 0), cnot(0, 2), swap(1, 3), cz(0, 3), cphase(3, 1, 2)]
    for batch in (None, 2):
        for g in gates:
            state = _random_state(rng, n, batch)
            expect = _reference_apply_gate(state.copy(), g, n)
            out = apply_gate(state, g, n)
            assert out is state, g
            assert np.max(np.abs(state - expect)) <= _KERNEL_TOL


def test_apply_gate_copies_a_buffer_it_cannot_update_in_place():
    n = 3
    rng = Random(10)
    wide = _random_state(rng, n, 4)
    real = np.zeros(1 << n)
    real[5] = 1.0
    frozen = _random_state(rng, n, None)
    frozen.flags.writeable = False
    cases = [
        wide[:, ::2],  # strided columns
        np.asfortranarray(wide),  # column-major
        _random_state(rng, n + 1, None)[::2],  # strided rows
        real,  # float64
        real.astype(np.int64),
        real.astype(np.complex64),
        frozen,
    ]
    for state in cases:
        before = state.copy()
        for g in (h(0), cnot(2, 0), cphase(2, 0, 1)):
            out = apply_gate(state, g, n)
            assert out is not state
            assert out.dtype == np.complex128 and out.flags.c_contiguous
            expect = _reference_apply_gate(np.array(state, dtype=complex), g, n)
            assert np.max(np.abs(out - expect)) <= _KERNEL_TOL
            assert np.array_equal(state, before)
    for bad in (np.zeros(6, dtype=complex), np.zeros((2, 2, 2), dtype=complex)):
        with pytest.raises(ValueError):
            apply_gate(bad, h(0), n)


def test_simulate_and_unitary_apply_each_gate_once(monkeypatch):
    calls = []

    def counted(state, g, n):
        calls.append(g)
        return apply_gate(state, g, n)

    monkeypatch.setattr(oracle, "apply_gate", counted)
    c = Circuit(3, (h(0), cnot(0, 2), swap(1, 2), cphase(2, 0, 1), p(2)))
    simulate(c)
    assert calls == list(c.gates)
    calls.clear()
    circuit_unitary(c)
    assert calls == list(c.gates)


# --- wide batches: runs of monomial gates applied as one row gather


def _runs_circuit(rng: Random, n: int) -> Circuit:
    """Runs of 1 to 6 monomial gates: one first, one last, and H gates between them."""
    gates = []
    for i in range(rng.randint(2, 5)):
        if i:
            gates.extend(h(rng.randrange(n)) for _ in range(rng.randint(1, 2)))
        k = rng.choice((1, 1, 2, 3, 6))
        while k:
            g = _random_gate(rng, n)
            if g.kind is not GateKind.H:
                gates.append(g)
                k -= 1
    return Circuit(n, tuple(gates))


def _reference_run(state: np.ndarray, c: Circuit) -> np.ndarray:
    for g in c.gates:
        state = _reference_apply_gate(state, g, c.n_wires)
    return state


def test_fused_runs_match_the_gate_by_gate_reference():
    rng = Random(12)
    kinds, far = set(), False
    for n in range(1, 11):
        for _ in range(2):
            c = _runs_circuit(rng, n)
            kinds.update(g.kind for g in c.gates)
            far |= any(len(g.qubits) == 2 and abs(g.qubits[0] - g.qubits[1]) > 1 for g in c.gates)
            for batch in sorted({1, 3, 15, 16, 1 << n}):
                state = _random_state(rng, n, batch)
                before = state.copy()
                out = simulate(c, state)
                assert np.array_equal(state, before)
                assert np.max(np.abs(out - _reference_run(before, c))) <= _KERNEL_TOL, (n, batch)
            if n <= MAX_UNITARY_WIRES:
                ref = _reference_run(np.eye(1 << n, dtype=complex), c)
                assert np.max(np.abs(circuit_unitary(c) - ref)) <= _KERNEL_TOL, n
    assert kinds == set(GateKind) - {GateKind.GENERIC2} and far


def test_runs_go_through_a_probe_from_sixteen_columns(monkeypatch):
    """A run of two or more monomial gates passes through apply_gate on a
    two-column probe, from 16 columns up; a generic gate right after a run
    still raises, and no gate after it is applied."""
    seen = []

    def counted(state, g, n):
        seen.append((g, state.shape[1:]))
        return apply_gate(state, g, n)

    monkeypatch.setattr(oracle, "apply_gate", counted)
    gates = (cnot(0, 3), cz(1, 2), h(0), p(3), h(1), swap(0, 2), cphase(3, 1, 3), generic2(0, 1), h(2))
    c = Circuit(4, gates)
    for run, probed in ((lambda: simulate(c, np.eye(16, 15)), set()),
                        (lambda: simulate(c, np.eye(16)), {0, 1, 5, 6}),
                        (lambda: circuit_unitary(c), {0, 1, 5, 6})):
        seen.clear()
        with pytest.raises(ValueError, match="generic two-qubit placeholders have no fixed unitary"):
            run()
        assert [g for g, _ in seen] == list(gates[:8])
        assert {i for i, (_, shape) in enumerate(seen) if shape == (2,)} == probed


@pytest.mark.parametrize("n", (9, 10))
def test_wide_dense_check_catches_one_changed_gate(n):
    """A schedule matches its flat reference, and fails it with one cphase
    k or one CNOT direction changed."""
    eye = np.eye(1 << n, dtype=complex)
    kinds = (CssGate.CNOT, CssGate.CZ, CssGate.NONE)
    s = n // 2
    rows = tuple(tuple(kinds[(i + j) % 3] for j in range(n - s)) for i in range(s))
    spec = CssSpec(CssMode.SYNDROME, s, n - s, rows, hadamard_mask=0b101)
    for sc, flat, kind in ((css_schedule_lnn(spec), css_flat(spec), GateKind.CNOT),
                           (qft_lnn(QftSpec(n)), qft_flat(QftSpec(n)), GateKind.CPHASE)):
        ref = simulate(flat, eye)
        assert matrices_equiv(simulate(sc.circuit, eye), ref, out_perm=sc.final_map)
        gates = list(sc.circuit.gates)
        of_kind = [i for i, g in enumerate(gates) if g.kind is kind]
        i = of_kind[len(of_kind) // 2]
        a, b = gates[i].qubits
        gates[i] = cnot(b, a) if kind is GateKind.CNOT else cphase(gates[i].param + 1, a, b)
        changed = Circuit(n, tuple(gates))
        assert not matrices_equiv(simulate(changed, eye), ref, out_perm=sc.final_map)
