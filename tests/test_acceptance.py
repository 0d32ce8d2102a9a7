"""Package acceptance checklist.

Twelve end-to-end checks with pinned tolerances and runtime budgets. Each
test prints a single verdict line (bypassing capture, so a plain pytest
run shows them) and fails loudly if its bound, tolerance, or budget is
missed.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from chainforge.bounds import (
    BoundArch,
    BoundQuery,
    Model,
    brute_force_min_depth,
    lower_bound,
    stage_audit,
)
from chainforge.core import (
    Architecture,
    Circuit,
    GateKind,
    cnot,
    cphase,
    cz,
    generic_depth,
    h,
    p,
    prune_trailing_swap_layers,
    swap,
    two_qubit_layer_count,
    validate_on,
)
from chainforge.css import (
    CssGate,
    CssMode,
    CssSpec,
    css_flat,
    css_schedule_lnn,
    steane_syndrome,
)
from chainforge.linsynth import GF2Matrix, expand_to_cnot, synthesize_lnn
from chainforge.oracle import (
    _source_index,
    bit_reversal_permutation,
    circuit_unitary,
    dft_matrix,
    gf2_action,
    matrices_equiv,
    simulate,
    unitary_equiv,
)
from chainforge.qft import QftSpec, qft_lnn
from chainforge.skeleton import SkeletonSpec, all_pairs, schedule_lnn
from chainforge.stabilizer import (
    random_decomposition,
    schedule_stabilizer,
    stabilizer_flat,
    tableau_equiv,
    tableau_of,
)


@contextmanager
def _verdict(capsys, num, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:02d} {label}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    with capsys.disabled():
        print(f"acceptance {num:02d} {label}: PASS ({time.monotonic() - start:.1f}s)")


def test_acceptance_01_qft_matches_the_transform(capsys):
    with _verdict(capsys, 1, "qft matches the transform"):
        start = time.monotonic()
        for n in range(1, 10):
            sc = qft_lnn(QftSpec(n))
            # circuit_unitary(...) @ permutation_matrix(bit_reversal_permutation(n)), with no
            # matmul: that matrix's row y is one-hot at src[y], so the product's column src[y] is column y
            unitary, src = circuit_unitary(sc.circuit), _source_index(bit_reversal_permutation(n))
            u = np.empty_like(unitary)
            u[:, src] = unitary
            assert matrices_equiv(u, dft_matrix(n), out_perm=sc.final_map, tol=1e-10), n
        assert time.monotonic() - start < 30.0


def test_acceptance_02_qft_depth_formula(capsys):
    with _verdict(capsys, 2, "qft depth formula"):
        start = time.monotonic()
        constant = None
        for n in range(3, 65):
            sc = qft_lnn(QftSpec(n))
            assert two_qubit_layer_count(sc.circuit) == 4 * n - 6, n
            c = sc.circuit.depth() - 4 * n
            if constant is None:
                constant = c
            assert c == constant, (n, c, constant)
        assert time.monotonic() - start < 5.0


@pytest.fixture(scope="module")
def synthesis_sample():
    rng = Random(2026)
    start = time.monotonic()
    correct = 0
    local = 0
    total = 0
    generic_excess = -(10**9)
    cnot_excess = -(10**9)
    for n in (2, 4, 8, 16, 32):
        arch = Architecture.lnn(n)
        for _ in range(1000):
            a = GF2Matrix.random_nonsingular(n, rng)
            sc = synthesize_lnn(a)
            total += 1
            if gf2_action(sc.circuit).relabel(sc.final_map) == a:
                correct += 1
            if validate_on(sc.circuit, arch).ok:
                local += 1
            generic_excess = max(generic_excess, generic_depth(sc.circuit) - (6 * n - 9))
            cnot_excess = max(cnot_excess, expand_to_cnot(sc).circuit.depth() - 18 * n)
    return SimpleNamespace(
        total=total,
        correct=correct,
        local=local,
        generic_excess=generic_excess,
        cnot_excess=cnot_excess,
        elapsed=time.monotonic() - start,
    )


def test_acceptance_03_linear_synthesis_correctness(capsys, synthesis_sample):
    with _verdict(capsys, 3, "linear synthesis correctness"):
        s = synthesis_sample
        assert s.total == 5000
        assert s.correct == s.total
        assert s.local == s.total
        assert s.elapsed < 60.0


def test_acceptance_04_linear_synthesis_depth(capsys, synthesis_sample):
    with _verdict(capsys, 4, "linear synthesis depth"):
        # generic depth <= 3(2n-3) per instance; one constant works for the
        # expanded form: cnot depth <= 18n - 27 across every instance
        assert synthesis_sample.generic_excess <= 0
        assert synthesis_sample.cnot_excess <= -27


def test_acceptance_05_swap_cnot_merge(capsys):
    with _verdict(capsys, 5, "swap-cnot merge identity"):
        for a, b in ((0, 1), (1, 0)):
            merged = Circuit(2, (cnot(a, b), swap(0, 1)))
            replayed = Circuit(2, (cnot(b, a), cnot(a, b)))
            assert unitary_equiv(merged, replayed, tol=1e-12)
            assert gf2_action(merged) == gf2_action(replayed)
            # the reversed cnot pair matches only after relabeling both ends:
            # a SWAP on each side conjugates the action by the transposition
            reversed_pair = Circuit(2, (cnot(a, b), cnot(b, a)))
            conjugated = Circuit(2, (swap(0, 1), *merged.gates, swap(0, 1)))
            assert gf2_action(conjugated) == gf2_action(reversed_pair)
            assert gf2_action(merged) != gf2_action(reversed_pair)


def test_acceptance_06_stabilizer_staging(capsys):
    with _verdict(capsys, 6, "stabilizer staging"):
        start = time.monotonic()
        rng = Random(11)
        for n in range(2, 9):
            for _ in range(200):
                d = random_decomposition(n, rng)
                sc = schedule_stabilizer(d)
                assert tableau_equiv(sc.circuit, stabilizer_flat(d), relabel=sc.final_map)
                assert generic_depth(sc.circuit) <= 30 * n - 45
                assert expand_to_cnot(sc).circuit.depth() <= 90 * n - 129
        assert time.monotonic() - start < 120.0


def _full_css(mode, s, t):
    rows = s + 1 if mode is CssMode.ENCODE else s
    types = tuple(tuple(CssGate.CNOT for _ in range(t)) for _ in range(rows))
    return CssSpec(mode, s, t, types)


def test_acceptance_07_css_depths(capsys):
    with _verdict(capsys, 7, "css depths"):
        for s in range(1, 17):
            for t in range(1, 17):
                enc = css_schedule_lnn(_full_css(CssMode.ENCODE, s, t)).circuit
                assert generic_depth(enc) <= s + t + 1, (s, t)
                syn = css_schedule_lnn(_full_css(CssMode.SYNDROME, s, t)).circuit
                assert generic_depth(syn) <= s + t - 1, (s, t)
        worked = _full_css(CssMode.ENCODE, 3, 4)
        level_3 = {(c, j) for c, j, _ in worked.present() if worked.level_of(c, j) == 3}
        assert level_3 == {(4, 2), (3, 3), (2, 4)}  # control position 4 is b
        steane = css_schedule_lnn(steane_syndrome()).circuit
        assert generic_depth(steane) == 12
        assert steane.depth() <= 26


def _random_css(rng):
    mode = rng.choice((CssMode.ENCODE, CssMode.SYNDROME))
    s = rng.randint(1, 7)
    t = rng.randint(1, 9 - s if mode is CssMode.ENCODE else 9 - s)
    rows = s + 1 if mode is CssMode.ENCODE else s
    types = tuple(
        tuple(rng.choice((CssGate.NONE, CssGate.CNOT, CssGate.CZ)) for _ in range(t))
        for _ in range(rows)
    )
    spec = CssSpec(mode, s, t, types)
    mask = rng.getrandbits(spec.n_wires) if rng.random() < 0.5 else 0
    return CssSpec(mode, s, t, types, mask)


def test_acceptance_08_css_equivalence(capsys):
    with _verdict(capsys, 8, "css schedule equivalence"):
        rng = Random(13)
        for _ in range(40):
            spec = _random_css(rng)
            n = spec.n_wires
            assert n <= 10
            sc = css_schedule_lnn(spec)
            eye = np.eye(2**n, dtype=complex)
            u_sched = simulate(sc.circuit, eye)
            u_flat = simulate(css_flat(spec), eye.copy())
            assert matrices_equiv(u_sched, u_flat, out_perm=sc.final_map, tol=1e-10)


def test_acceptance_09_lower_bound_table(capsys):
    with _verdict(capsys, 9, "lower bound table"):
        assert lower_bound(BoundQuery(Model.A, BoundArch.LNN, 8)).coefficient == Fraction(10, 3)
        assert lower_bound(BoundQuery(Model.B, BoundArch.LNN, 8)).coefficient == Fraction(3, 2)
        assert lower_bound(BoundQuery(Model.A, BoundArch.GRID, 8)).coefficient == Fraction(3)
        assert lower_bound(BoundQuery(Model.B, BoundArch.GRID, 8)).coefficient == Fraction(5, 4)
        for k in range(2, 9):
            q = BoundQuery(Model.A, BoundArch.BOUNDED_DEGREE, 8, k)
            assert lower_bound(q).coefficient == 2 + Fraction(2, k)
            q = BoundQuery(Model.B, BoundArch.BOUNDED_DEGREE, 8, k)
            assert lower_bound(q).coefficient == 1 + Fraction(1, k)
        n = 60
        sc, q = schedule_lnn(SkeletonSpec(n)), BoundQuery(Model.A, BoundArch.LNN, n)
        ratio = Fraction(sc.circuit.depth()) / (lower_bound(q).coefficient * n)
        assert abs(ratio - Fraction(6, 5)) <= Fraction(6, 5) * Fraction(5, 100)


def _generated_schedules():
    rng = Random(17)
    for n in range(2, 17):
        yield schedule_lnn(SkeletonSpec(n))
        yield qft_lnn(QftSpec(n))
    for n in range(3, 11):
        yield qft_lnn(QftSpec(n, min(3, n)))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        absent = frozenset(pr for pr in pairs if rng.random() < 0.5)
        yield schedule_lnn(SkeletonSpec(n, absent=absent))
        yield schedule_lnn(SkeletonSpec(n), drop_last_swaps=True)
    for _ in range(60):
        n = rng.randint(2, 10)
        a = GF2Matrix.random_nonsingular(n, rng)
        yield synthesize_lnn(a)
        yield prune_trailing_swap_layers(synthesize_lnn(a))
    for _ in range(30):
        yield schedule_stabilizer(random_decomposition(rng.randint(2, 6), rng))
    yield css_schedule_lnn(steane_syndrome())
    for _ in range(30):
        yield css_schedule_lnn(_random_css(rng))
    for mode in (CssMode.ENCODE, CssMode.SYNDROME):
        yield css_schedule_lnn(_full_css(mode, 5, 4))


def test_acceptance_10_stage_audits(capsys):
    with _verdict(capsys, 10, "stage audits"):
        for sc in _generated_schedules():
            report = stage_audit(sc)
            assert report.ok, report
            assert report.violations_3l1s == () and report.violations_4l2s == ()
        full = schedule_lnn(SkeletonSpec(8))
        stripped = Circuit(
            8, tuple(g for g in full.circuit.gates if g.kind is not GateKind.SWAP)
        )
        corrupted = stage_audit(stripped)
        assert not corrupted.ok
        assert corrupted.violations_3l1s and corrupted.violations_4l2s


def _stage_blocks(circuit):
    blocks = []
    flavor = None
    for g in circuit.gates:
        if len(g.qubits) != 2:
            continue
        kind = "S" if g.kind is GateKind.SWAP else "L"
        if flavor != kind:
            blocks.append((kind, []))
            flavor = kind
        blocks[-1][1].append(g)
    return blocks


def _replay_fixed_order(sc, n):
    """Walk a schedule as alternating gate/swap layers under the fixed-order
    rules: a pair may fire only when adjacent and after every earlier pair it
    shares a wire with. Returns the layer count of the replayed schedule."""
    pairs = list(all_pairs(n))
    order = {pr: i for i, pr in enumerate(pairs)}
    done = set()
    pos = list(range(n))
    layer_count = 0
    for kind, gates in _stage_blocks(sc.circuit):
        used_sites = set()
        for g in gates:
            a, b = g.qubits
            assert b == a + 1, "schedule leaves the chain"
            assert not {a, b} & used_sites, "stage reuses a site"
            used_sites.update((a, b))
        layer_count += 1
        if kind == "L":
            for g in gates:
                a, b = g.qubits
                pair = tuple(sorted((pos[a], pos[b])))
                assert pair in order and pair not in done
                for other in pairs:
                    if order[other] < order[pair] and set(other) & set(pair):
                        assert other in done, (pair, other)
                done.add(pair)
        else:
            for g in gates:
                a, b = g.qubits
                pos[a], pos[b] = pos[b], pos[a]
    assert done == set(pairs)
    return layer_count


def test_acceptance_11_tiny_brute_force(capsys):
    with _verdict(capsys, 11, "tiny exhaustive scheduler"):
        start = time.monotonic()
        for n in (3, 4, 5):
            arch = Architecture.lnn(n)
            b = brute_force_min_depth(n, Model.B, arch)
            a = brute_force_min_depth(n, Model.A, arch)
            assert 2 * n - 3 <= b <= a <= 4 * n - 6, (n, b, a)
            layers = _replay_fixed_order(schedule_lnn(SkeletonSpec(n)), n)
            assert layers == 4 * n - 6
        assert time.monotonic() - start < 60.0


def _pauli_dense(n, x_bits, z_bits, sign):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    op = np.array([[1.0]], dtype=complex)
    for w in range(n - 1, -1, -1):
        if x_bits >> w & 1 and z_bits >> w & 1:
            m = 1j * (x @ z)
        elif x_bits >> w & 1:
            m = x
        elif z_bits >> w & 1:
            m = z
        else:
            m = eye
        op = np.kron(op, m)
    return op * (-1.0) ** sign


def _conjugation_matches(circuit):
    n = circuit.n_wires
    u = circuit_unitary(circuit)
    t = tableau_of(circuit)
    for row in range(2 * n):
        w = row % n
        p_in = _pauli_dense(n, (1 << w) if row < n else 0, 0 if row < n else (1 << w), 0)
        image = _pauli_dense(n, *t.row(row))
        if np.max(np.abs(u @ p_in @ u.conj().T - image)) > 1e-10:
            return False
    return True


def _single_gate_circuits(n):
    for w in range(n):
        yield Circuit(n, (h(w),))
        yield Circuit(n, (p(w),))
    for a in range(n):
        for b in range(n):
            if a != b:
                yield Circuit(n, (cnot(a, b),))
    for a in range(n):
        for b in range(a + 1, n):
            yield Circuit(n, (cz(a, b),))
            yield Circuit(n, (swap(a, b),))
            yield Circuit(n, (cphase(1, a, b),))


def test_acceptance_12_cross_oracle_consistency(capsys):
    with _verdict(capsys, 12, "cross-oracle consistency"):
        rng = Random(19)
        for _ in range(500):
            n = rng.randint(2, 10)
            gates = []
            for _ in range(rng.randint(0, 40)):
                a, b = rng.sample(range(n), 2)
                gates.append(cnot(a, b) if rng.random() < 0.5 else swap(a, b))
            circuit = Circuit(n, tuple(gates))
            action = gf2_action(circuit)
            samples = rng.sample(range(2**n), min(2**n, 16))
            batch = np.zeros((2**n, len(samples)), dtype=complex)
            for j, x in enumerate(samples):
                batch[x, j] = 1.0
            out = simulate(circuit, batch)
            for j, x in enumerate(samples):
                y = action.apply(x)
                assert abs(out[y, j] - 1.0) <= 1e-12
                assert abs(np.sum(np.abs(out[:, j])) - 1.0) <= 1e-12

        for n in (2, 3):
            for circuit in _single_gate_circuits(n):
                assert _conjugation_matches(circuit)
        clifford = [h, p]
        for _ in range(100):
            n = rng.randint(2, 3)
            gates = []
            for _ in range(rng.randint(1, 25)):
                roll = rng.random()
                if roll < 0.35:
                    gates.append(rng.choice(clifford)(rng.randrange(n)))
                else:
                    a, b = rng.sample(range(n), 2)
                    gates.append(rng.choice((cnot(a, b), cz(a, b), swap(a, b), cphase(1, a, b))))
            assert _conjugation_matches(Circuit(n, tuple(gates)))
