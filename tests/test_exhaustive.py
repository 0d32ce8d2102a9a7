"""Every input at small n, not a seeded sample: each nonsingular GF(2) matrix through `inverse()`,
`gauss_jordan`, `synthesize_lnn` and the flat stabilizer reference, each square GF(2) matrix through
the three elimination entry points' singularity checks, each skeleton presence pattern through
`SkeletonSpec(n, absent)` and `schedule_lnn`, and each mask choice of the 11-stage form through
`schedule_stabilizer`.

The largest depth, `generic_depth`, `cnot_depth` and two-qubit layer count seen are pinned per n, so
the tests also show how tight each bound is at small n. The GL(4, 2) sweep (20,160 matrices) runs
outside the test suite: `PYTHONPATH=src python tests/test_exhaustive.py 4`.
"""

import sys
from contextlib import nullcontext
from itertools import combinations, product
from random import Random

import pytest

from chainforge.core import Architecture, generic_depth, two_qubit_layer_count, validate_on
from chainforge.linsynth import GF2Matrix, SingularMatrixError, gauss_jordan, synthesize_lnn
from chainforge.oracle import gf2_action
from chainforge.skeleton import SkeletonSpec, all_pairs, schedule_lnn
from chainforge.stabilizer import StageDecomposition, schedule_stabilizer, stabilizer_flat, tableau_equiv
from test_linsynth import column_grids
from test_spec_paths import ref_gates

# per n: the largest (depth, generic_depth, cnot_depth) over GL(n, 2)
GL_MAXIMA = {1: (0, 0, 0), 2: (4, 2, 4), 3: (12, 6, 16)}
# per n: the largest two-qubit layer count over every presence pattern; 4n - 6 is reached
SKELETON_MAXIMA = {2: 2, 3: 6, 4: 10, 5: 14}


def general_linear(n: int):
    """Every nonsingular n x n GF(2) matrix: (2^n - 1)(2^n - 2)...(2^n - 2^(n-1)) of them."""
    for rows in product(range(1, 1 << n), repeat=n):
        m = GF2Matrix(n, rows)
        try:
            m.inverse()
        except SingularMatrixError:
            continue
        yield m


def sweep_gl(n: int) -> tuple[int, tuple[int, int, int]]:
    """Invert, eliminate and synthesize every matrix of GL(n, 2). `inverse()` undoes it on both
    sides, on all 2^n inputs. The flat stabilizer reference of a decomposition whose first C stage
    is the matrix, the other C stages the identity and every mask 0, has the matrix as its GF(2)
    action. The pivot columns and two grids one `gauss_jordan` pass marks equal the column-pivoting
    reference's. Each schedule's GF(2) action through the final map is the matrix, it sits on the
    chain, and for n >= 2 generic_depth <= 2(2n - 3) and cnot_depth <= 18n - 27. Returns the count
    and the largest (depth, generic_depth, cnot_depth)."""
    count, most, chain = 0, (0, 0, 0), Architecture.lnn(n)
    identity = GF2Matrix(n, tuple(1 << w for w in range(n)))
    for a in general_linear(n):
        inverse = a.inverse()
        assert all(a.apply(inverse.apply(x)) == x == inverse.apply(a.apply(x)) for x in range(1 << n)), a
        d = StageDecomposition(n, (0, 0), (0,) * 4, (a, *[identity] * 4))
        assert gf2_action(stabilizer_flat(d)) == a, a
        assert tuple(gauss_jordan(a))[1:] == column_grids(a), a
        sc = synthesize_lnn(a)
        assert gf2_action(sc.circuit).relabel(sc.final_map) == a, a
        assert validate_on(sc.circuit, chain).ok, a
        depths = (sc.circuit.depth(), generic_depth(sc.circuit), sc.circuit.cnot_depth())
        if n >= 2:
            assert depths[1] <= 2 * (2 * n - 3) and depths[2] <= 18 * n - 27, (a, depths)
        count, most = count + 1, tuple(map(max, most, depths))
    return count, most


@pytest.mark.parametrize("n, order", [(1, 1), (2, 6), (3, 168)])
def test_every_nonsingular_matrix_synthesizes(n, order):
    assert sweep_gl(n) == (order, GL_MAXIMA[n])


def rank(rows) -> int:
    """The rank over GF(2) by basis insertion: each row is reduced by the basis vector of its leading
    bit until it is zero or leads with a new bit, which it then keys."""
    basis: dict[int, int] = {}
    for r in rows:
        while r and r.bit_length() in basis:
            r ^= basis[r.bit_length()]
        if r:
            basis[r.bit_length()] = r
    return len(basis)


@pytest.mark.parametrize("n, order", [(1, 1), (2, 6), (3, 168)])
def test_every_square_matrix_is_rejected_exactly_when_singular(n, order):
    """Every n x n matrix, 2^(n^2) of them: `inverse()`, `gauss_jordan` and a decomposition holding
    it as a C stage each reject it exactly when its rank, found without elimination, is below n."""
    identity, accepted = GF2Matrix(n, tuple(1 << w for w in range(n))), 0
    for rows in product(range(1 << n), repeat=n):
        a = GF2Matrix(n, rows)
        singular = rank(rows) < n
        stages = (identity, identity, a, identity, identity)
        checks = (
            (a.inverse, SingularMatrixError, r"^matrix is singular \(no pivot in row \d\)$"),
            (lambda: gauss_jordan(a), SingularMatrixError, r"^matrix is singular \(no pivot in row \d\)$"),
            (lambda: StageDecomposition(n, (0, 0), (0,) * 4, stages), ValueError, r"^C stage 2 is singular$"),
        )
        for check, error, message in checks:
            with pytest.raises(error, match=message) if singular else nullcontext():
                check()
        accepted += not singular
    assert accepted == order


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_skeleton_presence_pattern_schedules(n):
    """Each of the 2^(n(n-1)/2) absent sets: the staged schedule equals the slot-by-slot reference,
    the circuit sits on the chain and ends reversed, and it has at most 4n - 6 two-qubit layers."""
    pairs, chain, most, count = list(all_pairs(n)), Architecture.lnn(n), 0, 0
    for k in range(len(pairs) + 1):
        for absent in map(frozenset, combinations(pairs, k)):
            spec = SkeletonSpec(n, absent)
            sc = schedule_lnn(spec)
            assert (list(sc.circuit.gates), sc.final_map) == ref_gates(spec), absent
            assert validate_on(sc.circuit, chain).ok and sc.final_map == tuple(range(n - 1, -1, -1))
            layers = two_qubit_layer_count(sc.circuit)
            assert layers <= 4 * n - 6, (absent, layers)
            count, most = count + 1, max(most, layers)
    assert (count, most) == (2 ** len(pairs), SKELETON_MAXIMA[n])


@pytest.mark.parametrize("n, inputs", [(1, 64), (2, 4096)])
def test_every_stabilizer_mask_choice_schedules(n, inputs):
    """Each choice of the two H and four P masks, with the five C stages drawn by a seed from
    GL(n, 2): the schedule acts like the flat reference through its final map."""
    group, rng, count = list(general_linear(n)), Random(20261019 + n), 0
    for masks in product(range(1 << n), repeat=6):
        d = StageDecomposition(n, masks[:2], masks[2:], tuple(rng.choice(group) for _ in range(5)))
        sc = schedule_stabilizer(d)
        assert tableau_equiv(sc.circuit, stabilizer_flat(d), sc.final_map), d
        count += 1
    assert count == inputs


if __name__ == "__main__":
    for n in map(int, sys.argv[1:]):
        order, (depth, generic, cnot) = sweep_gl(n)
        print(f"GL({n}, 2): {order} matrices, all pass, their inverses undo them on every input, their flat "
              f"stabilizer references act as them, their elimination grids equal the column reference's; "
              f"largest depth {depth}, generic_depth {generic}, cnot_depth {cnot}")
