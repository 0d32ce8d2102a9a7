"""Depth-oriented synthesis of linear reversible functions on a line.

A nonsingular GF(2) matrix A is realized as a CNOT/SWAP circuit in three
chained skeleton schedules. Gauss-Jordan elimination of A's inverse runs
gates whose circuit action is A, and the same pass groups them into pivot
gates, a lower-triangular part and an upper-triangular part, each of which
fits the all-pairs skeleton (the upper part after reversing wire labels).
Chaining the three schedules costs no routing because each schedule flips
the wire placement end to end. Elimination marks each CNOT it runs in one
of three n x n grids at the code control * n + target; a pivot fix is moved
ahead of the lower gates as it is made, by XOR of strided grid slices, and
the parts are staged straight from the grids: no pair tuple, set or spec is
made per slot.

Matrix convention: rows are bit-packed integers, row i bit j is A[i][j],
and the matrix acts on column vectors of wire values, out_i = XOR of
A[i][j] * x_j. A CNOT with control c and target t is the elementary matrix
adding row c into row t; gate traces replayed as row operations therefore
compose exactly like the circuits they came from.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import BinaryIO, Iterable, NamedTuple, Sequence

from .core import (
    Architecture,
    Circuit,
    Gate,
    GateKind,
    ParseError,
    ScheduledCircuit,
    _bit_rows,
    _bit_string,
    _fold_walk,
    _headed_lines,
    _known_circuit,
    _unchecked_gate,
    is_permutation,
)
from .skeleton import Pair, Slot, _grid_stages, _site_row


class SingularMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class GF2Matrix:
    """Square matrix over GF(2) with bit-packed rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        mask = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r < 0 or r & ~mask:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")

    def to_strings(self) -> list[str]:
        return [_bit_string(r, self.n) for r in self.rows]

    @staticmethod
    def random_nonsingular(n: int, rng: Random) -> "GF2Matrix":
        bound = 1 << n
        while True:
            m = GF2Matrix(n, tuple(rng.randrange(bound) for _ in range(n)))
            try:
                m.inverse()
            except SingularMatrixError:
                continue
            return m

    def inverse(self) -> "GF2Matrix":
        n = self.n
        rows = [r | 1 << (n + i) for i, r in enumerate(self.rows)]  # [A | I], one int per row
        for j in range(n):
            bit = 1 << j
            pivot = next((i for i in range(j, n) if rows[i] & bit), None)
            if pivot is None:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {j})")
            rows[j], rows[pivot] = rows[pivot], rows[j]
            for i in range(n):
                if i != j and rows[i] & bit:
                    rows[i] ^= rows[j]
        return GF2Matrix(n, tuple(r >> n for r in rows))

    def apply(self, x: int) -> int:
        """Matrix-vector product on a bit-packed input vector."""
        y = 0
        for i, r in enumerate(self.rows):
            if (r & x).bit_count() & 1:
                y |= 1 << i
        return y

    def relabel(self, output_map: Sequence[int]) -> "GF2Matrix":
        """Read row output_map[l] as logical output l."""
        if not is_permutation(output_map, self.n):
            raise ValueError(f"{tuple(output_map)} is not a permutation")
        return GF2Matrix(self.n, tuple(self.rows[output_map[l]] for l in range(self.n)))


class _Parts(NamedTuple):
    """The elimination's gates regrouped as pivots, then lower gates, then upper gates.

    Each group is an n x n grid marking CNOT(control, target) at
    control * n + target. Replayed in that order (pivots by column, lower
    gates by control then target, upper gates by descending control then
    descending target) the gates compose to the same GF(2) map as the
    elimination did.
    """

    n: int
    pivots: bytes
    lower: bytes
    upper: bytes


def _replay(order: Iterable[int], n: int, table: dict[int, Gate]) -> list[Gate]:
    """The CNOT of each code control * n + target, read from `table` by code and made there once.
    Each code stands for an in-grid pair of two distinct wires, so no gate is checked."""
    return [table.get(k) or table.setdefault(k, _unchecked_gate(GateKind.CNOT, divmod(k, n))) for k in order]


def _eliminate(
    rows: list[int], n: int, order: array, pivots: bytearray, lower: bytearray, upper: bytearray
) -> None:
    """The one Gauss-Jordan loop: reduce the low n bits of `rows` to the identity, in place.

    Per column, left to right: fix a zero diagonal by adding the nearest
    lower row that has a one in the column, then clear the column below the
    diagonal. Afterwards clear above the diagonal, rightmost column first.
    Each CNOT's code control * n + target is appended to `order` as it runs,
    and marked at its code in an n x n grid: a pivot fix in `pivots`, a CNOT
    clearing below the diagonal in `lower`, one clearing above it in `upper`.
    The pivot fix is marked where the parts replay it, ahead of every lower
    gate (see `_Parts`). Bits above n ride along, so rows of [A | I] end as
    [I | A^-1]. Raises SingularMatrixError at a column with no pivot.
    """
    record = order.append
    for c in range(n):
        bit, row, base = 1 << c, rows[c], c * n
        if not row & bit:
            j = next((i for i in range(c + 1, n) if rows[i] & bit), None)
            if j is None:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {c})")
            row = rows[c] = row ^ rows[j]
            record(j * n + c)
            pivots[j * n + c] = 1
            # moved ahead of the lower gates, the fix CNOT(j, c) crosses each CNOT(c', j), c' < c, and
            # spawns a CNOT(c', c); the rest commute. Every lower mark with control c' < c is final
            # here, so the spawns XOR column j into column c, rows c' < c: one strided slice each
            col = slice(c, base + c, n)
            toggled = int.from_bytes(lower[col], "big") ^ int.from_bytes(lower[j : base + j : n], "big")
            lower[col] = toggled.to_bytes(c, "big")
        for s in range(c + 1, n):
            if rows[s] & bit:
                rows[s] ^= row
                record(base + s)
                lower[base + s] = 1
    for l in range(n - 1, 0, -1):
        bit, row, base = 1 << l, rows[l], l * n
        for k in range(l - 1, -1, -1):
            if rows[k] & bit:
                rows[k] ^= row
                record(base + k)
                upper[base + k] = 1


def gauss_jordan(a: GF2Matrix) -> _Parts:
    """Eliminate `a` to the identity in one pass, its gates marked as the three parts (see `_eliminate`).

    Replaying the parts' gates in order as row operations reduces `a` to I,
    so the same gates as a circuit compute the inverse of `a`.
    """
    n = a.n
    grids = bytearray(n * n), bytearray(n * n), bytearray(n * n)  # the parts keep the marks, not the order
    _eliminate(list(a.rows), n, array("i"), *grids)
    return _Parts(n, *map(bytes, grids))


def _inverse_and_order(a: GF2Matrix) -> tuple[GF2Matrix, array]:
    """`a`'s inverse and its elimination order from one pass over [a | I]: the row operations
    that take `a` to I take I to `a`'s inverse. Raises SingularMatrixError."""
    n, order, marks = a.n, array("i"), bytearray(a.n * a.n)
    rows = [r | 1 << (n + i) for i, r in enumerate(a.rows)]
    _eliminate(rows, n, order, marks, marks, marks)  # only the order is kept; the toggles read lower cells only
    return GF2Matrix(n, tuple(r >> n for r in rows)), order


def _part_pieces(parts: _Parts, flip: bool = False) -> tuple[list[tuple[list[Gate], list[Gate]]], bool]:
    """The nonempty parts chained as skeleton schedules, one (gates, distinct gates) piece per part,
    each stage's payload then SWAPs, entered from the identity placement (flip: the reversal); and
    whether they exit at the reversal. Every scheduled part flips the placement end to end, so
    consecutive parts need no routing between them; an empty part is skipped and leaves it alone."""
    n = parts.n
    pieces = []
    # a part is staged from the grid of its pairs (a, b) at a * n + b: a pivot CNOT is controlled by
    # its pair's larger wire, so that grid is the transpose; the upper part runs on reversed labels,
    # where CNOT(l, k) is on pair (n - 1 - l, n - 1 - k): code l * n + k becomes n * n - 1 - (l * n + k)
    pivots, lower, upper = b"".join(parts.pivots[a::n] for a in range(n)), parts.lower, parts.upper[::-1]
    for grid, from_larger, rev in ((pivots, True, False), (lower, False, False), (upper, False, True)):
        if 1 in grid:  # reversed labels see the identity as the reversal, and the reversal as the identity
            row = _site_row(n, flip != rev, [Slot(GateKind.CNOT, from_larger)] * n, grid)
            stages, table = _grid_stages(n, flip != rev, row, grid)  # each stage's payload, then its SWAPs
            gates = list(chain.from_iterable(chain.from_iterable(stages)))
            pieces.append((gates, [*table, *filter(None, row)]))
            flip = not flip
    return pieces, flip


def synthesize_lnn(a: GF2Matrix) -> ScheduledCircuit:
    """LNN CNOT/SWAP circuit computing x -> A x up to the final placement.

    The circuit's GF(2) action, with row final_map[l] read as logical
    output l, equals A exactly. Generic-gate depth (each payload counted
    together with its trailing SWAP) is at most 3(2n-3).
    """
    pieces, flip = _part_pieces(gauss_jordan(a.inverse()))
    final = tuple(range(a.n - 1, -1, -1) if flip else range(a.n))
    return ScheduledCircuit(_known_circuit(a.n, pieces), Architecture.lnn(a.n), final)


def expand_circuit_to_cnot(circuit: Circuit) -> Circuit:
    """Rewrite SWAPs into CNOTs, folding each payload's trailing SWAP.

    A CNOT immediately followed on both wires by a SWAP of the same pair
    becomes two CNOTs (the pair's action equals opposite-direction CNOT
    followed by same-direction); a bare SWAP becomes three. One-qubit gates
    pass through and block folding across them. The result arrives layered
    by `Circuit.cnot_depth`'s walk: with no SWAP left, its plain layering is
    the fold-aware one, so `depth()` is a read. It also arrives with its
    distinct gates, the input's plus the CNOTs the walk made, so building
    it costs no rescan of its positions.
    """
    out: list[Gate] = []
    three_on: dict[Pair, tuple[Gate, Gate, Gate]] = {}  # (a, b) -> SWAP as 3 CNOTs
    layers = _fold_walk(circuit.gates, circuit.n_wires, out, three_on)
    # the input's gates were checked on these wires and the walk made the rest
    kept = [g for g in circuit._distinct if g.kind is not GateKind.SWAP]
    made = [g for ab, ba, _ in three_on.values() for g in (ab, ba)]
    expanded = _known_circuit(circuit.n_wires, [(out, (*kept, *made))])
    expanded.__dict__.update(_plain_layers=layers, _cnot_depth=layers[0])
    return expanded


def expand_to_cnot(sc: ScheduledCircuit) -> ScheduledCircuit:
    """Schedule-level CNOT expansion; the gate-level action is unchanged,
    so final_map still locates each logical output."""
    return ScheduledCircuit(expand_circuit_to_cnot(sc.circuit), sc.arch, sc.final_map)


# --- text format -----------------------------------------------------------


def parse_gf2(text: str | BinaryIO) -> GF2Matrix:
    n, lines = _headed_lines(text, "gf2")
    if len(lines) - 1 != n:
        raise ParseError(lines[0][0], f"expected {n} rows, got {len(lines) - 1}")
    return GF2Matrix(n, _bit_rows(lines[1:], n))


def emit_gf2(m: GF2Matrix) -> str:
    return "\n".join([f"gf2 {m.n}", *m.to_strings()]) + "\n"


__all__ = [
    "GF2Matrix",
    "SingularMatrixError",
    "emit_gf2",
    "expand_circuit_to_cnot",
    "expand_to_cnot",
    "gauss_jordan",
    "parse_gf2",
    "synthesize_lnn",
]
