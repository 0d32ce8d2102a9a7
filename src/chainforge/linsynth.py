"""Depth-oriented synthesis of linear reversible functions on a line.

A nonsingular GF(2) matrix A is realized as a CNOT/SWAP circuit in two
chained skeleton schedules. Gauss-Jordan elimination of A's inverse runs
gates whose circuit action is A up to an output relabel, a lower-triangular
part then an upper-triangular part, each of which fits the all-pairs
skeleton (the upper part after reversing wire labels). Each row pivots on
a column with a one in it, so no pivot is fixed; the pivot columns name the
output each wire carries. Chaining the two schedules costs no routing
because each flips the wire placement end to end. Elimination records each
CNOT it runs by its code control * n + target, and the parts are staged
straight from two n x n grids of the codes, with no per-slot object.

Matrix convention: rows are bit-packed integers, row i bit j is A[i][j],
and the matrix acts on column vectors of wire values, out_i = XOR of
A[i][j] * x_j. A CNOT with control c and target t is the elementary matrix
adding row c into row t; gate traces replayed as row operations therefore
compose exactly like the circuits they came from.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
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
    _cnot_expansion,
    _headed_lines,
    _known_circuit,
    _unchecked_gate,
    invert_permutation,
    is_permutation,
)
from .skeleton import Slot, _grid_stages, _site_row


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
        return _inverse_and_order(self)[0]

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
    """The elimination's gates as a lower part, then an upper part, beside each row's pivot column.

    Each part is an n x n grid marking CNOT(control, target) at control *
    n + target, marked from `_eliminate`'s record. Replayed in that order
    (lower gates by control then target, upper gates by descending control
    then descending target) they are the elimination's gates as it ran
    them, taking the matrix to the permutation matrix P, one at (c, cols[c]).
    """

    n: int
    cols: tuple[int, ...]
    lower: bytes
    upper: bytes


def _replay(order: Iterable[int], n: int, table: dict[int, Gate]) -> list[Gate]:
    """The CNOT of each code control * n + target, read from `table` by code and made there once.
    Each code stands for an in-grid pair of two distinct wires, so no gate is checked."""
    return [table.get(k) or table.setdefault(k, _unchecked_gate(GateKind.CNOT, divmod(k, n))) for k in order]


def _eliminate(rows: list[int], n: int, order: array) -> tuple[tuple[int, ...], int]:
    """The one Gauss-Jordan loop: reduce the low n bits of `rows` to a permutation matrix, in place.

    Per row, top to bottom: pivot on the row's lowest column with a one
    (every earlier pivot column is clear in it), then clear that column
    below the row. Afterwards clear each pivot column above its row, bottom
    row first. Each CNOT's code control * n + target is appended to `order`
    as it runs, the clearings below the pivots first. Returns each row's
    pivot column and how many codes clear below a pivot: the rows end as the
    permutation matrix P with a one at (c, cols[c]). Bits above n ride
    along, so rows of [A | I] end as [P | E] with E A = P. Raises
    SingularMatrixError at a row with no pivot.
    """
    record, mask, cols = order.append, (1 << n) - 1, []
    for c in range(n):
        row, base = rows[c], c * n
        bit = row & -row
        if not bit & mask:
            raise SingularMatrixError(f"matrix is singular (no pivot in row {c})")
        cols.append(bit.bit_length() - 1)
        for s in range(c + 1, n):
            if rows[s] & bit:
                rows[s] ^= row
                record(base + s)
    below = len(order)
    for l in range(n - 1, 0, -1):
        row, base = rows[l], l * n
        bit = row & -row  # the row's pivot: the rows below cleared its other columns
        for k in range(l - 1, -1, -1):
            if rows[k] & bit:
                rows[k] ^= row
                record(base + k)
    return tuple(cols), below


def gauss_jordan(a: GF2Matrix) -> _Parts:
    """Eliminate `a` in one pass, pivoting by column, its gates marked as the two parts (see `_eliminate`).

    Replaying the parts' gates as row operations takes `a` to the matrix
    with row c one at cols[c], so the same gates as a circuit compute the
    inverse of `a` with its output cols[c] on wire c.
    """
    n, order = a.n, array("i")
    cols, below = _eliminate(list(a.rows), n, order)
    lower, upper = bytearray(n * n), bytearray(n * n)
    for code in order[:below]:
        lower[code] = 1
    for code in order[below:]:
        upper[code] = 1
    return _Parts(n, cols, bytes(lower), bytes(upper))


def _inverse_and_order(a: GF2Matrix) -> tuple[GF2Matrix, array, tuple[int, ...]]:
    """`a`'s inverse, elimination order and pivot columns from one pass over [a | I], which ends as
    [P | E] with E a = P: row cols[c] of the inverse is row c of E. Raises SingularMatrixError."""
    n, order = a.n, array("i")
    rows = [r | 1 << (n + i) for i, r in enumerate(a.rows)]
    cols = _eliminate(rows, n, order)[0]
    return GF2Matrix(n, tuple(rows[c] >> n for c in invert_permutation(cols))), order, cols


def _part_pieces(
    parts: _Parts, sublayers: list[tuple[int, str]]
) -> tuple[list[tuple[list[Gate], list[Gate]]], list[int]]:
    """The nonempty parts chained as skeleton schedules from the identity placement, one (gates,
    distinct gates) piece per part, each stage's payload then SWAPs, each sublayer's (size, class)
    appended to `sublayers`; and the site of each column's wire at the exit. Every scheduled
    part flips the placement end to end, so consecutive parts need no routing between them; an empty
    part is skipped and leaves it alone. Wire c ends on site c, or n - 1 - c after one part, and
    carries column cols[c]."""
    n, flip, pieces = parts.n, False, []
    # a part is staged from the grid of its pairs (a, b) at a * n + b; the upper part runs on reversed
    # labels, where CNOT(l, k) is on pair (n - 1 - l, n - 1 - k): code l * n + k becomes n * n - 1 - (l * n + k)
    for grid, rev in ((parts.lower, False), (parts.upper[::-1], True)):
        if 1 in grid:  # reversed labels see the identity as the reversal, and the reversal as the identity
            row = _site_row(n, flip != rev, [Slot(GateKind.CNOT)] * n, grid)
            gates, table = _grid_stages(n, flip != rev, row, sublayers, grid)
            pieces.append((gates, [*table, *filter(None, row)]))
            flip = not flip
    sites = [0] * n
    for c, col in enumerate(parts.cols):
        sites[col] = n - 1 - c if flip else c
    return pieces, sites


def synthesize_lnn(a: GF2Matrix) -> ScheduledCircuit:
    """LNN CNOT/SWAP circuit computing x -> A x up to the final placement.

    The pivot columns name the row of A each wire carries, and the parts'
    flip where it sits: the circuit's GF(2) action, with row final_map[l]
    read as logical output l, equals A exactly. Generic-gate depth (each
    payload counted together with its trailing SWAP) is at most 2(2n-3).
    """
    sublayers: list[tuple[int, str]] = []
    pieces, sites = _part_pieces(gauss_jordan(a.inverse()), sublayers)
    return ScheduledCircuit(_known_circuit(a.n, pieces, sublayers), Architecture.lnn(a.n), tuple(sites))


def expand_circuit_to_cnot(circuit: Circuit) -> Circuit:
    """Rewrite SWAPs into CNOTs, folding each payload's trailing SWAP.

    A CNOT immediately followed on both wires by a SWAP of the same pair
    becomes two CNOTs (the pair's action equals opposite-direction CNOT
    followed by same-direction); a bare SWAP becomes three. One-qubit gates
    pass through and block folding across them. The result arrives with its
    depth, from `Circuit.cnot_depth`'s walk or the record that a generated
    schedule is assembled from slot by slot; with no SWAP left, that is its
    CNOT depth too, and one holding only CNOTs arrives with every metric.
    It also arrives with its distinct gates, the input's plus each SWAP
    pair's CNOTs, so building it costs no rescan of its positions.
    """
    return _cnot_expansion(circuit)


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
