"""Depth-oriented synthesis of linear reversible functions on a line.

A nonsingular GF(2) matrix A is realized as a CNOT/SWAP circuit in three
chained skeleton schedules. Gauss-Jordan elimination of A's inverse yields
a gate trace whose circuit action is A; the trace is rearranged into pivot
gates, a lower-triangular part and an upper-triangular part, each of which
fits the all-pairs skeleton (the upper part after reversing wire labels).
Chaining the three schedules costs no routing because each schedule flips
the wire placement end to end. Elimination marks each CNOT it runs in an
n x n grid at the code control * n + target, the trace's pair sets are views
of those grids, the pivot moves XOR strided grid slices, and the parts are
staged straight from the grids: no pair tuple, set or spec is made per slot.

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
from typing import AbstractSet, BinaryIO, Iterable, Sequence

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
    cnot,
    is_permutation,
)
from .skeleton import Slot, _check_pair, _check_placement, _grid_stages, _GridPairs, _site_row

Pair = tuple[int, int]


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


def _marks(pairs: Iterable[Pair], n: int, transposed: bool = False) -> bytearray:
    """The n x n grid under a pair field: a grid view's own (it marks only pairs), else one marked
    from the pairs, each checked; a transposed field's pair (a, b) is marked at b * n + a."""
    if type(pairs) is _GridPairs and (pairs.n, pairs.transposed) == (n, transposed):
        return pairs.grid
    grid = bytearray(n * n)
    for a, b in pairs:
        if not 0 <= a < b < n:
            _check_pair(a, b, n)  # raises
        grid[b * n + a if transposed else a * n + b] = 1
    return grid


@dataclass(frozen=True)
class GaussJordanTrace:
    """Elimination trace: pivot donors plus lower/upper gate flags.

    pivot_donor[c] is the row j > c whose row was added into row c to fix a
    zero diagonal at column c (None when no fix was needed); there is no
    entry for the last column, where a zero diagonal means singularity.
    lower holds pairs (c, s) meaning CNOT(c, s) ran while clearing column c
    below the diagonal; upper holds pairs (k, l) meaning CNOT(l, k) ran
    while clearing column l above it. From `gauss_jordan` both are set views of
    the grids elimination marked at each CNOT's code control * n + target. Pairs
    given by hand are checked where they are used (lower by `rearrange`, upper
    when the parts are scheduled); `gates_in_order` replays only in-grid pairs.
    """

    n: int
    pivot_donor: tuple[int | None, ...]
    lower: AbstractSet[Pair]
    upper: AbstractSet[Pair]

    def __post_init__(self) -> None:
        if len(self.pivot_donor) != max(self.n - 1, 0):
            raise ValueError(f"expected {self.n - 1} pivot slots, got {len(self.pivot_donor)}")
        for c, j in enumerate(self.pivot_donor):
            if j is not None and not c < j < self.n:
                raise ValueError(f"pivot donor {j} for column {c} must satisfy c < j < n")

    def gates_in_order(self) -> list[Gate]:
        """The trace's gates in elimination time order, as `_eliminate` makes them: per column
        its pivot fix, then its lower pairs; then the upper pairs, rightmost column first."""
        n = self.n
        forward = [(c, -1, j * n + c) for c, j in enumerate(self.pivot_donor) if j is not None]
        forward += [(c, s, c * n + s) for c, s in self.lower if 0 <= c < s < n]
        backward = sorted((l * n + k for k, l in self.upper if 0 <= k < l < n), reverse=True)
        return _replay([code for *_, code in sorted(forward)] + backward, n, {})


def _replay(order: Iterable[int], n: int, table: dict[int, Gate]) -> list[Gate]:
    """The CNOT of each code control * n + target, read from `table` by code and made there once.
    Each code stands for an in-grid pair of two distinct wires, so no gate is checked."""
    return [table.get(k) or table.setdefault(k, _unchecked_gate(GateKind.CNOT, divmod(k, n))) for k in order]


def _eliminate(
    rows: list[int], n: int, order: array, lower: bytearray, upper: bytearray
) -> list[int | None]:
    """The one Gauss-Jordan loop: reduce the low n bits of `rows` to the identity, in place.

    Per column, left to right: fix a zero diagonal by adding the nearest
    lower row that has a one in the column, then clear the column below the
    diagonal. Afterwards clear above the diagonal, rightmost column first.
    Each CNOT's code control * n + target is appended to `order` as it runs; a
    CNOT clearing below the diagonal is also marked at its code in the n x n grid
    `lower`, one clearing above it in `upper`. Bits above n ride along, so rows
    of [A | I] end as [I | A^-1].
    Returns the pivot donors; raises SingularMatrixError at a column with no pivot.
    """
    pivot_donor: list[int | None] = []
    record = order.append
    for c in range(n):
        bit, row, base = 1 << c, rows[c], c * n
        if not row & bit:
            j = next((i for i in range(c + 1, n) if rows[i] & bit), None)
            if j is None:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {c})")
            row = rows[c] = row ^ rows[j]
            record(j * n + c)
            pivot_donor.append(j)
        elif c < n - 1:
            pivot_donor.append(None)
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
    return pivot_donor


def gauss_jordan(a: GF2Matrix) -> GaussJordanTrace:
    """Eliminate `a` to the identity, recording the gates applied (see `_eliminate`).

    Replaying gates_in_order() as row operations reduces `a` to I, so the
    same gates as a circuit compute the inverse of `a`.
    """
    n = a.n
    lower, upper = bytearray(n * n), bytearray(n * n)  # the trace keeps the marks, not the recorded order
    pivot_donor = _eliminate(list(a.rows), n, array("i"), lower, upper)
    return GaussJordanTrace(n, tuple(pivot_donor), _GridPairs(n, lower), _GridPairs(n, upper, True))


def _inverse_and_order(a: GF2Matrix) -> tuple[GF2Matrix, array]:
    """`a`'s inverse and its elimination order from one pass over [a | I]: the row operations
    that take `a` to I take I to `a`'s inverse. Raises SingularMatrixError."""
    n, order, marks = a.n, array("i"), bytearray(a.n * a.n)  # the two passes mark disjoint cells
    rows = [r | 1 << (n + i) for i, r in enumerate(a.rows)]
    _eliminate(rows, n, order, marks, marks)
    return GF2Matrix(n, tuple(r >> n for r in rows)), order


@dataclass(frozen=True)
class RearrangedParts:
    """Trace gates regrouped as pivots, then lower pairs, then upper pairs.

    Replayed in that order (pivots by column, lower pairs in lexicographic
    order, upper pairs by descending column then descending row) the gates
    compose to the same GF(2) map as the original trace.
    """

    n: int
    pivots: tuple[tuple[int, int], ...]  # (column, donor), column ascending
    lower: AbstractSet[Pair]
    upper: AbstractSet[Pair]

    def gates_in_order(self) -> list[Gate]:
        out = [cnot(j, c) for c, j in self.pivots]
        for c, s in sorted(self.lower):
            out.append(cnot(c, s))
        for k, l in sorted(self.upper, key=lambda pr: (-pr[1], -pr[0])):
            out.append(cnot(l, k))
        return out


def rearrange(trace: GaussJordanTrace) -> RearrangedParts:
    """Move pivot gates to the front, updating the lower flags they cross.

    Moving the pivot CNOT(j, c) left past a lower gate CNOT(c', j) spawns a
    compensating CNOT(c', c) (conjugation by the pivot); all other crossings
    commute cleanly. Spawned gates toggle the lower flag of pair (c', c).
    Pivots are moved in ascending column order against the flags as updated
    so far. Upper gates sit after every pivot and are never crossed.
    """
    n = trace.n
    lower = bytearray(_marks(trace.lower, n))  # a copy: the trace keeps its own
    for c, j in enumerate(trace.pivot_donor):
        if j is not None:  # column c, rows c' < c, XOR column j: one strided slice each
            col = slice(c, c * n + c, n)
            toggled = int.from_bytes(lower[col], "big") ^ int.from_bytes(lower[j : c * n + j : n], "big")
            lower[col] = toggled.to_bytes(c, "big")
    pivots = tuple((c, j) for c, j in enumerate(trace.pivot_donor) if j is not None)
    return RearrangedParts(n, pivots, _GridPairs(n, lower), trace.upper)


def schedule_parts(
    parts: RearrangedParts, initial_placement: Sequence[int] | None = None
) -> tuple[list[Gate], tuple[int, ...]]:
    """Chain the nonempty parts as skeleton schedules from a placement.

    Every scheduled part flips the placement end to end, so consecutive
    parts need no routing between them; empty parts are skipped and leave
    the placement alone. The placement is checked once, before the parts,
    even when every part is empty. Returns site-level gates and the exit
    placement.
    """
    pieces, placement = _part_pieces(parts, initial_placement)
    return [g for gates, _ in pieces for g in gates], placement


def _part_pieces(
    parts: RearrangedParts, placement: Sequence[int] | None = None
) -> tuple[list[tuple[list[Gate], list[Gate]]], tuple[int, ...]]:
    """`schedule_parts` as one (gates, distinct gates) piece per part, each stage's payload then SWAPs."""
    n = parts.n
    placement = _check_placement(range(n) if placement is None else placement, n)
    pivots, lower, upper = _marks(parts.pivots, n), _marks(parts.lower, n), _marks(parts.upper, n, True)
    pieces = []
    # a pivot CNOT is controlled by its pair's larger wire; the upper part runs on reversed labels,
    # where pair (k, l) is (n - 1 - l, n - 1 - k): code l * n + k becomes n * n - 1 - (l * n + k)
    for grid, from_larger, rev in ((pivots, True, False), (lower, False, False), (upper[::-1], False, True)):
        if 1 in grid:  # an empty part is skipped and leaves the placement alone
            row = _site_row(n, flip := (placement[::-1] if rev else placement)[0] != 0,
                            [Slot(GateKind.CNOT, from_larger)] * n, grid)
            stages, table = _grid_stages(n, flip, row, grid)  # each stage's payload, then its SWAPs
            gates = list(chain.from_iterable(chain.from_iterable(stages)))
            pieces.append((gates, [*table, *filter(None, row)]))
            placement = placement[::-1]  # every part flips it end to end
    return pieces, placement


def synthesize_lnn(a: GF2Matrix) -> ScheduledCircuit:
    """LNN CNOT/SWAP circuit computing x -> A x up to the final placement.

    The circuit's GF(2) action, with row final_map[l] read as logical
    output l, equals A exactly. Generic-gate depth (each payload counted
    together with its trailing SWAP) is at most 3(2n-3).
    """
    pieces, placement = _part_pieces(rearrange(gauss_jordan(a.inverse())))
    return ScheduledCircuit(_known_circuit(a.n, pieces), Architecture.lnn(a.n), placement)


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
    "GaussJordanTrace",
    "RearrangedParts",
    "SingularMatrixError",
    "emit_gf2",
    "expand_circuit_to_cnot",
    "expand_to_cnot",
    "gauss_jordan",
    "parse_gf2",
    "rearrange",
    "schedule_parts",
    "synthesize_lnn",
]
