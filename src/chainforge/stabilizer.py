"""Stabilizer circuits from their 11-stage form, scheduled on a line.

Input is the fixed stage sequence H-C-P-C-P-C-H-P-C-P-C: two Hadamard
layers, four phase layers (each a wire bitmask) and five linear reversible
stages (each a nonsingular GF(2) matrix). Scheduling threads a placement,
the site of each logical wire, through all 11 stages: single-qubit masks
apply at the sites where their wires currently live, and each C stage
eliminates C^-1 with its rows moved to their wires' sites. Its column
pivots absorb the column relabel and name each wire's next site.

Each C stage is eliminated once, when the decomposition is built: one pass
over [C | I], pivoting by column, is the nonsingularity check, yields C^-1
and records C's elimination CNOTs and pivot columns. `schedule_stabilizer`
eliminates each C^-1 once, rows moved, for its two-part synthesis;
`stabilizer_flat` builds each stage from the record and eliminates nothing.

The tableau here is the usual conjugation table: row g holds the image of
input Pauli X_g (rows 0..n-1) or Z_{g-n} (rows n..2n-1) as x/z bit vectors
plus a sign bit, with the row decoding to (-1)^r * prod_w i^{x_w z_w}
X^{x_w} Z^{z_w}. One loop (`_apply_gates`) holds every gate's update rule,
and `tableau_of` makes one pass of it over a circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import BinaryIO, Iterable, Iterator, Sequence

from .core import (
    Architecture,
    Circuit,
    Gate,
    GateKind,
    ParseError,
    ScheduledCircuit,
    _bit_rows,
    _bit_string,
    _headed_lines,
    _known_circuit,
    _mask_wires,
    h,
    invert_permutation,
    is_permutation,
    p,
    swap,
)
from .linsynth import (
    GF2Matrix,
    SingularMatrixError,
    _inverse_and_order,
    _part_pieces,
    _replay,
    gauss_jordan,
)

STAGE_ORDER = ("h", "c", "p", "c", "p", "c", "h", "p", "c", "p", "c")


class _SingularStage(ValueError):
    """A singular C stage, with its index among the five, so a parser can name its block."""

    def __init__(self, stage: int) -> None:
        super().__init__(f"C stage {stage} is singular")
        self.stage = stage


@dataclass(frozen=True)
class StageDecomposition:
    """Masks and matrices for the fixed 11-stage sequence."""

    n: int
    h_masks: tuple[int, int]
    p_masks: tuple[int, int, int, int]
    c_stages: tuple[GF2Matrix, GF2Matrix, GF2Matrix, GF2Matrix, GF2Matrix]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.h_masks) != 2 or len(self.p_masks) != 4 or len(self.c_stages) != 5:
            raise ValueError("expected 2 H masks, 4 P masks and 5 C stages")
        for mask in (*self.h_masks, *self.p_masks):
            if not 0 <= mask < (1 << self.n):
                raise ValueError(f"mask {mask:#x} has bits outside 0..{self.n - 1}")
        eliminated = []
        for i, c in enumerate(self.c_stages):
            if c.n != self.n:
                raise ValueError(f"C stage {i} has dimension {c.n}, expected {self.n}")
            try:
                eliminated.append(_inverse_and_order(c))
            except SingularMatrixError:
                raise _SingularStage(i) from None
        # not fields: C^-1 for schedule_stabilizer, CNOT codes and pivots for stabilizer_flat
        for name, kept in zip(("_c_inverses", "_c_orders", "_c_cols"), zip(*eliminated)):
            object.__setattr__(self, name, kept)

    def stages(self) -> Iterator[tuple[str, int | GF2Matrix]]:
        """The 11 (kind, content) pairs in execution order."""
        its = {"h": iter(self.h_masks), "p": iter(self.p_masks), "c": iter(self.c_stages)}
        for kind in STAGE_ORDER:
            yield kind, next(its[kind])


def random_decomposition(n: int, rng: Random) -> StageDecomposition:
    bound = 1 << n
    return StageDecomposition(
        n,
        (rng.randrange(bound), rng.randrange(bound)),
        tuple(rng.randrange(bound) for _ in range(4)),
        tuple(GF2Matrix.random_nonsingular(n, rng) for _ in range(5)),
    )


def stabilizer_flat(d: StageDecomposition) -> Circuit:
    """Stage-by-stage reference circuit on unrestricted connectivity.

    The CNOTs each C stage's elimination recorded in the decomposition, as
    the matrix E, take C to the permutation matrix P with a one at
    (c, cols[c]) in each row c: E C = P. CNOTs are involutions, so the
    recorded gates replayed backwards compute E^-1 = C P^-1, and C = E^-1 P:
    the SWAPs that realize P, then that replay. No stage is eliminated here.
    The five replays share one CNOT per ordered pair.
    """
    pieces: list[tuple[Iterable[Gate], Iterable[Gate]]] = []
    cnots: dict[int, Gate] = {}
    records = zip(d._c_orders, d._c_cols)
    for kind, content in d.stages():
        if kind == "c":
            order, cols = next(records)
            swaps, dest = [], list(invert_permutation(cols))  # SWAPs realizing P: j's value goes to dest[j]
            for j in range(d.n):  # on each cycle of dest, its first wire trades with each later wire in turn
                while (k := dest[j]) != j:
                    swaps.append(swap(j, k))
                    dest[j], dest[k] = dest[k], k
            pieces += [(swaps, swaps), (reversed(_replay(order, d.n, cnots)), [])]
        else:
            made = [(h if kind == "h" else p)(w) for w in _mask_wires(content, d.n)]
            pieces.append((made, made))
    return _known_circuit(d.n, [*pieces, ([], cnots.values())])  # the replays' CNOTs, made once each


def schedule_stabilizer(d: StageDecomposition) -> ScheduledCircuit:
    """LNN schedule of all 11 stages, each logical wire's site threaded through them."""
    n, sites = d.n, list(range(d.n))  # sites[w]: the site of logical wire w
    pieces: list[tuple[list[Gate], list[Gate]]] = []
    sublayers: list[tuple[int, str]] = []  # each sublayer's (size, class), for the circuit's record
    inverses = iter(d._c_inverses)
    for kind, content in d.stages():
        if kind == "c":
            rows = next(inverses).rows  # row w of C^-1 moves to wire w's site
            moved = GF2Matrix(n, tuple(rows[w] for w in invert_permutation(sites)))
            stage_pieces, sites = _part_pieces(gauss_jordan(moved), sublayers)
            pieces += stage_pieces
        else:
            made = [(h if kind == "h" else p)(sites[w]) for w in _mask_wires(content, n)]
            pieces.append((made, made))
            sublayers.append((len(made), "1"))
    return ScheduledCircuit(_known_circuit(n, pieces, sublayers), Architecture.lnn(n), tuple(sites))


@dataclass
class PauliTableau:
    """Conjugation images of the 2n Pauli generators, packed by column.

    Bit g of xs[w] / zs[w] is row g's X / Z bit on wire w and bit g of signs
    is row g's sign, so a gate is a few int ops on its wires' columns. row(g)
    reads one row back as packed (x_bits, z_bits, sign), bit w being wire w.
    """

    xs: list[int]
    zs: list[int]
    signs: int

    @staticmethod
    def identity(n: int) -> "PauliTableau":
        return PauliTableau([1 << w for w in range(n)], [1 << (n + w) for w in range(n)], 0)

    @property
    def n(self) -> int:
        return len(self.xs)

    def row(self, g: int) -> tuple[int, int, int]:
        """Row g as (x_bits, z_bits, sign), bit w of x_bits / z_bits being wire w."""
        x = sum((xc >> g & 1) << w for w, xc in enumerate(self.xs))
        z = sum((zc >> g & 1) << w for w, zc in enumerate(self.zs))
        return x, z, self.signs >> g & 1

    def permute_wires(self, perm: Sequence[int]) -> "PauliTableau":
        """Relabel the image strings' wires: column w moves to perm[w]."""
        if not is_permutation(perm, self.n):
            raise ValueError(f"{tuple(perm)} is not a permutation")
        xs, zs = [0] * self.n, [0] * self.n
        for w, dest in enumerate(perm):
            xs[dest], zs[dest] = self.xs[w], self.zs[w]
        return PauliTableau(xs, zs, self.signs)


_CNOT, _SWAP, _CZ, _CPHASE = GateKind.CNOT, GateKind.SWAP, GateKind.CZ, GateKind.CPHASE
_H, _P = GateKind.H, GateKind.P  # bound once: a read through the Enum class costs far more


def _apply_gates(t: PauliTableau, gates: Iterable[Gate]) -> None:
    """The one gate loop: update the tableau by each Clifford gate in turn, in place.

    SWAP and CNOT, nearly every position of a schedule, are tested first, and a
    gate's fields are read by index (a `Gate` is a tuple subclass, which
    unpacking handles slower). A non-Clifford gate raises.
    """
    xs, zs, signs = t.xs, t.zs, t.signs
    for g in gates:
        kind = g[0]
        if kind is _SWAP:
            a, b = g[1]
            xs[a], xs[b] = xs[b], xs[a]
            zs[a], zs[b] = zs[b], zs[a]
        elif kind is _CNOT:
            c, tq = g[1]
            signs ^= xs[c] & zs[tq] & ~(xs[tq] ^ zs[c])
            xs[tq] ^= xs[c]
            zs[c] ^= zs[tq]
        elif kind is _H:
            q = g[1][0]
            signs ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif kind is _P:
            q = g[1][0]
            signs ^= xs[q] & zs[q]
            zs[q] ^= xs[q]
        elif kind is _CZ or (kind is _CPHASE and g[2] == 1):
            a, b = g[1]
            signs ^= xs[a] & xs[b] & (zs[a] ^ zs[b])
            zs[a] ^= xs[b]
            zs[b] ^= xs[a]
        else:
            raise ValueError(f"{kind.value} (param={g[2]}) is not a Clifford gate")
    t.signs = signs


def tableau_of(circuit: Circuit) -> PauliTableau:
    t = PauliTableau.identity(circuit.n_wires)
    _apply_gates(t, circuit.gates)
    return t


def tableau_equiv(c1: Circuit, c2: Circuit, relabel: Sequence[int] | None = None) -> bool:
    """True when c1 acts like c2 followed by the wire relabeling."""
    if c1.n_wires != c2.n_wires:
        return False
    t2 = tableau_of(c2)
    if relabel is not None:
        t2 = t2.permute_wires(relabel)
    return tableau_of(c1) == t2


# --- text format -----------------------------------------------------------


def parse_stab(text: str | BinaryIO) -> StageDecomposition:
    n, lines = _headed_lines(text, "stab")
    pos = 1
    h_masks: list[int] = []
    p_masks: list[int] = []
    c_stages: list[GF2Matrix] = []
    c_lines: list[int] = []  # the line of each 'stage c'
    for want in STAGE_ORDER:
        if pos >= len(lines):
            raise ParseError(lines[-1][0], f"missing 'stage {want}' block")
        lineno, line = lines[pos]
        if line.split() != ["stage", want]:
            raise ParseError(lineno, f"expected 'stage {want}', got {line!r}")
        pos += 1
        count = n if want == "c" else 1  # a c stage is a matrix, h and p one mask row
        if pos + count > len(lines):
            raise ParseError(lineno, f"stage {want} needs {count} row(s) of 0/1")
        rows = _bit_rows(lines[pos : pos + count], n)
        pos += count
        if want == "c":
            c_stages.append(GF2Matrix(n, rows))
            c_lines.append(lineno)
        else:
            (h_masks if want == "h" else p_masks).append(rows[0])
    if pos != len(lines):
        raise ParseError(lines[pos][0], "unexpected content after the 11 stages")
    try:
        return StageDecomposition(n, tuple(h_masks), tuple(p_masks), tuple(c_stages))
    except _SingularStage as exc:  # the only check parsing leaves to the decomposition
        raise ParseError(c_lines[exc.stage], str(exc)) from None


def emit_stab(d: StageDecomposition) -> str:
    out = [f"stab {d.n}"]
    for kind, content in d.stages():
        out.append(f"stage {kind}")
        if kind == "c":
            out.extend(content.to_strings())
        else:
            out.append(_bit_string(content, d.n))
    return "\n".join(out) + "\n"


__all__ = [
    "PauliTableau",
    "STAGE_ORDER",
    "StageDecomposition",
    "emit_stab",
    "parse_stab",
    "random_decomposition",
    "schedule_stabilizer",
    "stabilizer_flat",
    "tableau_equiv",
    "tableau_of",
]
