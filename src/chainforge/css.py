"""Two-block controlled-gate circuits (CSS encode/syndrome style) on a line.

The wire chain is a_1 .. a_s [b] c_t .. c_1: control wires in index order,
then (encode mode only) the extra control b, then target wires in reverse
index order. A spec gives, for every control row and target column, whether
a gate is present and whether it is a CNOT or a CZ, plus an optional
leading Hadamard mask.

The line schedule runs the two blocks through each other like conveyor
belts: at every level each control that sits immediately left of a target
fires its gate (when present) and then swaps with it. Control p meets
target c_j at level s' + t + 1 - (p + j), where s' counts control wires, so
each level's present gates lie on one anti-diagonal of the type matrix. The
flow stops after the last level that contains a present gate, so the
generic depth is at most s + t (encode) or exactly the syndrome bound
s + t - 1 when the closest pair (a_1, c_1) is present.

Gates sharing a wire keep the same relative order as in the flat reference
(higher control rows first, within a row higher target columns first), so
the two circuits agree as unitaries up to the reported final placement.
"""

from __future__ import annotations

from enum import Enum
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from .core import (
    Architecture,
    Circuit,
    Gate,
    GateKind,
    ParseError,
    ScheduledCircuit,
    _bit_rows,
    _bit_string,
    _content_lines,
    _known_circuit,
    _mask_wires,
    _wire_count,
    cz,
    h,
    swap,
)


class CssMode(Enum):
    ENCODE = "encode"
    SYNDROME = "syndrome"


class CssGate(Enum):
    NONE = "."
    CNOT = "x"
    CZ = "z"


@dataclass(frozen=True)
class CssSpec:
    """Type matrix rows are controls a_1..a_s (plus b last in encode mode),
    columns are targets c_1..c_t. hadamard_mask bits index chain wires."""

    mode: CssMode
    s: int
    t: int
    types: tuple[tuple[CssGate, ...], ...]
    hadamard_mask: int = 0

    def __post_init__(self) -> None:
        if self.s < 1 or self.t < 1:
            raise ValueError(f"need s >= 1 and t >= 1, got s={self.s}, t={self.t}")
        if len(self.types) != self.n_controls:
            raise ValueError(f"expected {self.n_controls} type rows, got {len(self.types)}")
        object.__setattr__(self, "types", tuple(tuple(row) for row in self.types))
        for row in self.types:
            if len(row) != self.t:
                raise ValueError(f"expected {self.t} columns per row, got {len(row)}")
            for cell in row:
                if not isinstance(cell, CssGate):
                    raise ValueError(f"bad type cell {cell!r}")
        if not 0 <= self.hadamard_mask < (1 << self.n_wires):
            raise ValueError(f"hadamard mask has bits outside 0..{self.n_wires - 1}")

    @property
    def n_controls(self) -> int:
        return self.s + 1 if self.mode is CssMode.ENCODE else self.s

    @property
    def n_wires(self) -> int:
        return self.n_controls + self.t

    def control_wire(self, p: int) -> int:
        """Chain wire of control position p (1-based; b is p = s+1)."""
        if not 1 <= p <= self.n_controls:
            raise ValueError(f"control position {p} outside 1..{self.n_controls}")
        return p - 1

    def target_wire(self, j: int) -> int:
        """Chain wire of target c_j (1-based; c_t sits next to the controls)."""
        if not 1 <= j <= self.t:
            raise ValueError(f"target index {j} outside 1..{self.t}")
        return self.n_wires - j

    def cell(self, p: int, j: int) -> CssGate:
        return self.types[p - 1][j - 1]

    def level_of(self, p: int, j: int) -> int:
        return self.n_controls + self.t + 1 - (p + j)

    def last_level(self) -> int:
        """Highest level holding a present gate; 0 when the matrix is empty."""
        return max((self.level_of(p, j) for p, j, _ in self.present()), default=0)

    def present(self) -> Iterator[tuple[int, int, CssGate]]:
        for p in range(1, self.n_controls + 1):
            for j in range(1, self.t + 1):
                kind = self.cell(p, j)
                if kind is not CssGate.NONE:
                    yield p, j, kind


def _payload(kind: CssGate, control_site: int, target_site: int) -> Gate:
    if kind is CssGate.CNOT:
        return Gate(GateKind.CNOT, (control_site, target_site))
    return cz(control_site, target_site)


def _hadamard_layer(spec: CssSpec) -> list[Gate]:
    return [h(w) for w in _mask_wires(spec.hadamard_mask, spec.n_wires)]


def css_flat(spec: CssSpec) -> Circuit:
    """Reference circuit on unrestricted connectivity.

    Blocks run in the order the line schedule meets them: highest control
    position first, and within each control's block the farthest target
    (largest j) first. Gates that share no wire commute, so only these
    shared-wire orders matter.
    """
    gates = _hadamard_layer(spec)
    for p in range(spec.n_controls, 0, -1):
        for j in range(spec.t, 0, -1):
            kind = spec.cell(p, j)
            if kind is not CssGate.NONE:
                gates.append(_payload(kind, spec.control_wire(p), spec.target_wire(j)))
    return _known_circuit(spec.n_wires, [(gates, gates)])  # each gate is its own object


def css_schedule_lnn(spec: CssSpec) -> ScheduledCircuit:
    """Belt schedule: per level, fire the met pairs' gates, then swap them."""
    n = spec.n_wires
    gates = _hadamard_layer(spec)
    # tokens per site: (True, p) for control position p, (False, j) for c_j
    sites: list[tuple[bool, int]] = [(True, p) for p in range(1, spec.n_controls + 1)]
    sites += [(False, j) for j in range(spec.t, 0, -1)]
    for level in range(1, spec.last_level() + 1):
        meets = [m for m in range(n - 1) if sites[m][0] and not sites[m + 1][0]]
        for m in meets:
            p, j = sites[m][1], sites[m + 1][1]
            if spec.level_of(p, j) != level:  # pragma: no cover - flow invariant
                raise AssertionError(f"pair ({p}, {j}) met at level {level}")
            kind = spec.cell(p, j)
            if kind is not CssGate.NONE:
                gates.append(_payload(kind, m, m + 1))
        for m in meets:
            gates.append(swap(m, m + 1))
            sites[m], sites[m + 1] = sites[m + 1], sites[m]
    loc = [0] * n
    for m, (is_control, idx) in enumerate(sites):
        wire = spec.control_wire(idx) if is_control else spec.target_wire(idx)
        loc[wire] = m
    return ScheduledCircuit(_known_circuit(n, [(gates, gates)]), Architecture.lnn(n), tuple(loc))


def steane_syndrome() -> CssSpec:
    """Syndrome spec for the seven-qubit code: s=7 data wires, t=6 checks.

    Checks c_1..c_3 read bit parities with CNOTs; c_4..c_6 read phase
    parities with CZs and carry the Hadamard mask. Both groups use the rows
    of the Hamming parity pattern on positions 1..7.
    """
    hamming = (
        (1, 0, 1, 0, 1, 0, 1),
        (0, 1, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 1, 1),
    )
    s, t = 7, 6
    rows = []
    for p in range(1, s + 1):
        row = []
        for j in range(1, t + 1):
            kind = CssGate.CNOT if j <= 3 else CssGate.CZ
            row.append(kind if hamming[(j - 1) % 3][p - 1] else CssGate.NONE)
        rows.append(tuple(row))
    spec_no_mask = CssSpec(CssMode.SYNDROME, s, t, tuple(rows))
    mask = 0
    for j in range(4, 7):
        mask |= 1 << spec_no_mask.target_wire(j)
    return CssSpec(CssMode.SYNDROME, s, t, tuple(rows), mask)


# --- text format -----------------------------------------------------------


def parse_css(text: str | BinaryIO) -> CssSpec:
    lines = _content_lines(text)
    lineno, head = lines[0]
    toks = head.split()
    if len(toks) != 4 or toks[0] != "css" or toks[1] not in ("encode", "syndrome"):
        raise ParseError(lineno, f"expected 'css encode|syndrome S T', got {head!r}")
    s, t = _wire_count(toks[2], lineno), _wire_count(toks[3], lineno)
    mode = CssMode(toks[1])
    n_controls = s + 1 if mode is CssMode.ENCODE else s
    _wire_count(n_controls + t, lineno)
    if len(lines) - 1 < n_controls:
        raise ParseError(lineno, f"expected {n_controls} type rows")
    rows = []
    for lno, line in lines[1 : 1 + n_controls]:
        if len(line) != t or set(line) - {".", "x", "z"}:
            raise ParseError(lno, f"expected {t} characters of . x z, got {line!r}")
        rows.append(tuple(CssGate(ch) for ch in line))
    mask = 0
    rest = lines[1 + n_controls :]
    if rest:
        lno, line = rest[0]
        mtoks = line.split()
        if len(rest) > 1 or len(mtoks) != 2 or mtoks[0] != "hadamard":
            raise ParseError(lno, f"expected one optional 'hadamard MASK' line, got {line!r}")
        mask = _bit_rows([(lno, mtoks[1])], n_controls + t)[0]
    return CssSpec(mode, s, t, tuple(rows), mask)


def emit_css(spec: CssSpec) -> str:
    rows = ("".join(cell.value for cell in row) for row in spec.types)
    mask = [f"hadamard {_bit_string(spec.hadamard_mask, spec.n_wires)}"] if spec.hadamard_mask else []
    return "\n".join([f"css {spec.mode.value} {spec.s} {spec.t}", *rows, *mask]) + "\n"


__all__ = [
    "CssGate",
    "CssMode",
    "CssSpec",
    "css_flat",
    "css_schedule_lnn",
    "emit_css",
    "parse_css",
    "steane_syndrome",
]
