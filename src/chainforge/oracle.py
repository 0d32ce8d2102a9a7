"""Reference semantics: dense statevector simulation and GF(2) gate action.

These routines are deliberately straightforward. The schedulers in this
package are checked against them, so they avoid every shortcut the
schedulers use and share nothing with them beyond the gate IR and the
GF2Matrix container.

Basis convention: wire 0 is the least significant bit of the basis index,
so state index x encodes wire w as bit (x >> w) & 1.

apply_gate updates its buffer in place: a C-contiguous complex128 array of
shape (2**n,) or (2**n, batch) is changed through reshape views and
returned as is. Any other array is first copied to one, and the updated
copy is returned. Matching with an output relabeling reads rows through
one basis-index map instead of multiplying by a permutation matrix: the
comparison gathers one block of rows at a time, never a whole relabeled
copy.

simulate and circuit_unitary share one gate loop. From 16 columns up, each
run of two or more monomial gates (P, CNOT, SWAP, CZ, CPHASE: each sends a
basis state to one phased basis state) is one in-place row permutation and
one row scaling, read off a two-column probe (basis index, 1) that the
run's gates pass through apply_gate in order, so gate semantics still come
from apply_gate alone, not from the schedulers. The probe is exact: phases
have modulus 1 and indices stay below 2**14. The permutation walks each
cycle of the row map once and moves at most 64 rows per step, so simulate
holds the caller's input, one working state (its one copy) and at most 65
rows more, and matrices_equiv holds its two inputs and three comparison
buffers of at most 2**15 entries. A lone CNOT or SWAP, applied gate by
gate, swaps through a quarter-state temporary. Narrower batches run gate by
gate. The cycle walk takes O(2**n) Python steps per run, so at n = 10
fusing pays only from about 32 columns on the CSS belts and 128 on qft_lnn
(ms on 1 / 8 / 16 / 1,024 columns, gate by gate / fused; 2-CPU VM, numpy
2.4):
    CSS schedule  0.21 / 0.54  0.46 / 0.67  0.66 / 0.76  68.5 / 15.7
    qft_lnn(10)   0.53 / 3.11  1.43 / 4.10  2.05 / 4.61   159 / 101
"""

from __future__ import annotations

import cmath
import math
from itertools import groupby
from typing import Sequence

import numpy as np

from .core import Circuit, Gate, GateKind, is_permutation
from .linsynth import GF2Matrix

MAX_SIM_WIRES = 14
MAX_UNITARY_WIRES = 9

_SQRT_HALF = 1.0 / math.sqrt(2)


def _buffer(state: np.ndarray, n: int) -> np.ndarray:
    """`state` when reshape views can update it in place, else such a copy."""
    state = np.asarray(state)
    if state.ndim not in (1, 2) or state.shape[0] != 2**n:
        raise ValueError(f"state must have shape (2**{n},) or (2**{n}, batch), got {state.shape}")
    flags = state.flags
    if state.dtype != np.complex128 or not (flags.c_contiguous and flags.writeable):
        state = np.array(state, dtype=np.complex128, order="C")
    return state


def apply_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply one gate to a state of shape (2**n,) or (2**n, batch); returns it.

    A writable C-contiguous complex128 buffer is updated in place and
    returned; anything else is copied to one first (see the module
    docstring). Callers that need the original should pass a copy.
    simulate and circuit_unitary do.
    """
    if g.kind is GateKind.GENERIC2:
        raise ValueError("generic two-qubit placeholders have no fixed unitary")
    state = _buffer(state, n)
    batch = state.size >> n
    if len(g.qubits) == 1:
        w = g.qubits[0]
        v = state.reshape(1 << (n - 1 - w), 2, batch << w)
        lo, hi = v[:, 0], v[:, 1]  # wire w at 0, at 1
        if g.kind is GateKind.H:  # butterfly: lo, hi = s(lo + hi), s(lo - hi)
            lo += hi
            lo *= _SQRT_HALF
            hi *= -2 * _SQRT_HALF
            hi += lo
        else:  # P
            hi *= 1j
        return state
    a, b = g.qubits
    top, low = max(a, b), min(a, b)
    # v[:, i, :, j] is the quarter block with wire top at i and wire low at j
    v = state.reshape(1 << (n - 1 - top), 2, 1 << (top - low - 1), 2, batch << low)
    if g.kind is GateKind.CNOT:  # exchange target 0 and 1 where the control is 1
        x, y = (v[:, 1, :, 0] if a == top else v[:, 0, :, 1]), v[:, 1, :, 1]
    elif g.kind is GateKind.SWAP:
        x, y = v[:, 0, :, 1], v[:, 1, :, 0]
    else:  # CZ or CPHASE
        v[:, 1, :, 1] *= -1 if g.kind is GateKind.CZ else cmath.rect(1, math.ldexp(math.tau, -g.param))
        return state
    tmp = x.copy()
    x[...] = y
    y[...] = tmp
    return state


def simulate(circuit: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on `state` (default |0...0>); returns a fresh array."""
    n = circuit.n_wires
    if n > MAX_SIM_WIRES:
        raise ValueError(f"dense simulation limited to {MAX_SIM_WIRES} wires, got {n}")
    if state is None:
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(state, dtype=complex, order="C")
        if state.shape[0] != 2**n:
            raise ValueError(f"state has dimension {state.shape[0]}, expected {2**n}")
    return _apply_gates(state, circuit.gates, n)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary from simulating all basis columns; refuses n > 9."""
    n = circuit.n_wires
    if n > MAX_UNITARY_WIRES:
        raise ValueError(f"dense unitary limited to {MAX_UNITARY_WIRES} wires, got {n}")
    return _apply_gates(np.eye(2**n, dtype=complex), circuit.gates, n)


_FUSE_COLUMNS = 16  # narrower batches run gate by gate (module docstring)
_MONOMIAL = frozenset((GateKind.P, GateKind.CNOT, GateKind.SWAP, GateKind.CZ, GateKind.CPHASE))


def _apply_gates(state: np.ndarray, gates: Sequence[Gate], n: int) -> np.ndarray:
    """Apply `gates` in order to a buffer apply_gate may update; returns the result."""
    wide = state.ndim == 2 and state.shape[1] >= _FUSE_COLUMNS
    for fuse, run in groupby(gates, lambda g: g.kind in _MONOMIAL) if wide else ((False, gates),):
        if fuse and len(run := tuple(run)) > 1:
            probe = np.column_stack((np.arange(1 << n), np.ones(1 << n))).astype(np.complex128)
            for g in run:
                probe = apply_gate(probe, g, n)
            _permute_rows(state, np.rint(np.abs(probe[:, 0])).astype(np.intp))  # row y <- row src[y]
            state *= probe[:, 1:]  # times phase[y]
        else:
            for g in run:
                state = apply_gate(state, g, n)
    return state


_ROWS = 64  # most rows one fancy assignment moves


def _permute_rows(state: np.ndarray, src: np.ndarray) -> None:
    """Row y <- row src[y] of `state` for every y, in place; `src` is a permutation.

    Each cycle y0 <- y1 <- ... <- y(k-1) <- y0 of the map is walked once in
    Python. Whole cycles of up to 64 rows are packed into one fancy
    assignment of at most 64 rows, whose right side is read before it is
    written, so each rotates as a unit. A longer cycle holds y0 aside and
    moves its other rows up 64 at a time. No more than 64 rows are in
    flight, plus that one held row.
    """
    src = src.tolist()
    to: list[int] = []  # rows of the packed cycles, and where each takes its row from
    fro: list[int] = []
    for y, x in enumerate(src):
        if x == y:
            continue
        cycle = [y]
        while x != y:
            cycle.append(x)
            src[x], x = x, src[x]  # mark x walked (a fixed point now) and step on
        if len(to) + len(cycle) > _ROWS:
            state[to] = state[fro]
            to, fro = [], []
        if len(cycle) <= _ROWS:
            to += cycle
            fro += cycle[1:] + cycle[:1]
            continue
        held = state[y].copy()
        for i in range(0, len(cycle) - 1, _ROWS):
            stop = min(i + _ROWS, len(cycle) - 1)
            state[cycle[i:stop]] = state[cycle[i + 1 : stop + 1]]
        state[cycle[-1]] = held
    state[to] = state[fro]


def _source_index(perm: Sequence[int]) -> np.ndarray:
    """Basis-index map of the relabeling: entry y is the index x it came from.

    Wire w goes to wire perm[w], so bit w of x is bit perm[w] of y.
    """
    n = len(perm)
    if not is_permutation(perm, n):
        raise ValueError(f"{tuple(perm)} is not a permutation")
    y = np.arange(1 << n, dtype=np.int64)
    x = np.zeros_like(y)
    for w, target in enumerate(perm):
        x |= ((y >> target) & 1) << w
    return x


def permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """Unitary relabeling wires by `perm` (wire w goes to wire perm[w])."""
    src = _source_index(perm)
    m = np.zeros((src.size, src.size), dtype=complex)
    m[np.arange(src.size), src] = 1.0
    return m


_BLOCK = 1 << 15  # entries per block of the phase-fixed comparison


def _phase_fixed_equal(a: np.ndarray, b: np.ndarray, tol: float, rows: np.ndarray | None = None) -> bool:
    """a == phase * b[rows] elementwise (b itself when rows is None), with the
    phase fixed at a's largest entry; a and b are 2-D of one shape.

    Both scans go block by block of whole rows through reused buffers, and
    a relabeling gathers one block of b's rows at a time, so no full-size
    temporary is made; the comparison stops at the first block holding an
    entry off by more than tol.
    """

    def rows_of(lo: int, hi: int) -> np.ndarray:
        return (b[lo:hi] if rows is None else b[rows[lo:hi]]).reshape(-1)

    flat1 = a.reshape(-1)
    size, width = flat1.size, a.shape[1]
    step = max(1, _BLOCK // max(1, width))  # rows per block
    block = min(size, step * width)
    mag, diff = np.empty(block), np.empty(block, dtype=np.complex128)
    i, top = 0, -1.0
    for start in range(0, size or 1, block or 1):  # an empty array raises in np.argmax
        m = np.abs(flat1[start : start + block], out=mag[: min(size - start, block)])
        j = int(np.argmax(m))
        if m[j] > top:  # the first largest entry wins; a NaN in a fails the scan below
            i, top = start + j, m[j]
    y, x = divmod(i, width)
    pivot = rows_of(y, y + 1)[x]
    if abs(flat1[i]) < tol or abs(pivot) < tol:
        return False
    phase = flat1[i] / pivot
    if abs(abs(phase) - 1.0) > tol:
        return False
    for lo in range(0, len(a), step):
        gathered = rows_of(lo, lo + step)
        d = np.multiply(phase, gathered, out=diff[: gathered.size])
        if not np.abs(np.subtract(a[lo : lo + step].reshape(-1), d, out=d), out=mag[: d.size]).max() <= tol:
            return False
    return True


def matrices_equiv(
    u1: np.ndarray,
    u2: np.ndarray,
    out_perm: Sequence[int] | None = None,
    tol: float = 1e-10,
) -> bool:
    """True when u1 equals (relabel by out_perm) . u2 up to global phase.

    The relabeling gathers the rows of u2 one comparison block at a time;
    the phase is fixed at the largest-magnitude entry of u1.
    """
    if u1.ndim != 2 or u1.shape != u2.shape:
        return False
    src = None
    if out_perm is not None:
        src = _source_index(out_perm)
        if src.size != u2.shape[0]:
            raise ValueError(f"relabeling of {len(out_perm)} wires for {u2.shape[0]} rows")
    return _phase_fixed_equal(u1, u2, tol, src)


def unitary_equiv(
    c1: Circuit,
    c2: Circuit,
    relabel: Sequence[int] | None = None,
    tol: float = 1e-10,
) -> bool:
    """Dense-unitary equivalence of two circuits up to output relabeling.

    relabel permutes the wires of c2's output before comparison against c1.
    """
    if c1.n_wires != c2.n_wires:
        return False
    return matrices_equiv(circuit_unitary(c1), circuit_unitary(c2), relabel, tol)


def states_equiv(s1: np.ndarray, s2: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the arrays match up to one global phase (batches share it)."""
    s1, s2 = np.asarray(s1), np.asarray(s2)
    return s1.size == s2.size and _phase_fixed_equal(s1.reshape(-1, 1), s2.reshape(-1, 1), tol)


def dft_matrix(n_wires: int) -> np.ndarray:
    """Discrete Fourier transform on 2**n_wires points, unitary normalization.

    Entry (j, k) is looked up in a table of the 2**n_wires roots of unity at (j * k) mod dim,
    so each entry is exactly exp(2 pi i ((j * k) mod dim) / dim) / sqrt(dim).
    """
    dim = 2**n_wires
    idx = np.arange(dim)
    roots = np.exp(2j * math.pi * idx / dim) / math.sqrt(dim)
    exponents = np.outer(idx, idx)
    exponents &= dim - 1
    return roots[exponents]


def bit_reversal_permutation(n_wires: int) -> tuple[int, ...]:
    """Wire relabeling w -> n-1-w."""
    return tuple(n_wires - 1 - w for w in range(n_wires))


def gf2_action(circuit: Circuit) -> GF2Matrix:
    """Transfer matrix of a CNOT/SWAP circuit over GF(2).

    Row t records which inputs feed output wire t: starting from the
    identity, CNOT(c, t) adds row c into row t and SWAP exchanges two rows.
    """
    rows = [1 << i for i in range(circuit.n_wires)]
    cnot_kind, swap_kind = GateKind.CNOT, GateKind.SWAP
    for kind, qs, _ in circuit.gates:
        if kind is cnot_kind:
            c, t = qs
            rows[t] ^= rows[c]
        elif kind is swap_kind:
            a, b = qs
            rows[a], rows[b] = rows[b], rows[a]
        else:
            raise ValueError(f"gf2_action handles cnot and swap only, got {kind.value}")
    return GF2Matrix(circuit.n_wires, tuple(rows))


__all__ = [
    "MAX_SIM_WIRES",
    "MAX_UNITARY_WIRES",
    "apply_gate",
    "bit_reversal_permutation",
    "circuit_unitary",
    "dft_matrix",
    "gf2_action",
    "matrices_equiv",
    "permutation_matrix",
    "simulate",
    "states_equiv",
    "unitary_equiv",
]
