"""Quantum Fourier transform circuits, flat and scheduled on a line.

The flat form follows the textbook pattern: wire a gets a Hadamard, then
controlled phases onto every later wire b with rotation parameter
k = b - a + 1. Its unitary composed with the bit-reversal wire relabeling
is the DFT matrix on 2**n points.

The line-scheduled form drives the same gates through the all-pairs
skeleton. The schedule runs in 2n-3 payload stages plus SWAP stages, and
Hadamards are woven in: H(a) right before stage 2a+1 (where wire a's first
phase gate sits) and H(n-1) at the very end. Placements come from the
skeleton's closed form, not from a walk: wire a first meets a+1 on sites
(0, 1) and wire n-1 ends on site 0, so every Hadamard acts on site 0, and
the final placement is the entry one reversed. Only H(0) and H(n-1) occupy
layers of their own, so the full transform's depth is 4n-4 for n >= 2. A
truncated spec leaves its dropped slots empty and keeps every SWAP. Slot
(a, b) holds k = d + 1, d = b - a, so the kept slots (d < threshold) are one
grid and each stage's payload one slice of a row of site gates by d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Architecture,
    Circuit,
    Gate,
    GateKind,
    ScheduledCircuit,
    _known_circuit,
    cphase,
    h,
)
from .skeleton import Slot, _band, _grid_stages, _site_row


@dataclass(frozen=True)
class QftSpec:
    """Size and optional phase-truncation threshold.

    approx_threshold m drops every controlled phase with parameter k > m;
    m = None keeps them all.
    """

    n: int
    approx_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qft needs n >= 1, got {self.n}")
        m = self.approx_threshold
        if m is not None and not 1 <= m <= self.n:
            raise ValueError(f"approx_threshold must be in 1..{self.n}, got {m}")

    def keeps(self, a: int, b: int) -> bool:
        return self.approx_threshold is None or b - a + 1 <= self.approx_threshold


def qft_flat(spec: QftSpec) -> Circuit:
    """Unrestricted-connectivity circuit; phase parameter k = b - a + 1."""
    gates: list[Gate] = []
    for a in range(spec.n):
        gates.append(h(a))
        for b in range(a + 1, spec.n):
            if spec.keeps(a, b):
                gates.append(cphase(b - a + 1, a, b))
    return _known_circuit(spec.n, [(gates, gates)])  # each gate is its own object


def qft_lnn(spec: QftSpec) -> ScheduledCircuit:
    """Line schedule of every gate the spec keeps; truncation keeps the SWAPs.

    The SWAP flow reverses the wires, so the unitary relabeled by final_map
    and then by bit reversal equals the DFT matrix for the full transform.
    No physical reversal stage is appended.
    """
    n, h0 = spec.n, h(0)  # every Hadamard sits on site 0; n = 1 has no stage, only that one
    kept = _band(n, spec.approx_threshold or n)  # spec.keeps(a, b) iff d = b - a < approx_threshold
    row = _site_row(n, False, [Slot(GateKind.CPHASE, False, d + 1) for d in range(n)], kept)  # k = d + 1
    sublayers: list[tuple[int, str]] = []  # each sublayer's (size, class), for the circuit's record
    gates, table = _grid_stages(n, False, row, sublayers, kept, h0)  # wire a first meets a + 1 in stage 2a + 1
    gates.append(h0)  # wire n - 1 ends on site 0
    sublayers.append((1, "1"))
    made, final = (h0, *table, *filter(None, row)), tuple(range(n - 1, -1, -1))  # the entry one reversed
    return ScheduledCircuit(_known_circuit(n, [(gates, made)], sublayers), Architecture.lnn(n), final)


__all__ = ["QftSpec", "qft_flat", "qft_lnn"]
