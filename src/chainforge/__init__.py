"""Linear-depth circuit scheduling for nearest-neighbor chains.

The package builds staged schedules for two-qubit-gate skeletons, Fourier
transforms, GF(2) linear reversible circuits, 11-stage stabilizer
decompositions, and CSS encode/syndrome blocks, all without helper wires.
Verification backends (dense statevector, GF(2) action, Pauli tableau) and
depth lower-bound queries live alongside the generators.
"""

from __future__ import annotations

from .bounds import (
    AuditReport,
    AuditWindow,
    BoundArch,
    BoundQuery,
    LowerBound,
    Model,
    brute_force_min_depth,
    classify_layers,
    lower_bound,
    stage_audit,
)
from .core import (
    ArchKind,
    Architecture,
    ChainNotFoundError,
    Circuit,
    Gate,
    GateKind,
    ParseError,
    ScheduledCircuit,
    ValidationReport,
    Violation,
    cnot,
    cphase,
    cz,
    emit_circuit,
    embed_chain,
    generic2,
    generic_depth,
    h,
    invert_permutation,
    p,
    parse_architecture,
    parse_circuit,
    prune_trailing_swap_layers,
    swap,
    swap_flow_map,
    to_qasm,
    two_qubit_layer_count,
    validate_on,
)
from .css import (
    CssGate,
    CssMode,
    CssSpec,
    css_flat,
    css_schedule_lnn,
    emit_css,
    parse_css,
    steane_syndrome,
)
from .linsynth import (
    GF2Matrix,
    SingularMatrixError,
    emit_gf2,
    expand_circuit_to_cnot,
    expand_to_cnot,
    gauss_jordan,
    parse_gf2,
    synthesize_lnn,
)
from .oracle import (
    MAX_SIM_WIRES,
    MAX_UNITARY_WIRES,
    bit_reversal_permutation,
    circuit_unitary,
    dft_matrix,
    gf2_action,
    permutation_matrix,
    simulate,
    states_equiv,
    unitary_equiv,
)
from .qft import QftSpec, qft_flat, qft_lnn
from .skeleton import (
    SkeletonSpec,
    all_pairs,
    emit_skeleton,
    n_stages,
    parse_skeleton,
    schedule_lnn,
)
from .stabilizer import (
    PauliTableau,
    StageDecomposition,
    emit_stab,
    parse_stab,
    random_decomposition,
    schedule_stabilizer,
    stabilizer_flat,
    tableau_equiv,
    tableau_of,
)

__version__ = "0.1.0"
