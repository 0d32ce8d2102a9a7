"""Linear-depth circuit scheduling for nearest-neighbor chains.

The package builds staged schedules for two-qubit-gate skeletons, Fourier
transforms, GF(2) linear reversible circuits, 11-stage stabilizer
decompositions, and CSS encode/syndrome blocks, all without helper wires.
Verification backends (dense statevector, GF(2) action, Pauli tableau) and
depth lower-bound queries live alongside the generators.
"""

# each library module's __all__ is the one list of its public names; the CLI is not re-exported
from .bounds import *
from .core import *
from .css import *
from .linsynth import *
from .oracle import *
from .qft import *
from .skeleton import *
from .stabilizer import *

__all__ = (
    bounds.__all__ + core.__all__ + css.__all__ + linsynth.__all__
    + oracle.__all__ + qft.__all__ + skeleton.__all__ + stabilizer.__all__
)

__version__ = "0.1.0"
