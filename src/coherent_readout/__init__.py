"""Coherence-sensitive readout modeling for computational-basis measurement.

Noisy readout of an N-level register is fully described by the effective
measurement operators F_k = E^dag(|k><k|) of the pre-measurement channel E.
Their diagonals form the classical assignment matrix A; their off-diagonal
parts form a coherence-response matrix C, and the observed distribution is
z = A x + C y in the real state coordinates (x, y). This package extracts
(A, C) from Kraus channels, cross-checks predictions against the channel
applied to the state and the kernel read off its superoperator, and inverts
the model under physicality constraints.
"""

from .channels import (
    KrausChannel,
    amplitude_damping,
    compose,
    dephasing,
    identity,
    pauli_channel,
    random_channel,
    rotation_y,
    superoperator,
    tensor,
    validate_cptp,
)
from .povm import Povm, effective_povm, kernel, kernel_diag_defect, offdiag_defect
from .readout import (
    ReadoutModel,
    classical_forward,
    extract,
    forward,
    nonclassicality,
    oracle_probabilities,
)
from .solver import (
    MitigationProblem,
    MitigationResult,
    SolverOptions,
    assemble_b,
    classical_invert,
    mitigate,
    project_to_density_set,
)
from .states import (
    DensityMatrix,
    StateDecomposition,
    decompose,
    random_density,
    reconstruct,
)

__all__ = [
    "KrausChannel",
    "Povm",
    "DensityMatrix",
    "StateDecomposition",
    "ReadoutModel",
    "MitigationProblem",
    "MitigationResult",
    "SolverOptions",
    "amplitude_damping",
    "assemble_b",
    "classical_forward",
    "classical_invert",
    "compose",
    "decompose",
    "dephasing",
    "effective_povm",
    "extract",
    "forward",
    "identity",
    "kernel",
    "kernel_diag_defect",
    "mitigate",
    "nonclassicality",
    "offdiag_defect",
    "oracle_probabilities",
    "pauli_channel",
    "project_to_density_set",
    "random_channel",
    "random_density",
    "reconstruct",
    "rotation_y",
    "superoperator",
    "tensor",
    "validate_cptp",
]

__version__ = "0.1.0"
