"""Weighted cubelike graphs: exact spectra, transfer pairs, and verification.

A weight vector z of length 2**d generates the XOR-circulant adjacency
matrix A[i][j] = z[i ^ j]. This package computes its exact integer
spectrum through the Walsh-Hadamard transform, classifies the graph as
admitting perfect state transfer at t = pi/2 or being periodic with
period dividing pi/2, reconstructs matrices from partial entries for any
shared eigenbasis, and verifies every claim at t = pi/2 against two
independent exact kernels of the walk: the Walsh transform of the
quarter-turn phases, and the closed form i**(sum z mod 4) P_sigma of the
product formula.
"""

from .boolean_domain import (
    DENSE_DIMENSION_LIMIT,
    MAX_DIMENSION,
    GroupElement,
    sign_matrix,
)
from .eigenbasis_builder import (
    IndexSet,
    OrthogonalBasis,
    ReconstructionResult,
    build_q,
    reconstruct,
    select_index_set,
    walsh_basis,
)
from .exceptions import (
    ConsistencyError,
    CubelikeError,
    DimensionMismatchError,
    DomainError,
    OverflowGuardError,
    ParityError,
    ReconstructionError,
    ResourceLimitError,
    StructureError,
    VerificationError,
)
from .fixtures import REFERENCE_TABLE, ReferenceCase
from .pst_analyzer import (
    TRANSFER_TIME,
    PstResult,
    TransferKind,
    classify,
    sigma_from_spectrum,
    sigma_from_weights,
)
from .spectral_engine import (
    Spectrum,
    WeightVector,
    adjacency_from_weights,
    eigenvalues_from_weights,
    fwht,
)
from .walk_oracle import (
    LEAKAGE_LIMIT,
    PST_THRESHOLD,
    PairCheck,
    TransitionMatrix,
    VerificationReport,
    fidelity,
    transition_spectral,
    transition_taylor,
    verify_result,
)

__all__ = [
    "CubelikeError",
    "DimensionMismatchError",
    "StructureError",
    "DomainError",
    "ParityError",
    "ConsistencyError",
    "ReconstructionError",
    "ResourceLimitError",
    "OverflowGuardError",
    "VerificationError",
    "GroupElement",
    "MAX_DIMENSION",
    "DENSE_DIMENSION_LIMIT",
    "sign_matrix",
    "WeightVector",
    "Spectrum",
    "fwht",
    "eigenvalues_from_weights",
    "adjacency_from_weights",
    "OrthogonalBasis",
    "IndexSet",
    "ReconstructionResult",
    "walsh_basis",
    "select_index_set",
    "build_q",
    "reconstruct",
    "TRANSFER_TIME",
    "TransferKind",
    "PstResult",
    "sigma_from_spectrum",
    "sigma_from_weights",
    "classify",
    "TransitionMatrix",
    "PairCheck",
    "VerificationReport",
    "PST_THRESHOLD",
    "LEAKAGE_LIMIT",
    "transition_spectral",
    "transition_taylor",
    "fidelity",
    "verify_result",
    "REFERENCE_TABLE",
    "ReferenceCase",
    "__version__",
]

__version__ = "0.1.0"
