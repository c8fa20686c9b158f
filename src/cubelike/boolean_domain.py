"""Exact arithmetic on the Boolean group Z_2^d and Walsh-Hadamard sign entries.

Indices are 0-based throughout: element 0 is the all-zero string and bit j
of an index carries weight 2**j, so the group operation on elements is the
machine XOR of their indices. The sign attached to a pair (i, j) is
(-1)**popcount(i AND j); divided by sqrt(n) these signs form the symmetric
orthogonal matrix that diagonalizes every XOR-circulant adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, ResourceLimitError

# Default cap: n = 2**20 keeps vector work around 10^6 entries.
MAX_DIMENSION = 20
# Dense n x n matrices are only materialized below this.
DENSE_DIMENSION_LIMIT = 13


def _is_integer(x) -> bool:
    """True for Python and numpy integers; False for bool, float, str and the rest."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_dimension(d, limit: int = MAX_DIMENSION) -> int:
    """Validate a group dimension, returning it as a plain int."""
    if not _is_integer(d):
        raise DimensionMismatchError(f"dimension must be an integer, got {d!r}")
    d = int(d)
    if d < 1:
        raise DimensionMismatchError(f"dimension must be positive, got {d}")
    if d > limit:
        raise ResourceLimitError(f"dimension {d} exceeds the supported limit {limit}")
    return d


@dataclass(frozen=True)
class GroupElement:
    """An element of Z_2^d, stored as the integer whose bit j is coordinate j."""

    bits: int
    dim: int

    def __post_init__(self):
        d = check_dimension(self.dim)
        object.__setattr__(self, "dim", d)
        if not _is_integer(self.bits):
            raise DimensionMismatchError(f"bits must be an integer, got {self.bits!r}")
        bits = int(self.bits)
        if not 0 <= bits < (1 << d):
            raise DimensionMismatchError(
                f"bits {bits} outside [0, {1 << d}) for dimension {d}"
            )
        object.__setattr__(self, "bits", bits)

    def __int__(self) -> int:
        return self.bits

    @property
    def bitstring(self) -> str:
        """MSB-first display string, e.g. bits=3, dim=3 -> '011'."""
        return format(self.bits, f"0{self.dim}b")


def sign_matrix(d: int) -> np.ndarray:
    """Dense n x n matrix of the signs (-1)**popcount(i AND j) (int8), n = 2**d.

    Built by Kronecker doubling; int8 keeps the largest allowed case
    (d = 13, n = 8192) at 64 MB.
    """
    d = check_dimension(d, DENSE_DIMENSION_LIMIT)
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(d):
        h = np.block([[h, h], [h, -h]])
    return h
