"""Reconstruction of symmetric matrices that share a fixed eigenvector basis.

An n x n orthogonal matrix P determines the family of all symmetric
matrices it diagonalizes. Choosing n index pairs (r_j, c_j) whose
Hadamard-product rows Q[j] = P[r_j] * P[c_j] are linearly independent pins
down one family member per right-hand side Z: solving Q x = Z gives the
eigenvalues, and A = P diag(x) P^T is the unique symmetric matrix with
eigenbasis P whose entries at the chosen positions equal Z.

Two structured shortcuts avoid the generic search: a row of P without zero
entries yields the index set {(k, i)} directly, and if that row is constant
with value mu then Q = mu * P, so the solve collapses to x = P^T Z / mu.
The Walsh-Hadamard basis hits the second shortcut with mu = 1 / sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolean_domain import check_dimension, sign_matrix
from .exceptions import (
    DimensionMismatchError,
    ReconstructionError,
    ResourceLimitError,
    StructureError,
)

# Dense O(n^3) machinery; anything bigger belongs to the transform fast path.
MAX_BASIS_SIZE = 4096
ORTHOGONALITY_TOL = 1e-9
CONDITION_LIMIT = 1e12
# Relative threshold separating structural zeros from small entries.
ZERO_ENTRY_REL = 1e-12
DEFAULT_SELECT_TOL = 1e-10


@dataclass(frozen=True)
class OrthogonalBasis:
    """Square orthogonal matrix; max |P^T P - I| <= ORTHOGONALITY_TOL is checked."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.float64, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"basis must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if n < 1:
            raise DimensionMismatchError("basis must be at least 1 x 1")
        if n > MAX_BASIS_SIZE:
            raise ResourceLimitError(
                f"basis size {n} exceeds the dense limit {MAX_BASIS_SIZE}"
            )
        gram_dev = np.abs(mat.T @ mat - np.eye(n)).max()
        if gram_dev > ORTHOGONALITY_TOL:
            raise StructureError(
                f"matrix is not orthogonal: max |P^T P - I| = {gram_dev:.3e}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def walsh_basis(d: int) -> OrthogonalBasis:
    """The normalized Walsh-Hadamard basis for Z_2^d: signs / sqrt(n)."""
    d = check_dimension(d, 12)  # 2**12 = MAX_BASIS_SIZE
    n = 1 << d
    return OrthogonalBasis(sign_matrix(d) / math.sqrt(n))


@dataclass(frozen=True)
class IndexSet:
    """n index pairs (rows[j], cols[j]) selecting fixed entries of A.

    constant_row_value is set when every pair shares one row of P that is
    constant; reconstruct then uses Q = mu * P without a dense solve.
    select_index_set only returns sets whose induced Q is invertible;
    reconstruct re-checks conditioning before solving.
    """

    rows: np.ndarray
    cols: np.ndarray
    constant_row_value: float | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).copy()
        cols = np.asarray(self.cols, dtype=np.int64).copy()
        if rows.ndim != 1 or cols.ndim != 1 or rows.size != cols.size:
            raise DimensionMismatchError("rows and cols must be 1-D of equal length")
        if rows.size < 1:
            raise DimensionMismatchError("index set must contain at least one pair")
        if rows.min() < 0 or cols.min() < 0:
            raise DimensionMismatchError("index pairs must be non-negative")
        rows.flags.writeable = False
        cols.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def size(self) -> int:
        return self.rows.size

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(r), int(c)) for r, c in zip(self.rows, self.cols))


def select_index_set(basis: OrthogonalBasis, tol: float = DEFAULT_SELECT_TOL) -> IndexSet:
    """Pick n pairs whose product rows are linearly independent.

    Fast path: the first row k of P with no (near-)zero entry gives the
    pairs {(k, i)}; if that row is also constant its value is recorded so
    reconstruct can skip the dense solve. Otherwise pairs (r, c) with
    r <= c are scanned in lexicographic order and kept greedily whenever
    the product row survives modified Gram-Schmidt with residual > tol.
    """
    if not tol > 0:
        raise DimensionMismatchError(f"tolerance must be positive, got {tol}")
    p = basis.matrix
    n = basis.n

    for k in range(n):
        row = p[k]
        scale = float(np.linalg.norm(row))
        if float(np.abs(row).min()) > ZERO_ENTRY_REL * scale:
            spread = float(row.max() - row.min())
            mu = float(row[0]) if spread <= ZERO_ENTRY_REL * scale else None
            return IndexSet(np.full(n, k), np.arange(n), constant_row_value=mu)

    ortho = np.empty((n, n))
    rows: list[int] = []
    cols: list[int] = []
    count = 0
    for r in range(n):
        for c in range(r, n):
            candidate = p[r] * p[c]
            w = candidate.copy()
            for _ in range(2):  # second pass keeps the basis orthonormal
                if count:
                    w -= ortho[:count].T @ (ortho[:count] @ w)
            norm = float(np.linalg.norm(w))
            if norm > tol:
                ortho[count] = w / norm
                rows.append(r)
                cols.append(c)
                count += 1
                if count == n:
                    return IndexSet(np.array(rows), np.array(cols))
    raise ReconstructionError(
        f"no set of {n} independent index pairs found at tolerance {tol}; "
        "the basis is numerically degenerate"
    )


def _check_index_set(basis: OrthogonalBasis, index_set: IndexSet) -> None:
    n = basis.n
    if index_set.size != n:
        raise DimensionMismatchError(
            f"index set has {index_set.size} pairs, basis needs {n}"
        )
    if index_set.rows.max() >= n or index_set.cols.max() >= n:
        raise DimensionMismatchError(f"index pair out of range for basis size {n}")


def build_q(basis: OrthogonalBasis, index_set: IndexSet) -> np.ndarray:
    """The matrix with rows Q[j] = P[rows[j]] * P[cols[j]] (elementwise)."""
    _check_index_set(basis, index_set)
    p = basis.matrix
    return p[index_set.rows] * p[index_set.cols]


@dataclass(frozen=True)
class ReconstructionResult:
    """Symmetric matrix a with eigenbasis P and eigenvalues x."""

    a: np.ndarray
    x: np.ndarray


def reconstruct(basis: OrthogonalBasis, index_set: IndexSet, z) -> ReconstructionResult:
    """Solve Q x = z and assemble A = P diag(x) P^T.

    The chosen entries are reproduced: A[rows[j]][cols[j]] == z[j]. A
    condition estimate above CONDITION_LIMIT aborts the dense solve; the
    constant-row shortcut (Q = mu * P) needs no estimate since its
    condition number is 1, and never builds Q.
    """
    zvec = np.asarray(z, dtype=np.float64)
    if zvec.ndim != 1 or zvec.size != basis.n:
        raise DimensionMismatchError(
            f"fixed-entry vector must have length {basis.n}, got shape {zvec.shape}"
        )
    p = basis.matrix
    if index_set.constant_row_value is not None:
        _check_index_set(basis, index_set)
        x = (p.T @ zvec) / index_set.constant_row_value
    else:
        q = build_q(basis, index_set)
        cond = float(np.linalg.cond(q))
        if not math.isfinite(cond) or cond > CONDITION_LIMIT:
            raise ReconstructionError(
                f"index-set matrix too ill-conditioned to solve: cond = {cond:.3e}"
            )
        try:
            x = np.linalg.solve(q, zvec)
        except np.linalg.LinAlgError as exc:
            raise ReconstructionError(f"singular index-set matrix: {exc}") from exc
    a = (p * x) @ p.T
    a = 0.5 * (a + a.T)
    fixed = a[index_set.rows, index_set.cols]
    scale = 1.0 + (float(np.abs(zvec).max()) if zvec.size else 0.0)
    worst = float(np.abs(fixed - zvec).max())
    if worst > 1e-8 * scale:
        raise ReconstructionError(
            f"reconstruction failed to honor fixed entries: max deviation {worst:.3e}"
        )
    a.flags.writeable = False
    x.flags.writeable = False
    return ReconstructionResult(a=a, x=x)
