"""Spectra and adjacency matrices of weighted cubelike graphs.

A weight vector z of length n = 2**d defines the graph whose adjacency
matrix is A[i][j] = z[i ^ j]: every pair of vertices at XOR-difference h
carries weight z[h], and z[0] sits on the whole diagonal as a loop weight.
All such matrices share the Walsh-Hadamard eigenbasis, and the eigenvalue
attached to character k is the unnormalized Walsh-Hadamard transform of z
at k. Integer weights therefore give exact integer spectra, computed here
with 64-bit integer butterflies instead of a floating-point eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolean_domain import DENSE_DIMENSION_LIMIT, check_dimension
from .exceptions import (
    DimensionMismatchError,
    DomainError,
    OverflowGuardError,
)

_INT64_MAX = np.iinfo(np.int64).max


def _normalize_real_vector(values, what: str):
    """Coerce to a fresh 1-D int64 or float64 array; returns (array, integral)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype == object:
        try:
            arr = arr.astype(np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise OverflowGuardError(
                f"{what} entries must be 64-bit integers or floats: {exc}"
            ) from exc
    if np.issubdtype(arr.dtype, np.bool_):
        arr = arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64), True
    if np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
        if arr.size and not np.isfinite(arr).all():
            raise DomainError(f"{what} entries must be finite")
        # Integer-valued floats up to 2**53 are exact; keep them exact.
        if arr.size and np.all(arr == np.floor(arr)) and np.abs(arr).max() <= 2.0**53:
            return arr.astype(np.int64), True
        return arr, False
    raise DomainError(f"{what} entries must be real numbers, got dtype {arr.dtype}")


def _power_of_two_dimension(n: int, what: str) -> int:
    if n < 2 or n & (n - 1):
        raise DimensionMismatchError(
            f"{what} length must be 2**d with d >= 1, got {n}"
        )
    return check_dimension(n.bit_length() - 1)


@dataclass(frozen=True)
class WeightVector:
    """Length-2**d weight vector; values is read-only int64 when integral."""

    d: int
    values: np.ndarray
    integral: bool

    @property
    def n(self) -> int:
        return 1 << self.d

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        pre = np.asarray(values)
        if pre.ndim != 1:
            raise DimensionMismatchError(
                f"weight vector must be one-dimensional, got shape {pre.shape}"
            )
        d = _power_of_two_dimension(pre.size, "weight vector")
        arr, integral = _normalize_real_vector(pre, "weight vector")
        if integral:
            _guard_accumulation(arr, "weight")
        arr.flags.writeable = False
        return cls(d=d, values=arr, integral=integral)


def as_weight_vector(z) -> WeightVector:
    return z if isinstance(z, WeightVector) else WeightVector.from_values(z)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues indexed by group character; values[k] belongs to character k."""

    d: int
    values: np.ndarray
    integral: bool

    @property
    def n(self) -> int:
        return 1 << self.d

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        pre = np.asarray(values)
        if pre.ndim != 1:
            raise DimensionMismatchError(
                f"spectrum must be one-dimensional, got shape {pre.shape}"
            )
        d = _power_of_two_dimension(pre.size, "spectrum")
        arr, integral = _normalize_real_vector(pre, "spectrum")
        if integral and arr.size:
            # Differences of eigenvalues must stay inside int64.
            if arr.max() > _INT64_MAX // 2 or arr.min() < -(_INT64_MAX // 2):
                raise OverflowGuardError(
                    "spectrum entries exceed half the 64-bit range; differences would wrap"
                )
        arr.flags.writeable = False
        return cls(d=d, values=arr, integral=integral)


def as_spectrum(x) -> Spectrum:
    return x if isinstance(x, Spectrum) else Spectrum.from_values(x)


def _guard_accumulation(work: np.ndarray, what: str) -> None:
    """Refuse int64 inputs whose length-n signed sums could wrap."""
    n = work.size
    if n < 2:
        return
    limit = _INT64_MAX // n
    if work.max() > limit or work.min() < -limit:
        raise OverflowGuardError(
            f"max |{what}| exceeds {limit} for length {n}; "
            "64-bit accumulation would overflow"
        )


def _transform_last_axis(work: np.ndarray) -> np.ndarray:
    """In-place size-doubling butterfly along the last axis (length 2**d)."""
    n = work.shape[-1]
    half = 1
    while half < n:
        blocks = work.reshape(work.shape[:-1] + (n // (2 * half), 2, half))
        top = blocks[..., 0, :] + blocks[..., 1, :]
        bottom = blocks[..., 0, :] - blocks[..., 1, :]
        blocks[..., 0, :] = top
        blocks[..., 1, :] = bottom
        half *= 2
    return work


def fwht(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2**d sequence.

    out[k] = sum_l (-1)**popcount(k AND l) * v[l]. Self-inverse up to the
    factor n: fwht(fwht(v)) == n * v. Integer inputs are transformed in
    exact int64 arithmetic; a guard raises instead of wrapping when the
    accumulation bound n * max|v| would exceed the 64-bit range. Float
    inputs are summed in float64, so a weight below the rounding step of a
    much larger one is absorbed: 1e300, 1, 1, 1 transforms exactly like
    1e300, 0, 0, 0.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"fwht expects a one-dimensional sequence, got shape {arr.shape}")
    n = arr.size
    if n == 0 or n & (n - 1):
        raise DimensionMismatchError(f"fwht length must be a power of two, got {n}")
    work, integral = _normalize_real_vector(arr, "fwht input")
    if integral:
        _guard_accumulation(work, "entry")
        return _transform_last_axis(np.ascontiguousarray(work))
    with np.errstate(over="ignore", invalid="ignore"):
        out = _transform_last_axis(np.ascontiguousarray(work))
    if not np.isfinite(out).all():
        raise OverflowGuardError("float transform overflowed the float64 range")
    return out


def eigenvalues_from_weights(z) -> Spectrum:
    """Exact spectrum of the weighted cubelike graph generated by z."""
    wv = as_weight_vector(z)
    return Spectrum.from_values(fwht(wv.values))


def xor_circulant(kernel: np.ndarray) -> np.ndarray:
    """Read-only dense matrix M[i][j] = kernel[i ^ j] (limited to d <= 13).

    Every adjacency matrix and every walk U(t) of a cubelike graph has
    this form, so a length-n kernel describes each one completely; this is
    the one place where such a kernel becomes an n x n array.
    """
    n = kernel.shape[0]
    check_dimension(n.bit_length() - 1, DENSE_DIMENSION_LIMIT)
    idx = np.arange(n, dtype=np.int32)
    m = kernel[np.bitwise_xor.outer(idx, idx)]
    m.flags.writeable = False
    return m


def adjacency_from_weights(z) -> np.ndarray:
    """Read-only dense adjacency matrix A[i][j] = z[i ^ j] (limited to d <= 13)."""
    return xor_circulant(as_weight_vector(z).values)
