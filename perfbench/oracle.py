"""Reference answers built without the package's transform.

Every check in the benchmark compares the package's output with a value
computed here. Nothing in this module imports cubelike: the Walsh
spectrum comes from the benchmark's own Sylvester Hadamard matrices, and
sigma from the XOR of the indices that carry odd weight.

Sylvester's H_d is the Kronecker product H_hi (x) H_lo for any split
d = hi + lo, because popcount(i AND j) splits over the high and low bits of
i and j. A length-2**d vector reshaped to (2**hi, 2**lo) therefore has the
spectrum H_hi @ Z @ H_lo, which keeps the reference matrices at most
2**ceil(d/2) wide.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def sylvester(d: int) -> np.ndarray:
    """Unnormalized Walsh-Hadamard matrix of order 2**d, by Kronecker doubling."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(d):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _split(d: int) -> tuple[int, int]:
    lo = d // 2
    return d - lo, lo


def walsh_spectrum(values: np.ndarray) -> np.ndarray:
    """Full spectrum out[k] = sum_l (-1)**popcount(k AND l) * values[l]."""
    n = values.size
    hi, lo = _split(n.bit_length() - 1)
    z = values.reshape(1 << hi, 1 << lo)
    return (sylvester(hi) @ z @ sylvester(lo)).reshape(n)


def walsh_entries(values: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Selected spectrum entries by direct signed sums, O(n) per entry."""
    n = values.size
    hi, lo = _split(n.bit_length() - 1)
    z = values.reshape(1 << hi, 1 << lo)
    ks = np.asarray(ks, dtype=np.int64)
    sign_lo = _signs(np.arange(1 << lo), ks & ((1 << lo) - 1))
    sign_hi = _signs(np.arange(1 << hi), ks >> lo)
    return (sign_hi * (z @ sign_lo)).sum(axis=0)


def _signs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    parity = np.bitwise_count(np.bitwise_and.outer(rows, cols)) & 1
    return 1 - 2 * parity.astype(np.int64)


def sigma_by_xor(values: np.ndarray) -> int:
    """XOR of the indices l whose weight values[l] is odd."""
    idx = np.arange(values.size, dtype=np.int64)
    return int(np.bitwise_xor.reduce(idx[(values & 1) == 1], initial=0))


def transfer_pairs(n: int, sigma: int) -> np.ndarray:
    """Rows (u, u ^ sigma) with u < u ^ sigma, ascending in u."""
    idx = np.arange(n, dtype=np.int64)
    lower = idx[idx < (idx ^ sigma)]
    return np.stack((lower, lower ^ sigma), axis=1)


def adjacency(values: np.ndarray) -> np.ndarray:
    """Dense A[i][j] = values[i ^ j]."""
    idx = np.arange(values.size)
    return values[np.bitwise_xor.outer(idx, idx)]


def transition_column(values: np.ndarray, t: float, c: int) -> np.ndarray:
    """Column c of U(t) = exp(i t A): (1/n) H diag(exp(i t lambda)) H e_c."""
    n = values.size
    lam = walsh_spectrum(values).astype(np.float64)
    sign_c = _signs(np.arange(n), np.array([c]))[:, 0]
    return walsh_spectrum(sign_c * np.exp(1j * t * lam)) / n
