"""Classification of integer-weighted cubelike graphs at t = pi/2.

Every integer weight vector yields a graph that either admits perfect
state transfer at t = pi/2 or is periodic with period dividing pi/2. The
transfer offset sigma is read off eigenvalue parities: bit j of sigma is
set exactly when half the difference between the eigenvalue at character
index 2**j and the eigenvalue at index 0 is odd. A nonzero sigma splits
the vertex set into n/2 transfer pairs {u, u ^ sigma}; sigma = 0 means
every vertex returns to itself. The same offset is also computed directly
from the weights (it is the XOR of the indices l where z[l] is odd), and
classify cross-checks the two routes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .boolean_domain import GroupElement
from .exceptions import ConsistencyError, DimensionMismatchError, DomainError, ParityError
from .spectral_engine import Spectrum, as_spectrum, as_weight_vector, eigenvalues_from_weights

TRANSFER_TIME = math.pi / 2


class TransferKind(enum.Enum):
    PERIODIC = "periodic"
    PERFECT_STATE_TRANSFER = "perfect_state_transfer"


@dataclass(frozen=True)
class PstResult:
    """Outcome of classify: periodic, or PST with the full pair partition.

    kind is PERIODIC exactly when sigma is the zero element; otherwise
    pairs holds n/2 integer rows (u, u ^ sigma) covering every vertex
    once. sigma fixes the partition, so equality and hashing look at sigma
    and kind only. spectrum is the Spectrum that classify computed on the
    way, or None for a result built by hand.
    """

    sigma: GroupElement
    kind: TransferKind
    pairs: np.ndarray | None = field(compare=False)
    spectrum: Spectrum | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.sigma, GroupElement):
            raise DimensionMismatchError("sigma must be a GroupElement")
        n = 1 << self.sigma.dim
        if self.sigma.bits == 0:
            if self.kind is not TransferKind.PERIODIC:
                raise ConsistencyError("sigma = 0 must classify as periodic")
            if self.pairs is not None:
                raise ConsistencyError("periodic results carry no pair partition")
            return
        if self.kind is not TransferKind.PERFECT_STATE_TRANSFER:
            raise ConsistencyError("nonzero sigma must classify as perfect state transfer")
        arr = np.asarray(self.pairs)
        # A cast to int64 would truncate floats and read bools and numeric strings.
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConsistencyError(f"pair entries must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 2 or arr.shape != (n // 2, 2):
            raise ConsistencyError(
                f"pair partition must have shape ({n // 2}, 2), got {arr.shape}"
            )
        # Range first: a negative index would otherwise wrap in the marks below.
        if arr.min() < 0 or arr.max() >= n:
            raise ConsistencyError(
                f"pairs must cover every vertex exactly once; entries must lie in 0..{n - 1}"
            )
        if np.any(np.bitwise_xor(arr[:, 0], arr[:, 1]) != self.sigma.bits):
            raise ConsistencyError("every pair must satisfy u ^ v == sigma")
        # n entries that mark all n vertices cover each of them exactly once.
        marked = np.zeros(n, dtype=bool)
        marked[arr.ravel()] = True
        if not marked.all():
            raise ConsistencyError("pairs must cover every vertex exactly once")
        arr = np.array(arr, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "pairs", arr)

    @property
    def n(self) -> int:
        return 1 << self.sigma.dim


def sigma_from_spectrum(spectrum) -> GroupElement:
    """Transfer offset from an integer spectrum.

    Requires every difference lambda[k] - lambda[0] to be even. After the
    d defining bits are read at indices 2**j, the parity pattern of all n
    halved differences is checked against the character of sigma; a
    mismatch means the spectrum is not the transform of any integer weight
    vector.
    """
    spec = as_spectrum(spectrum)
    if not spec.integral:
        raise DomainError("classification needs an integer spectrum")
    lam = spec.values
    # (lam - lam[0]) mod 4 from the low bytes: 4 divides 256, and one byte
    # per entry keeps every pass below cheap.
    low = lam.astype(np.uint8)
    low -= low[0]
    low &= 3
    odd = low & 1
    if odd.any():
        k = int(np.argmax(odd))
        raise ParityError(
            f"eigenvalue difference at index {k} is odd ({int(lam[k]) - int(lam[0])}); "
            "not the spectrum of an integer weight vector"
        )
    # Every entry is now 0 or 2: twice the parity of the halved difference.
    powers = np.int64(1) << np.arange(spec.d, dtype=np.int64)
    sigma = int((low[powers] >> 1) @ powers)
    # 2 * chi_sigma[k] = 2 * (popcount(k & sigma) mod 2), built by doubling:
    # entries 2**j .. 2**(j+1) - 1 are the first 2**j, flipped when bit j of
    # sigma is set.
    wanted = np.zeros(spec.n, dtype=np.uint8)
    for j in range(spec.d):
        size = 1 << j
        np.bitwise_xor(wanted[:size], 2 * (sigma >> j & 1), out=wanted[size : 2 * size])
    bad = low != wanted
    if bad.any():
        k = int(np.argmax(bad))
        raise ConsistencyError(
            f"halved-difference parities do not match any group character "
            f"(first mismatch at index {k}); the spectrum did not come from "
            "an integer weight vector"
        )
    return GroupElement(sigma, spec.d)


def sigma_from_weights(z) -> GroupElement:
    """Transfer offset straight from the weights, no transform needed.

    Bit j of sigma is the parity of the sum of z[l] over indices l whose
    bit j is set, so sigma is the XOR of the indices l where z[l] is odd.
    Agrees with sigma_from_spectrum(fwht(z)) for every integer weight
    vector.
    """
    wv = as_weight_vector(z)
    if not wv.integral:
        raise DomainError("transfer offset needs integer weights")
    # Branch-free masked XOR in the narrowest unsigned type that holds every
    # index: -(z & 1) is all ones where z is odd and 0 where it is even.
    index = np.min_scalar_type(wv.n - 1)
    masked = (wv.values & 1).astype(index)
    np.negative(masked, out=masked)
    masked &= np.arange(wv.n, dtype=index)
    sigma = int(np.bitwise_xor.reduce(masked))
    return GroupElement(sigma, wv.d)


def classify(z) -> PstResult:
    """Decide PST vs periodicity at t = pi/2 and enumerate the pairs.

    sigma is computed along both routes (spectrum parities and weight
    sums) and the two must agree. Pairs are listed with u < u ^ sigma,
    ascending in u, and the spectrum travels with the result. The loop
    weight z[0] shifts every eigenvalue equally, so it never changes the
    outcome.
    """
    wv = as_weight_vector(z)
    if not wv.integral:
        raise DomainError("classification needs integer weights")
    spectrum = eigenvalues_from_weights(wv)
    via_spectrum = sigma_from_spectrum(spectrum)
    via_weights = sigma_from_weights(wv)
    if via_spectrum != via_weights:
        raise ConsistencyError(
            f"sigma routes disagree: spectrum gave {via_spectrum.bits}, "
            f"weights gave {via_weights.bits}"
        )
    sigma = via_spectrum
    if sigma.bits == 0:
        return PstResult(
            sigma=sigma, kind=TransferKind.PERIODIC, pairs=None, spectrum=spectrum
        )
    # u < u ^ sigma exactly when u has the top bit of sigma clear; the k-th
    # such u is k with a zero bit inserted there.
    top = 1 << (sigma.bits.bit_length() - 1)
    lower = np.arange(wv.n // 2, dtype=np.int64)
    lower += lower & -top
    pairs = np.stack((lower, np.bitwise_xor(lower, sigma.bits)), axis=1)
    return PstResult(
        sigma=sigma, kind=TransferKind.PERFECT_STATE_TRANSFER, pairs=pairs, spectrum=spectrum
    )
