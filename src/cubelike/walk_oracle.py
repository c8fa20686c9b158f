"""Transition matrices of the continuous-time walk, by two independent routes.

transition_spectral evaluates U(t) = exp(i t A) through the eigenbasis.
Like A, U(t) is XOR-circulant, U[u][v] = g[u ^ v], and its kernel
g = fwht(exp(i t lambda)) / n costs one length-n transform, O(n log n),
plus the n^2 gather that spreads g into the dense matrix.
transition_taylor evaluates the same exponential by scaling-and-squaring
a truncated series of dense matrix products and deliberately shares no
transform with the spectral route, so the two can cross-check each
other. At the critical time t = pi/2 with integer eigenvalues the
spectral phases are reduced mod 4 and taken from {1, i, -1, -i} exactly,
which removes all trigonometric rounding from the transfer entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    DomainError,
    ResourceLimitError,
    StructureError,
    VerificationError,
)
from .pst_analyzer import TRANSFER_TIME, PstResult, TransferKind
from .spectral_engine import (
    _transform_last_axis,
    adjacency_from_weights,
    as_weight_vector,
    fwht,
    xor_circulant,
)

SERIES_DIMENSION_LIMIT = 10
SERIES_SIZE_LIMIT = 1 << SERIES_DIMENSION_LIMIT

PST_THRESHOLD = 1.0 - 1e-9
LEAKAGE_LIMIT = 1e-6
ROUTE_AGREEMENT = 1e-8
_SERIES_NORM_LIMIT = 2.0**1000

# i**k for k = 0..3: the exact phases exp(i * pi/2 * lambda) of integer lambda.
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


@dataclass(frozen=True)
class TransitionMatrix:
    """U(t) = exp(i t A); unitary, symmetric, and U(t1) U(t2) = U(t1 + t2)."""

    time: float
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def transition_spectral(z, t: float) -> TransitionMatrix:
    """U(t) through the shared eigenbasis of all cubelike adjacencies.

    U[u][v] = g[u ^ v] with kernel g = fwht(exp(i t lambda)) / n and
    lambda = fwht(z): two length-n transforms, O(n log n), then an n^2
    gather into the dense matrix, which is symmetric by construction.
    Limited to d <= 13 (dense output). A time so large that t * lambda
    leaves the float64 range raises DomainError.
    """
    wv = as_weight_vector(z)
    t = float(t)
    if not math.isfinite(t):
        raise DomainError("time must be finite")
    lam = fwht(wv.values)
    if wv.integral and t == TRANSFER_TIME:
        phases = _QUARTER_TURNS[np.mod(lam, 4)]
    else:
        with np.errstate(over="ignore"):
            angle = t * lam.astype(np.float64)
        if not np.isfinite(angle).all():
            raise DomainError(f"t * lambda leaves the float64 range at t = {t!r}")
        phases = np.exp(1j * angle)
    kernel = _transform_last_axis(phases) / wv.n
    return TransitionMatrix(time=t, matrix=xor_circulant(kernel))


def transition_taylor(a, t: float) -> TransitionMatrix:
    """Independent oracle: exp(i t A) by scaling-and-squaring a Taylor series.

    Accepts any symmetric real matrix up to SERIES_SIZE_LIMIT rows — no
    transform, no eigenbasis, only matrix products — with target accuracy
    around 1e-10 against the true exponential. A product t * A too large
    for float64 raises DomainError instead of returning NaN.
    """
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"adjacency must be square, got shape {mat.shape}")
    n = mat.shape[0]
    if n > SERIES_SIZE_LIMIT:
        raise ResourceLimitError(
            f"series exponential limited to {SERIES_SIZE_LIMIT} vertices "
            f"(d <= {SERIES_DIMENSION_LIMIT}), got {n}"
        )
    t = float(t)
    if not math.isfinite(t):
        raise DomainError("time must be finite")
    scale = 1.0 + float(np.abs(mat).max()) if n else 1.0
    if n and float(np.abs(mat - mat.T).max()) > 1e-9 * scale:
        raise StructureError("adjacency matrix must be symmetric")
    with np.errstate(over="ignore"):
        b = 1j * t * mat.astype(np.complex128)
        norm1 = float(np.abs(b).sum(axis=0).max()) if n else 0.0
    # Keeps the scaling factor 2**squarings inside the float64 range.
    if not norm1 <= _SERIES_NORM_LIMIT:
        raise DomainError(f"|t| * ||A||_1 = {norm1:.3e} is too large for the series exponential")
    squarings = 0 if norm1 <= 0.5 else int(math.ceil(math.log2(norm1 / 0.5)))
    c = b / (2.0**squarings)
    total = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 64):
            term = term @ c / k
            total += term
            if float(np.abs(term).max()) <= 1e-17 * max(1.0, float(np.abs(total).max())):
                break
        for _ in range(squarings):
            total = total @ total
    if not np.isfinite(total).all():
        raise DomainError("series exponential overflowed; t * A is too large")
    u = 0.5 * (total + total.T)
    u.flags.writeable = False
    return TransitionMatrix(time=t, matrix=u)


def fidelity(transition: TransitionMatrix, u: int, v: int) -> float:
    """Transfer amplitude modulus |U(t)[v][u]| between vertices u and v."""
    n = transition.n
    u = int(u)
    v = int(v)
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"vertex index out of range for {n} vertices: ({u}, {v})")
    return float(abs(transition.matrix[v, u]))


@dataclass(frozen=True)
class PairCheck:
    """Fidelity and leakage evidence for one claimed transfer pair."""

    u: int
    v: int
    fidelity_spectral: float
    fidelity_series: float
    leakage: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    sigma: int
    kind: TransferKind
    time: float
    route_delta: float
    checks: tuple[PairCheck, ...]
    ok: bool


def _column_evidence(matrix: np.ndarray, partner: np.ndarray):
    """Per-column claimed fidelity and worst non-claimed off-diagonal modulus."""
    n = partner.size
    idx = np.arange(n)
    mags = np.abs(matrix)
    claimed = mags[partner, idx]
    mask = np.ones_like(mags, dtype=bool)
    mask[partner, idx] = False
    mask[idx, idx] = False
    leakage = np.where(mask, mags, 0.0).max(axis=0) if n > 1 else np.zeros(n)
    return claimed, leakage


def verify_result(z, result: PstResult) -> VerificationReport:
    """Check a classification against both transition-matrix routes.

    Builds U(pi/2) spectrally and by the series oracle, then requires
    every claimed pair (or every diagonal entry, if periodic) to reach
    fidelity >= 1 - 1e-9 on both, every other off-diagonal entry of the
    involved columns to stay below 1e-6, and the two routes to agree
    within 1e-8 elementwise. Raises VerificationError (with the report
    attached) when any check fails.
    """
    wv = as_weight_vector(z)
    if not wv.integral:
        raise DomainError("verification needs integer weights")
    if wv.d > SERIES_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"verification limited to d <= {SERIES_DIMENSION_LIMIT}, got {wv.d}"
        )
    if result.sigma.dim != wv.d:
        raise DimensionMismatchError(
            f"result has dimension {result.sigma.dim}, weights have {wv.d}"
        )
    spectral = transition_spectral(wv, TRANSFER_TIME)
    series = transition_taylor(adjacency_from_weights(wv), TRANSFER_TIME)
    route_delta = float(np.abs(spectral.matrix - series.matrix).max())

    n = wv.n
    idx = np.arange(n)
    partner = np.bitwise_xor(idx, result.sigma.bits)
    fid_spec, leak_spec = _column_evidence(spectral.matrix, partner)
    fid_ser, leak_ser = _column_evidence(series.matrix, partner)

    if result.pairs is None:
        pair_list = [(int(u), int(u)) for u in idx]
    else:
        pair_list = [(int(u), int(v)) for u, v in result.pairs]

    checks = []
    for u, v in pair_list:
        f_spec = float(min(fid_spec[u], fid_spec[v]))
        f_ser = float(min(fid_ser[u], fid_ser[v]))
        leak = float(max(leak_spec[u], leak_spec[v], leak_ser[u], leak_ser[v]))
        ok = f_spec >= PST_THRESHOLD and f_ser >= PST_THRESHOLD and leak <= LEAKAGE_LIMIT
        checks.append(PairCheck(u, v, f_spec, f_ser, leak, ok))

    ok_all = route_delta <= ROUTE_AGREEMENT and all(c.ok for c in checks)
    report = VerificationReport(
        sigma=result.sigma.bits,
        kind=result.kind,
        time=TRANSFER_TIME,
        route_delta=route_delta,
        checks=tuple(checks),
        ok=ok_all,
    )
    if not ok_all:
        complaints = []
        if route_delta > ROUTE_AGREEMENT:
            complaints.append(f"routes disagree: max |delta| = {route_delta:.3e}")
        for c in checks:
            if not c.ok:
                complaints.append(
                    f"pair ({c.u}, {c.v}): fidelity {c.fidelity_spectral:.12f} / "
                    f"{c.fidelity_series:.12f}, leakage {c.leakage:.3e}"
                )
        raise VerificationError(
            "verification failed:\n  " + "\n  ".join(complaints), report=report
        )
    return report
