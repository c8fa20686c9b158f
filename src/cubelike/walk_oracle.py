"""The continuous-time walk U(t) = exp(i t A), by two independent routes.

Every U(t) is XOR-circulant, U[u][v] = g[u ^ v], so a length-n kernel g
describes it completely. The spectral route takes g = fwht(exp(i t lambda))
/ n, one length-n transform, O(n log n); transition_spectral spreads it
into the dense matrix with an n^2 gather. At the critical time t = pi/2
with integer eigenvalues the phases are reduced mod 4 and taken from
{1, i, -1, -i} exactly, which removes all trigonometric rounding from
the transfer entries.

verify_result checks a classification against two kernels of U(pi/2)
and builds no n x n array. The second kernel multiplies out
A = sum_h z[h] P_h, a sum of commuting XOR shifts with P_h^2 = I, as
exp(i t A) = prod_h (cos(t z[h]) I + i sin(t z[h]) P_h) on a kernel:
O(n^2), with no transform, no eigenbasis and no series truncation, so
the two kernels check each other. PairCheck keeps its field name
fidelity_series, which JSON output and the benchmark read; it holds the
product-formula kernel. transition_taylor, a scaling-and-squaring Taylor
series of dense matrix products, stays the generic oracle for any
symmetric matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolean_domain import _is_integer
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


def _spectral_kernel(wv, t: float) -> np.ndarray:
    """Kernel g = fwht(exp(i t lambda)) / n of U(t), with lambda = fwht(z)."""
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
    return _transform_last_axis(phases) / wv.n


def _product_kernel(wv, t: float) -> np.ndarray:
    """Kernel of U(t) = prod_h (cos(t z[h]) I + i sin(t z[h]) P_h).

    P_h is the XOR shift (P_h g)[k] = g[k ^ h]. Starts from the identity's
    kernel delta_0 and applies one factor per nonzero weight, O(n) each:
    no transform, no eigenbasis, no truncation.
    """
    angle = t * wv.values.astype(np.float64)
    # Python scalars: a numpy scalar per factor would cost more than its O(n) update.
    cos = np.cos(angle).tolist()
    i_sin = (1j * np.sin(angle)).tolist()
    idx = np.arange(wv.n)
    g = np.zeros(wv.n, dtype=np.complex128)
    g[0] = 1.0
    for h in np.flatnonzero(wv.values).tolist():
        shifted = g[idx ^ h]
        shifted *= i_sin[h]
        g *= cos[h]
        g += shifted
    return g


def transition_spectral(z, t: float) -> TransitionMatrix:
    """U(t) through the shared eigenbasis of all cubelike adjacencies.

    U[u][v] = g[u ^ v] with kernel g = fwht(exp(i t lambda)) / n and
    lambda = fwht(z): two length-n transforms, O(n log n), then an n^2
    gather into the dense matrix, which is symmetric by construction.
    Limited to d <= 13 (dense output). A time so large that t * lambda
    leaves the float64 range raises DomainError.

    Accuracy: the angles t * lambda carry a rounding error of up to
    |t| * sum|z| * 2**-53, so for integer weights every entry is good to
    about |t| * sum|z| * 2**-52 (the product-formula kernel agrees within
    that bound for |t| * sum|z| from 1e2 to 1e14). Past |t| * sum|z| ~ 2**52
    the phases are rounding noise; no error is raised for it.
    """
    wv = as_weight_vector(z)
    t = float(t)
    return TransitionMatrix(time=t, matrix=xor_circulant(_spectral_kernel(wv, t)))


def transition_taylor(a, t: float) -> TransitionMatrix:
    """Independent oracle: exp(i t A) by scaling-and-squaring a Taylor series.

    Accepts any symmetric real matrix up to SERIES_SIZE_LIMIT rows — no
    transform, no eigenbasis, only matrix products — with target accuracy
    around 1e-10 against the true exponential. A product t * A too large
    for float64 raises DomainError instead of returning NaN. Its rounding
    drift grows faster with |t| * ||A||_1 than the spectral route's: on
    C4 at t = 1e15 the result is 0.46 away from unitary, with no error.
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
    if not (_is_integer(u) and _is_integer(v)):
        raise DimensionMismatchError(f"vertex indices must be integers, got ({u!r}, {v!r})")
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


def verify_result(z, result: PstResult) -> VerificationReport:
    """Check a classification against two independent kernels of U(pi/2).

    Compares the spectral kernel with the product-formula kernel (see the
    module docstring); both are length n, and no n x n array is built.
    Every column of an XOR-circulant matrix is a permutation of its
    kernel g, so each claimed pair (or every diagonal entry, if periodic)
    has fidelity |g[sigma]|, which must reach 1 - 1e-9 on both kernels;
    the leakage max_{h not in {0, sigma}} |g[h]| must stay below 1e-6 on
    both; and the kernels must agree within 1e-8 entrywise, which is the
    elementwise agreement of the two matrices. fidelity_series keeps its
    name for JSON readers and holds the product-formula route. Raises
    VerificationError (with the report attached) when any check fails.
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
    sigma = result.sigma.bits
    spectral = _spectral_kernel(wv, TRANSFER_TIME)
    product = _product_kernel(wv, TRANSFER_TIME)
    route_delta = float(np.abs(spectral - product).max())

    outside = np.ones(wv.n, dtype=bool)
    outside[[0, sigma]] = False
    f_spec = float(abs(spectral[sigma]))
    f_ser = float(abs(product[sigma]))
    leak = float(max(np.abs(spectral[outside]).max(initial=0.0),
                     np.abs(product[outside]).max(initial=0.0)))
    ok_pair = f_spec >= PST_THRESHOLD and f_ser >= PST_THRESHOLD and leak <= LEAKAGE_LIMIT

    if result.pairs is None:
        pair_list = [(u, u) for u in range(wv.n)]
    else:
        pair_list = result.pairs.tolist()
    checks = [PairCheck(u, v, f_spec, f_ser, leak, ok_pair) for u, v in pair_list]

    ok_all = route_delta <= ROUTE_AGREEMENT and ok_pair
    report = VerificationReport(
        sigma=sigma,
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
        if not ok_pair:
            # Every pair reads the same two kernel entries, so one line says it all.
            complaints.append(
                f"{len(checks)} of {len(checks)} pairs fail: fidelity {f_spec:.12f} / "
                f"{f_ser:.12f}, leakage {leak:.3e}"
            )
        raise VerificationError(
            "verification failed:\n  " + "\n  ".join(complaints), report=report
        )
    return report
