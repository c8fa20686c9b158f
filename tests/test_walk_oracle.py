import math

import numpy as np
import pytest

import cubelike.walk_oracle as walk_oracle
from cubelike.boolean_domain import GroupElement, sign_matrix
from cubelike.exceptions import (
    DimensionMismatchError,
    DomainError,
    ResourceLimitError,
    StructureError,
    VerificationError,
)
from cubelike.fixtures import REFERENCE_TABLE
from cubelike.pst_analyzer import PstResult, TransferKind, classify
from cubelike.spectral_engine import adjacency_from_weights, as_weight_vector
from cubelike.walk_oracle import (
    _product_kernel,
    _spectral_kernel,
    fidelity,
    transition_spectral,
    transition_taylor,
    verify_result,
)

C4 = [0, 1, 1, 0]


def c4_expected_transfer():
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        out[i, 3 - i] = -1.0
    return out


# ---------------------------------------------------------------------------
# transition_spectral
# ---------------------------------------------------------------------------

def test_spectral_cycle_graph_at_quarter_period():
    u = transition_spectral(C4, math.pi / 2)
    assert np.abs(u.matrix - c4_expected_transfer()).max() <= 1e-12


def test_spectral_time_zero_is_identity():
    u = transition_spectral([0, 5, -3, 2, 7, 0, 0, 1], 0.0)
    assert np.abs(u.matrix - np.eye(8)).max() <= 1e-12


def test_spectral_single_edge_matches_closed_form():
    # K2: exp(i t X) = cos(t) I + i sin(t) X
    t = math.pi / 2
    u = transition_spectral([0, 1], t)
    expected = np.array(
        [
            [math.cos(t), 1j * math.sin(t)],
            [1j * math.sin(t), math.cos(t)],
        ]
    )
    assert np.abs(u.matrix - expected).max() <= 1e-12
    assert abs(u.matrix[0, 0]) <= 1e-12
    assert abs(abs(u.matrix[1, 0]) - 1.0) <= 1e-12


def test_spectral_matches_dense_eigendecomposition():
    # U(t) = H diag(exp(i t lambda)) H / n with the dense sign matrix H,
    # a reference that runs no butterfly transform.
    rng = np.random.default_rng(43)
    for d in range(1, 8):
        n = 1 << d
        h = sign_matrix(d).astype(np.float64)
        z_int = rng.integers(-100, 101, size=n)
        z_float = rng.uniform(-3.0, 3.0, size=n)
        for z, t in ((z_int, math.pi / 2), (z_int, float(rng.uniform(0, 7))), (z_float, 0.9)):
            lam = h @ np.asarray(z, dtype=np.float64)
            expected = (h * np.exp(1j * t * lam)) @ h / n
            assert np.abs(transition_spectral(z, t).matrix - expected).max() <= 1e-12


def test_spectral_dimension_cap():
    with pytest.raises(ResourceLimitError):
        transition_spectral(np.zeros(1 << 14, dtype=np.int64), 1.0)


def test_spectral_rejects_non_finite_time():
    with pytest.raises(DomainError):
        transition_spectral(C4, math.inf)


def test_spectral_huge_time_is_domain_error():
    # t * lambda overflows float64; must fail loudly, not return NaN.
    with pytest.raises(DomainError, match="float64 range"):
        transition_spectral(C4, 1e308)


def test_spectral_accepts_real_weights():
    u = transition_spectral([0.0, 0.5, 0.5, 0.0], 0.7)
    assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(4)).max() <= 1e-12


# ---------------------------------------------------------------------------
# transition_taylor
# ---------------------------------------------------------------------------

def test_taylor_zero_matrix_is_identity():
    u = transition_taylor(np.zeros((4, 4)), 2.3)
    assert np.array_equal(u.matrix, np.eye(4, dtype=complex))


def test_taylor_cycle_graph_at_quarter_period():
    u = transition_taylor(adjacency_from_weights(C4), math.pi / 2)
    assert np.abs(u.matrix - c4_expected_transfer()).max() <= 1e-10


def test_taylor_accepts_generic_symmetric_matrix():
    # size 3 (not a power of two): still a valid symmetric exponential
    a = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 1.0]])
    u = transition_taylor(a, 0.9).matrix
    assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-10


def test_taylor_rejects_asymmetric_matrix():
    with pytest.raises(StructureError):
        transition_taylor(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_taylor_size_cap():
    with pytest.raises(ResourceLimitError):
        transition_taylor(np.zeros((2048, 2048)), 1.0)


@pytest.mark.parametrize("t", [1e100, 8e307, 1e308])
def test_taylor_huge_time_is_domain_error(t):
    # 1e100 overflows the squarings, 8e307 the scaling, 1e308 t * A itself.
    with pytest.raises(DomainError):
        transition_taylor(adjacency_from_weights(C4), t)


def test_routes_agree_on_random_graphs():
    rng = np.random.default_rng(51)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        z = rng.integers(-100, 101, size=1 << d)
        t = float(rng.uniform(0, 2 * math.pi))
        a = transition_spectral(z, t).matrix
        b = transition_taylor(adjacency_from_weights(z), t).matrix
        assert np.abs(a - b).max() <= 1e-8


def test_spectral_accuracy_bound_for_large_times():
    # Documented in transition_spectral: for integer weights the routes agree
    # within |t| * sum|z| * 2**-52, here checked from 1e2 to 1e14.
    rng = np.random.default_rng(83)
    for scale in np.logspace(2, 14, 13):
        for d in range(1, 8):
            z = rng.integers(-1000, 1001, size=1 << d)
            z[1] = 7  # sum|z| > 0
            norm = float(np.abs(z).sum())
            t = float(scale / norm * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
            wv = as_weight_vector(z)
            delta = np.abs(_spectral_kernel(wv, t) - _product_kernel(wv, t)).max()
            assert delta <= abs(t) * norm * 2.0**-52


# ---------------------------------------------------------------------------
# _product_kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [math.pi / 2, 0.3, 1.7])
def test_product_kernel_matches_taylor_row(t):
    # Same random graphs as test_routes_agree_on_random_graphs; row 0 of an
    # XOR-circulant U(t) is its kernel.
    rng = np.random.default_rng(51)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        z = rng.integers(-100, 101, size=1 << d)
        rng.uniform(0, 2 * math.pi)  # that test's t; keeps the stream in step
        row = transition_taylor(adjacency_from_weights(z), t).matrix[0]
        assert np.abs(_product_kernel(as_weight_vector(z), t) - row).max() <= 1e-8


def test_product_kernel_matches_spectral_on_reference_rows():
    for case in REFERENCE_TABLE:
        wv = as_weight_vector(list(case.weights))
        delta = np.abs(_product_kernel(wv, math.pi / 2) - _spectral_kernel(wv, math.pi / 2))
        assert delta.max() <= 1e-12


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_cycle_graph_pair():
    u = transition_spectral(C4, math.pi / 2)
    assert fidelity(u, 0, 3) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_identity_at_time_zero():
    u = transition_spectral([0, 7, -2, 9], 0.0)
    for v in range(4):
        assert fidelity(u, v, v) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_reference_row_5_pair():
    z = [0, -72, 38, 93, 100, -86, -91, -42]
    u = transition_spectral(z, math.pi / 2)
    assert fidelity(u, 0, 5) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_index_out_of_range():
    u = transition_spectral(C4, 1.0)
    with pytest.raises(IndexError):
        fidelity(u, 0, 4)


@pytest.mark.parametrize("u, v", [(0.9, 3), (True, 3), ("3", 0), (0, 3.0), (0, False)])
def test_fidelity_rejects_non_integer_vertex(u, v):
    # int() would read vertex 0, 1 and 3 here: a silent wrong answer.
    walk = transition_spectral(C4, math.pi / 2)
    with pytest.raises(DimensionMismatchError):
        fidelity(walk, u, v)


def test_fidelity_accepts_numpy_integers():
    walk = transition_spectral(C4, math.pi / 2)
    assert fidelity(walk, np.int64(0), np.uint8(3)) == fidelity(walk, 0, 3)


# ---------------------------------------------------------------------------
# structural invariants of U(t)
# ---------------------------------------------------------------------------

def test_unitarity_symmetry_composition_random():
    rng = np.random.default_rng(61)
    for _ in range(10):
        d = int(rng.integers(1, 7))
        n = 1 << d
        z = rng.integers(-50, 51, size=n)
        t1 = float(rng.uniform(0, 2 * math.pi))
        t2 = float(rng.uniform(0, 2 * math.pi))
        u1 = transition_spectral(z, t1).matrix
        u2 = transition_spectral(z, t2).matrix
        u12 = transition_spectral(z, t1 + t2).matrix
        assert np.abs(u1 @ u1.conj().T - np.eye(n)).max() <= 1e-9
        assert np.abs(u1 - u1.T).max() <= 1e-9
        assert np.abs(u1 @ u2 - u12).max() <= 1e-8


def test_reciprocity_is_exact():
    rng = np.random.default_rng(67)
    z = rng.integers(-50, 51, size=16)
    u = transition_spectral(z, 0.813)
    for a in range(16):
        for b in range(16):
            assert fidelity(u, a, b) == fidelity(u, b, a)


def test_periodicity_doubling():
    # transfer at tau implies return at 2 tau
    for z in ([0, 1, -7, -10], [0, 3, 1, 4, -6, 0, -1, 10]):
        result = classify(z)
        assert result.pairs is not None
        u2 = transition_spectral(z, math.pi).matrix
        for v in range(len(z)):
            assert abs(abs(u2[v, v]) - 1.0) <= 1e-8


def test_column_normalization():
    rng = np.random.default_rng(71)
    z = rng.integers(-80, 81, size=32)
    u = transition_spectral(z, 1.234).matrix
    sums = np.abs(u) ** 2
    assert np.abs(sums.sum(axis=0) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# verify_result
# ---------------------------------------------------------------------------

def test_verify_all_reference_rows():
    for case in REFERENCE_TABLE:
        result = classify(list(case.weights))
        report = verify_result(list(case.weights), result)
        assert report.ok
        assert report.route_delta <= 1e-8


@pytest.mark.parametrize("seed", [4, 5])
def test_verify_passes_true_claim_with_large_weights(seed):
    # A dense n x n series oracle reached fidelity 0.99999999865 here and
    # failed these true claims against the unchanged 1 - 1e-9 threshold.
    z = np.random.default_rng(seed).integers(-10**4, 10**4 + 1, 1024)
    report = verify_result(z, classify(z))
    assert report.ok
    assert report.route_delta <= 1e-8
    assert min(c.fidelity_series for c in report.checks) >= 1 - 1e-9


def test_verify_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_result built a dense matrix")

    monkeypatch.setattr(walk_oracle, "xor_circulant", refuse)
    monkeypatch.setattr(walk_oracle, "transition_taylor", refuse)
    cases = [list(case.weights) for case in REFERENCE_TABLE]
    cases.append(np.random.default_rng(89).integers(-50, 51, 1 << 10))
    for z in cases:
        assert verify_result(z, classify(z)).ok


def wrong_sigma_result(z):
    """A PST claim whose sigma is off by one bit, with a well-formed partition."""
    n = len(z)
    good = classify(z).sigma.bits
    bits = good ^ 1 if good ^ 1 else 2
    idx = np.arange(n)
    lower = idx[idx < (idx ^ bits)]
    return PstResult(
        sigma=GroupElement(bits, n.bit_length() - 1),
        kind=TransferKind.PERFECT_STATE_TRANSFER,
        pairs=np.stack((lower, lower ^ bits), axis=1),
    )


def test_verify_catches_corrupted_sigma():
    z = [0, 3, 1, 4, -6, 0, -1, 10]
    with pytest.raises(VerificationError) as excinfo:
        verify_result(z, wrong_sigma_result(z))
    assert excinfo.value.report is not None
    assert not excinfo.value.report.ok


def test_verify_failure_message_is_one_summary_line_at_d10():
    # Every pair of an XOR-circulant U(pi/2) has the same fidelity and
    # leakage; one line per pair made this message 513 lines long.
    z = np.random.default_rng(10).integers(-50, 51, 1 << 10)
    with pytest.raises(VerificationError) as excinfo:
        verify_result(z, wrong_sigma_result(z))
    message = str(excinfo.value)
    assert len(message.splitlines()) <= 3
    assert "512 of 512 pairs fail" in message
    assert "routes disagree" not in message
    report = excinfo.value.report
    assert report is not None and not report.ok
    assert len(report.checks) == 512


def test_verify_failure_message_keeps_route_disagreement(monkeypatch):
    product = walk_oracle._product_kernel

    def nudged(wv, t):
        return product(wv, t) + 1e-7

    monkeypatch.setattr(walk_oracle, "_product_kernel", nudged)
    z = [0, 3, 1, 4, -6, 0, -1, 10]
    with pytest.raises(VerificationError) as excinfo:
        verify_result(z, classify(z))
    lines = str(excinfo.value).splitlines()
    assert len(lines) == 2
    assert "routes disagree" in lines[1]
    assert excinfo.value.report.route_delta > walk_oracle.ROUTE_AGREEMENT


def test_verify_with_loops_still_passes():
    z = [5, 1, -7, -10]  # loop weight only shifts the global phase
    result = classify(z)
    report = verify_result(z, result)
    assert report.ok
    base = classify([0, 1, -7, -10])
    assert result.sigma == base.sigma


def test_verify_rejects_non_integer_weights():
    result = classify([0, 1, 1, 0])
    with pytest.raises(DomainError):
        verify_result([0.0, 0.5, 0.5, 0.0], result)


def test_verify_periodic_checks_diagonal():
    z = [0, 2, 3, 4, 5, 6, 5, 4]
    result = classify(z)
    report = verify_result(z, result)
    assert report.ok
    assert len(report.checks) == 8
    assert all(c.u == c.v for c in report.checks)
