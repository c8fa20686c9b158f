import functools
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelike.boolean_domain import GroupElement
from cubelike.exceptions import ConsistencyError, DomainError, ParityError
from cubelike.pst_analyzer import (
    PstResult,
    TransferKind,
    classify,
    sigma_from_spectrum,
    sigma_from_weights,
)
from cubelike.spectral_engine import eigenvalues_from_weights, fwht
from cubelike.walk_oracle import transition_spectral


@st.composite
def integer_weights(draw, max_d=6, bound=500):
    d = draw(st.integers(1, max_d))
    n = 1 << d
    return draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# sigma_from_spectrum
# ---------------------------------------------------------------------------

def test_sigma_from_spectrum_reference_row_d2():
    assert sigma_from_spectrum([-16, 2, 18, -4]).bits == 3


def test_sigma_from_spectrum_periodic_row():
    assert sigma_from_spectrum([29, -3, -3, -3, -11, -3, -7, 1]).bits == 0


def test_sigma_from_spectrum_all_zeros():
    assert sigma_from_spectrum([0, 0, 0, 0]).bits == 0


def test_sigma_from_spectrum_rejects_non_integers():
    with pytest.raises(DomainError):
        sigma_from_spectrum([0.5, 0.5, -0.5, 0.5])


def test_sigma_from_spectrum_rejects_odd_difference():
    with pytest.raises(ParityError):
        sigma_from_spectrum([0, 1, 2, 4])


def test_sigma_from_spectrum_detects_non_character_pattern():
    # integer spectrum, even differences, but its parities fit no character:
    # the generating weights would be [0.5, -0.5, 0.5, -0.5], not integers
    with pytest.raises(ConsistencyError):
        sigma_from_spectrum([0, 2, 0, 0])


def reference_sigma(lam):
    """Loop reference: (error class, index) of the first failure, or (None, sigma)."""
    lam = [int(x) for x in lam]
    diffs = [x - lam[0] for x in lam]
    for k, x in enumerate(diffs):
        if x % 2:
            return ParityError, k
    d = len(lam).bit_length() - 1
    sigma = sum(((diffs[1 << j] // 2) % 2) << j for j in range(d))
    for k, x in enumerate(diffs):
        if (x // 2) % 2 != (k & sigma).bit_count() % 2:
            return ConsistencyError, k
    return None, sigma


def corrupted_spectra(d, seed):
    """A valid spectrum with +1 or +2 at index 0, at powers of two and at the end."""
    n = 1 << d
    base = fwht(np.random.default_rng(seed).integers(-500, 501, n))
    cases = []
    for k in [0, n - 1] + [1 << j for j in range(d)]:
        for delta in (1, 2):
            lam = base.copy()
            lam[k] += delta
            cases.append(lam)
    # Two odd entries: the error must name the first one.
    lam = base.copy()
    lam[n // 2] += 1
    lam[n - 1] += 1
    cases.append(lam)
    return cases


@pytest.mark.parametrize("d", [2, 5, 12])
def test_sigma_from_spectrum_names_the_first_bad_index(d):
    # lam[0] is the reference, so the culprit is never index 0 itself: an odd
    # lam[0] makes index 1 the first odd difference, and +2 at a power of two
    # moves that bit of sigma, so the first mismatch lands past it.
    for lam in corrupted_spectra(d, seed=d):
        error, k = reference_sigma(lam)
        assert error is not None
        with pytest.raises(error) as excinfo:
            sigma_from_spectrum(lam)
        assert re.search(rf"\bindex {k}\b", str(excinfo.value))


def test_sigma_from_spectrum_error_index_positions():
    lam = fwht(np.random.default_rng(2).integers(-500, 501, 64))
    checks = [(0, 1, ParityError, 1), (63, 1, ParityError, 63), (16, 1, ParityError, 16),
              (63, 2, ConsistencyError, 63)]
    for k, delta, error, index in checks:
        bad = lam.copy()
        bad[k] += delta
        with pytest.raises(error, match=rf"index {index}\b"):
            sigma_from_spectrum(bad)


def test_sigma_from_spectrum_near_the_int64_guard():
    # Shifting every eigenvalue by c is the loop weight z[0] += c: sigma stays.
    limit = (2**63 - 1) // 2
    for seed in range(6):
        z = np.random.default_rng(seed).integers(-1000, 1001, 1 << (seed + 2))
        lam = fwht(z)
        expected = sigma_from_weights(z)
        for shift in (limit - int(lam.max()), -limit - int(lam.min())):
            shifted = [int(x) + shift for x in lam]
            assert max(abs(x) for x in shifted) == limit
            assert sigma_from_spectrum(shifted) == expected
            assert reference_sigma(shifted) == (None, expected.bits)


# ---------------------------------------------------------------------------
# sigma_from_weights
# ---------------------------------------------------------------------------

def test_sigma_from_weights_reference_row_d2():
    # bit 0: z1 + z3 = -9 odd; bit 1: z2 + z3 = -17 odd
    assert sigma_from_weights([0, 1, -7, -10]).bits == 3


def test_sigma_from_weights_reference_row_d3():
    assert sigma_from_weights([0, 3, 1, 4, -6, 0, -1, 10]).bits == 5


def test_sigma_from_weights_rejects_non_integral():
    with pytest.raises(DomainError):
        sigma_from_weights([0.0, 0.5, 0.5, 0.0])


def test_sigma_routes_agree_1000_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        z = rng.integers(-1000, 1001, size=1 << d)
        assert sigma_from_weights(z) == sigma_from_spectrum(eigenvalues_from_weights(z))


@given(z=integer_weights())
@settings(max_examples=200)
def test_sigma_routes_agree_property(z):
    assert sigma_from_weights(z) == sigma_from_spectrum(fwht(z))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_reference_row_2():
    result = classify([0, 50, -10, -3])
    assert result.kind is TransferKind.PERFECT_STATE_TRANSFER
    assert result.sigma.bits == 3
    assert [tuple(p) for p in result.pairs] == [(0, 3), (1, 2)]


def test_classify_periodic_row_7():
    z = [0, -83, -80, -35, 65, 64, -31, -50, 94, 5, 97, -60, -92, -25, -5, 24]
    result = classify(z)
    assert result.kind is TransferKind.PERIODIC
    assert result.sigma.bits == 0
    assert result.pairs is None


def test_classify_reference_row_8():
    z = [0, -30, 99, 5, 46, -85, -19, 100, 83, -10, -43, -4, 59, 60, 29, 22]
    result = classify(z)
    assert result.sigma.bits == 2
    assert [tuple(p) for p in result.pairs] == [
        (0, 2), (1, 3), (4, 6), (5, 7),
        (8, 10), (9, 11), (12, 14), (13, 15),
    ]


def test_classify_equality_and_hash_reference_row_1():
    z = [0, 1, -7, -10]
    first, second = classify(z), classify(z)
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != classify([0, 2, 3, 4, 5, 6, 5, 4])


def test_classify_carries_its_spectrum():
    z = [0, 3, 1, 4, -6, 0, -1, 10]
    result = classify(z)
    assert np.array_equal(result.spectrum.values, eigenvalues_from_weights(z).values)
    assert "spectrum" not in repr(result)


def test_classify_rejects_non_integral():
    with pytest.raises(DomainError):
        classify([0.0, 0.5, 0.5, 0.0])


def test_classify_hypercube_antipodal():
    result = classify([0, 1, 1, 0, 1, 0, 0, 0])
    assert result.sigma.bits == 7
    assert [tuple(p) for p in result.pairs] == [(0, 7), (1, 6), (2, 5), (3, 4)]
    # oracle confirmation: the claimed antipodal transfers reach fidelity 1
    u = transition_spectral([0, 1, 1, 0, 1, 0, 0, 0], np.pi / 2).matrix
    for a, b in result.pairs:
        assert abs(u[b, a]) >= 1 - 1e-9


def test_classify_pairs_ascending_and_partitioning():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        z = rng.integers(-100, 101, size=1 << d)
        result = classify(z)
        if result.pairs is None:
            continue
        us = result.pairs[:, 0]
        assert np.all(np.diff(us) > 0)
        assert np.all(result.pairs[:, 0] < result.pairs[:, 1])
        assert sorted(result.pairs.ravel().tolist()) == list(range(1 << d))


def test_classify_loop_independence():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        z = rng.integers(-100, 101, size=1 << d)
        z[0] = 0
        base = classify(z)
        shifted = z.copy()
        shifted[0] = int(rng.integers(1, 50)) * (1 if rng.random() < 0.5 else -1)
        moved = classify(shifted)
        assert moved.sigma == base.sigma
        assert moved.kind is base.kind
        if base.pairs is not None:
            assert np.array_equal(moved.pairs, base.pairs)


def test_classify_sigma_unique_exhaustive():
    # no other group element matches the halved-difference parity pattern
    rng = np.random.default_rng(31)
    for d in range(1, 7):
        n = 1 << d
        z = rng.integers(-100, 101, size=n)
        lam = eigenvalues_from_weights(z).values
        half_odd = ((lam - lam[0]) >> 1) & 1
        idx = np.arange(n)
        matches = [
            s
            for s in range(n)
            if np.array_equal(np.bitwise_count(idx & s) & 1, half_odd)
        ]
        assert matches == [classify(z).sigma.bits]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unweighted_theorem_exhaustive(d):
    # Cheung & Godsil (2011): Cay(Z_2^d, C) has PST at pi/2 exactly when the
    # XOR of the connection set C is nonzero, and sigma is that XOR.
    n = 1 << d
    for mask in range(1 << n):
        z = [(mask >> l) & 1 for l in range(n)]
        connection_xor = functools.reduce(operator.xor, (l for l in range(n) if z[l]), 0)
        result = classify(z)
        assert result.sigma.bits == connection_xor
        assert (result.kind is TransferKind.PERIODIC) == (connection_xor == 0)


def test_classify_fidelity_witness_sample():
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        n = 1 << d
        z = rng.integers(-100, 101, size=n)
        z[0] = 0
        result = classify(z)
        u = transition_spectral(z, np.pi / 2).matrix
        if result.pairs is None:
            assert np.all(np.abs(np.diag(u)) >= 1 - 1e-9)
        else:
            for a, b in result.pairs:
                assert abs(u[b, a]) >= 1 - 1e-9


# ---------------------------------------------------------------------------
# PstResult validation
# ---------------------------------------------------------------------------

def test_pst_result_zero_sigma_must_be_periodic():
    with pytest.raises(ConsistencyError):
        PstResult(
            sigma=GroupElement(0, 2),
            kind=TransferKind.PERFECT_STATE_TRANSFER,
            pairs=np.array([[0, 0], [1, 1]]),
        )


def test_pst_result_periodic_carries_no_pairs():
    with pytest.raises(ConsistencyError):
        PstResult(
            sigma=GroupElement(0, 2),
            kind=TransferKind.PERIODIC,
            pairs=np.array([[0, 0], [1, 1]]),
        )


def test_pst_result_pairs_must_match_sigma():
    with pytest.raises(ConsistencyError):
        PstResult(
            sigma=GroupElement(3, 2),
            kind=TransferKind.PERFECT_STATE_TRANSFER,
            pairs=np.array([[0, 1], [2, 3]]),  # xor is 1, not 3
        )


def test_pst_result_pairs_must_cover_all_vertices():
    with pytest.raises(ConsistencyError):
        PstResult(
            sigma=GroupElement(3, 2),
            kind=TransferKind.PERFECT_STATE_TRANSFER,
            pairs=np.array([[0, 3], [0, 3]]),
        )


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([[0, 3], [-3, -2]], id="negative-index-that-would-wrap"),
        pytest.param([[-1, -4], [1, 2]], id="negative-index"),
        pytest.param([[0, 3], [5, 6]], id="index-past-n"),
        pytest.param([[0, 3], [4, 7]], id="index-at-n"),
        pytest.param([[0, 3]], id="too-few-rows"),
        pytest.param([[0, 3, 0], [1, 2, 1]], id="three-columns"),
        pytest.param([0, 3, 1, 2], id="flat"),
        pytest.param([[[0, 3], [1, 2]]], id="three-dimensional"),
    ],
)
def test_pst_result_rejects_bad_pairs(pairs):
    with pytest.raises(ConsistencyError):
        PstResult(
            sigma=GroupElement(3, 2),
            kind=TransferKind.PERFECT_STATE_TRANSFER,
            pairs=np.array(pairs),
        )


@pytest.mark.parametrize(
    ("sigma", "pairs"),
    [
        pytest.param(GroupElement(3, 2), np.array([[0.5, 3.9], [1.2, 2.7]]), id="float"),
        pytest.param(GroupElement(3, 2), np.array([[0.0, 3.0], [1.0, 2.0]]), id="integer-valued-float"),
        pytest.param(GroupElement(1, 1), np.array([[False, True]]), id="bool"),
        pytest.param(GroupElement(3, 2), np.array([["0", "3"], ["1", "2"]]), id="str"),
        pytest.param(GroupElement(3, 2), np.array([[0, 3], [1, 2]], dtype=object), id="object"),
    ],
)
def test_pst_result_rejects_non_integer_pairs(sigma, pairs):
    # A cast to int64 used to accept each of these as a valid partition,
    # [[0, 3], [1, 2]] or [[0, 1]], without a complaint.
    with pytest.raises(ConsistencyError, match="integers"):
        PstResult(sigma, TransferKind.PERFECT_STATE_TRANSFER, pairs)


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([[0, 3], [1, 2]], id="python-ints"),
        pytest.param(np.array([[0, 3], [1, 2]], dtype=np.int32), id="int32"),
        pytest.param(np.array([[0, 3], [1, 2]], dtype=np.uint8), id="uint8"),
    ],
)
def test_pst_result_accepts_integer_pairs(pairs):
    result = PstResult(GroupElement(3, 2), TransferKind.PERFECT_STATE_TRANSFER, pairs)
    assert result.pairs.dtype == np.int64
    assert result.pairs.tolist() == [[0, 3], [1, 2]]



def test_pst_result_rejects_duplicates_at_d10():
    sigma = 0b1000000001
    lower = np.array([u for u in range(1024) if u < u ^ sigma])
    pairs = np.stack((lower, lower ^ sigma), axis=1)
    pairs[5] = pairs[4]
    with pytest.raises(ConsistencyError, match="exactly once"):
        PstResult(GroupElement(sigma, 10), TransferKind.PERFECT_STATE_TRANSFER, pairs)


def test_classify_pairs_match_brute_force_for_every_sigma():
    # z = delta_sigma has sigma as its only odd index, so every offset (and
    # every position of its top bit) is reached.
    d = 6
    for sigma in range(1, 1 << d):
        z = np.zeros(1 << d, dtype=np.int64)
        z[sigma] = 1
        result = classify(z)
        assert result.sigma.bits == sigma
        expected = [(u, u ^ sigma) for u in range(1 << d) if u < u ^ sigma]
        assert [tuple(p) for p in result.pairs.tolist()] == expected


def test_pst_result_valid_construction():
    result = PstResult(
        sigma=GroupElement(3, 2),
        kind=TransferKind.PERFECT_STATE_TRANSFER,
        pairs=np.array([[0, 3], [1, 2]]),
    )
    assert result.n == 4
    assert result.spectrum is None
