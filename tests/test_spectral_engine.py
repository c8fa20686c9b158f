import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelike.boolean_domain import sign_matrix
from cubelike.exceptions import (
    DimensionMismatchError,
    DomainError,
    OverflowGuardError,
    ResourceLimitError,
)
from cubelike.spectral_engine import (
    Spectrum,
    WeightVector,
    adjacency_from_weights,
    eigenvalues_from_weights,
    fwht,
)


def brute_transform(z):
    """O(n^2) oracle: multiply by the sign matrix entry by entry, in Python ints."""
    z = list(z)
    n = len(z)
    out = []
    for k in range(n):
        acc = 0
        for l in range(n):
            acc += z[l] * (-1) ** ((k & l).bit_count() & 1)
        out.append(acc)
    return out


@st.composite
def integer_weights(draw, max_d=6, bound=1000):
    d = draw(st.integers(1, max_d))
    n = 1 << d
    return draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# fwht
# ---------------------------------------------------------------------------

def test_fwht_reference_row_d2():
    assert fwht([0, 1, -7, -10]).tolist() == [-16, 2, 18, -4]


def test_fwht_delta_gives_constant():
    assert fwht([1, 0, 0, 0]).tolist() == [1, 1, 1, 1]


def test_fwht_reference_row_d3():
    assert fwht([0, 2, 3, 4, 5, 6, 5, 4]).tolist() == [29, -3, -3, -3, -11, -3, -7, 1]


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(DimensionMismatchError):
        fwht([1, 2, 3])


def test_fwht_matches_brute_force():
    rng = np.random.default_rng(42)
    for d in range(0, 7):
        z = rng.integers(-50, 51, size=1 << d)
        assert fwht(z).tolist() == brute_transform(z.tolist())


def test_fwht_involution_1000_random_vectors():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        n = 1 << d
        z = rng.integers(-100, 101, size=n)
        assert np.array_equal(fwht(fwht(z)), n * z)


@given(z=integer_weights())
def test_fwht_involution_property(z):
    n = len(z)
    assert np.array_equal(fwht(fwht(z)), n * np.asarray(z))


def test_fwht_float_path():
    out = fwht([0.5, -0.25, 0.0, 1.0])
    assert out.dtype == np.float64
    assert np.allclose(out, brute_transform([0.5, -0.25, 0.0, 1.0]))


def test_fwht_exact_at_large_magnitudes():
    # entries at the 2**40 scale stay exact in int64
    z = [0, 2**40, -(2**40), 2**40 - 1, 0, 1, -1, 3]
    assert fwht(z).tolist() == brute_transform(z)


def test_fwht_overflow_guard_fails_loudly():
    n = 4
    too_big = (2**63 - 1) // n + 1
    with pytest.raises(OverflowGuardError):
        fwht([too_big, 0, 0, 0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fwht_float_overflow_fails_loudly():
    with pytest.raises(OverflowGuardError):
        fwht([1e308, 1e308, 0.5, 0.0])
    with pytest.raises(OverflowGuardError):
        fwht([1e308, -1e308, 1e308, 1e308])  # inf - inf on the way


def test_fwht_rejects_complex():
    with pytest.raises(DomainError):
        fwht(np.array([1j, 0]))


# ---------------------------------------------------------------------------
# eigenvalues_from_weights
# ---------------------------------------------------------------------------

def test_eigenvalues_all_zero():
    spectrum = eigenvalues_from_weights([0, 0, 0, 0])
    assert spectrum.values.tolist() == [0, 0, 0, 0]
    assert spectrum.integral


def test_eigenvalues_reference_row_d3():
    spectrum = eigenvalues_from_weights([0, 3, 1, 4, -6, 0, -1, 10])
    assert spectrum.values.tolist() == [11, -23, -17, 5, 5, 11, 13, -5]


def test_eigenvalues_cycle_graph():
    spectrum = eigenvalues_from_weights([0, 1, 1, 0])
    assert spectrum.values.tolist() == [2, 0, 0, -2]


# ---------------------------------------------------------------------------
# adjacency_from_weights
# ---------------------------------------------------------------------------

def test_adjacency_cycle_graph():
    expected = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ]
    )
    assert np.array_equal(adjacency_from_weights([0, 1, 1, 0]), expected)


def test_adjacency_pure_loops_is_identity():
    a = adjacency_from_weights([1, 0, 0, 0])
    assert np.array_equal(a, np.eye(4, dtype=np.int64))


def test_adjacency_hypercube_q3():
    a = adjacency_from_weights([0, 1, 1, 0, 1, 0, 0, 0])
    expected = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(8):
            if (i ^ j).bit_count() == 1:
                expected[i, j] = 1
    assert np.array_equal(a, expected)


def test_adjacency_dimension_cap():
    with pytest.raises(ResourceLimitError):
        adjacency_from_weights(np.zeros(1 << 14, dtype=np.int64))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 7))
def test_spectral_correctness_eigenvector_residual(d):
    rng = np.random.default_rng(100 + d)
    n = 1 << d
    z = rng.integers(-100, 101, size=n)
    a = adjacency_from_weights(z).astype(np.float64)
    lam = eigenvalues_from_weights(z).values.astype(np.float64)
    p = sign_matrix(d).astype(np.float64) / np.sqrt(n)
    residual = np.abs(a @ p - p * lam).max()
    assert residual <= 1e-10


@given(z=integer_weights())
@settings(max_examples=150)
def test_parity_and_trace_invariants(z):
    lam = eigenvalues_from_weights(z).values
    diffs = lam - lam[0]
    assert not np.any(diffs & 1)
    assert lam.sum() == len(z) * z[0]


# ---------------------------------------------------------------------------
# value normalization
# ---------------------------------------------------------------------------

def test_weight_vector_detects_integer_valued_floats():
    wv = WeightVector.from_values([0.0, 1.0, -7.0, -10.0])
    assert wv.integral
    assert wv.values.dtype == np.int64


def test_weight_vector_float_stays_float():
    wv = WeightVector.from_values([0.0, 0.5, 0.5, 0.0])
    assert not wv.integral
    assert wv.values.dtype == np.float64


def test_weight_vector_rejects_non_finite():
    with pytest.raises(DomainError):
        WeightVector.from_values([0.0, np.inf, 0.0, 0.0])


def test_weight_vector_rejects_bad_length():
    with pytest.raises(DimensionMismatchError):
        WeightVector.from_values([1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        WeightVector.from_values([5])


def test_weight_vector_values_read_only():
    wv = WeightVector.from_values([0, 1, 1, 0])
    with pytest.raises(ValueError):
        wv.values[0] = 9


def test_spectrum_from_values_guards_difference_overflow():
    huge = (2**63 - 1) // 2 + 1
    with pytest.raises(OverflowGuardError):
        Spectrum.from_values([huge, -huge])
