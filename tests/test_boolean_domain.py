import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubelike.boolean_domain import GroupElement, sign_matrix
from cubelike.exceptions import DimensionMismatchError, ResourceLimitError


def bitloop_parity(a: int, b: int, d: int) -> int:
    """Independent oracle: count shared one-bits position by position."""
    return sum(((a >> t) & 1) & ((b >> t) & 1) for t in range(d)) % 2


def test_sign_matrix_d2_known_rows():
    expected = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
    )
    assert np.array_equal(sign_matrix(2), expected)


def test_sign_matrix_agrees_with_scalar_function():
    d = 3
    m = sign_matrix(d)
    for i in range(8):
        for j in range(8):
            assert m[i, j] == 1 - 2 * bitloop_parity(i, j, d)


@pytest.mark.parametrize("d", range(1, 7))
def test_sign_matrix_symmetry_exhaustive(d):
    m = sign_matrix(d)
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("d", range(1, 7))
def test_sign_matrix_orthogonality_exhaustive(d):
    n = 1 << d
    m = sign_matrix(d).astype(np.int64)
    gram = m @ m.T
    assert np.array_equal(gram, n * np.eye(n, dtype=np.int64))


@functools.lru_cache(maxsize=None)
def cached_sign_matrix(d):
    return sign_matrix(d)


@given(
    d=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
def test_character_property(d, data):
    n = 1 << d
    i = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    h = cached_sign_matrix(d)
    assert h[i ^ k, j] == h[i, j] * h[k, j]


def test_group_element_rejects_out_of_range_bits():
    with pytest.raises(DimensionMismatchError):
        GroupElement(8, 3)
    with pytest.raises(DimensionMismatchError):
        GroupElement(-1, 3)


def test_group_element_rejects_bad_dimension():
    with pytest.raises(DimensionMismatchError):
        GroupElement(0, 0)
    with pytest.raises(ResourceLimitError):
        GroupElement(0, 21)


def test_group_element_bitstring_display():
    assert GroupElement(3, 3).bitstring == "011"
    assert GroupElement(5, 3).bitstring == "101"


def test_sign_matrix_dimension_cap():
    with pytest.raises(ResourceLimitError):
        sign_matrix(14)
