import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubelike.boolean_domain import (
    GroupElement,
    hadamard_sign,
    parity_inner,
    sign_matrix,
    xor,
)
from cubelike.exceptions import DimensionMismatchError, ResourceLimitError


def bitloop_parity(a: int, b: int, d: int) -> int:
    """Independent oracle: count shared one-bits position by position."""
    return sum(((a >> t) & 1) & ((b >> t) & 1) for t in range(d)) % 2


def test_parity_inner_zero_element_is_orthogonal_to_all():
    zero = GroupElement(0b000, 3)
    for bits in range(8):
        assert parity_inner(zero, GroupElement(bits, 3)) == 0


def test_parity_inner_with_itself_even_weight():
    x = GroupElement(0b101, 3)
    assert parity_inner(x, x) == 0


def test_parity_inner_example():
    assert parity_inner(GroupElement(0b011, 3), GroupElement(0b001, 3)) == 1


def test_parity_inner_exhaustive_d3_against_bitloop():
    for a in range(8):
        for b in range(8):
            got = parity_inner(GroupElement(a, 3), GroupElement(b, 3))
            assert got == bitloop_parity(a, b, 3)


def test_parity_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parity_inner(GroupElement(1, 2), GroupElement(1, 3))


def test_xor_self_inverse_and_identity():
    for bits in range(8):
        x = GroupElement(bits, 3)
        assert xor(x, x) == GroupElement(0, 3)
        assert xor(x, GroupElement(0, 3)) == x
        assert (x ^ x).bits == 0


def test_xor_against_per_bit_truth_table():
    a, b = 0b011, 0b110
    expected = 0
    for t in range(3):
        expected |= (((a >> t) & 1) ^ ((b >> t) & 1)) << t
    assert expected == 0b101
    assert xor(GroupElement(a, 3), GroupElement(b, 3)).bits == expected


def test_xor_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        xor(GroupElement(0, 2), GroupElement(0, 4))


def test_hadamard_sign_row_zero_constant():
    zero = GroupElement(0, 2)
    assert [hadamard_sign(zero, GroupElement(j, 2)) for j in range(4)] == [1, 1, 1, 1]


def test_hadamard_sign_full_weight_pair():
    x = GroupElement(0b11, 2)
    assert hadamard_sign(x, x) == 1  # popcount(11) = 2, even


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
            assert m[i, j] == hadamard_sign(GroupElement(i, d), GroupElement(j, d))


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


@given(
    d=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
def test_character_property(d, data):
    n = 1 << d
    i = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    gi, gk, gj = GroupElement(i, d), GroupElement(k, d), GroupElement(j, d)
    assert hadamard_sign(xor(gi, gk), gj) == hadamard_sign(gi, gj) * hadamard_sign(gk, gj)


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
