import math

import numpy as np
import pytest

import cubelike.eigenbasis_builder as eigenbasis_builder
from cubelike.eigenbasis_builder import (
    IndexSet,
    OrthogonalBasis,
    build_q,
    reconstruct,
    select_index_set,
    walsh_basis,
)
from cubelike.exceptions import (
    DimensionMismatchError,
    ReconstructionError,
    ResourceLimitError,
    StructureError,
)
from cubelike.spectral_engine import adjacency_from_weights, fwht


def random_orthogonal(n, seed):
    """Orthonormalize a seeded Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rank_by_elimination(m, tol=1e-10):
    """Brute-force rank via partial-pivot elimination on Python floats."""
    work = [list(map(float, row)) for row in np.asarray(m)]
    n = len(work)
    rank = 0
    for col in range(n):
        pivot = max(range(rank, n), key=lambda r: abs(work[r][col]), default=None)
        if pivot is None or abs(work[pivot][col]) <= tol:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, n):
            factor = work[r][col] / work[rank][col]
            for c in range(col, n):
                work[r][c] -= factor * work[rank][c]
        rank += 1
        if rank == n:
            break
    return rank


# ---------------------------------------------------------------------------
# OrthogonalBasis
# ---------------------------------------------------------------------------

def test_orthogonal_basis_rejects_non_orthogonal():
    with pytest.raises(StructureError):
        OrthogonalBasis(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_orthogonal_basis_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        OrthogonalBasis(np.ones((2, 3)))


def test_orthogonal_basis_size_cap():
    with pytest.raises(ResourceLimitError):
        OrthogonalBasis(np.eye(4097))


def test_walsh_basis_is_orthogonal():
    basis = walsh_basis(3)
    assert np.abs(basis.matrix.T @ basis.matrix - np.eye(8)).max() < 1e-12


# ---------------------------------------------------------------------------
# select_index_set
# ---------------------------------------------------------------------------

def test_select_identity_basis_picks_diagonal():
    basis = OrthogonalBasis(np.eye(4))
    iset = select_index_set(basis)
    assert iset.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert np.array_equal(build_q(basis, iset), np.eye(4))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_select_walsh_basis_constant_row_shortcut(d):
    n = 1 << d
    iset = select_index_set(walsh_basis(d))
    assert iset.pairs == tuple((0, i) for i in range(n))
    assert iset.constant_row_value == pytest.approx(1.0 / math.sqrt(n))


def test_select_random_orthogonal_gives_invertible_q():
    basis = OrthogonalBasis(random_orthogonal(4, seed=5))
    iset = select_index_set(basis)
    q = build_q(basis, iset)
    assert rank_by_elimination(q) == 4


def test_select_generic_path_with_zeros_in_every_row():
    # two rotation blocks: every row contains zeros, so no fast path applies
    c, s = math.cos(0.3), math.sin(0.3)
    block = np.array([[c, -s], [s, c]])
    p = np.zeros((4, 4))
    p[:2, :2] = block
    p[2:, 2:] = block
    basis = OrthogonalBasis(p)
    iset = select_index_set(basis)
    assert iset.constant_row_value is None
    assert iset.size == 4
    assert rank_by_elimination(build_q(basis, iset)) == 4


def test_select_rejects_bad_tolerance():
    with pytest.raises(DimensionMismatchError):
        select_index_set(OrthogonalBasis(np.eye(2)), tol=0.0)


# ---------------------------------------------------------------------------
# build_q
# ---------------------------------------------------------------------------

def test_build_q_identity_diagonal_pairs():
    basis = OrthogonalBasis(np.eye(3))
    iset = IndexSet(np.arange(3), np.arange(3))
    assert np.array_equal(build_q(basis, iset), np.eye(3))


def test_build_q_walsh_equals_scaled_basis():
    basis = walsh_basis(2)
    iset = select_index_set(basis)
    q = build_q(basis, iset)
    assert np.allclose(q, 0.5 * basis.matrix, atol=1e-15)


def test_build_q_elementwise_oracle():
    basis = OrthogonalBasis(random_orthogonal(5, seed=9))
    rows = np.array([0, 2, 1, 4, 3])
    cols = np.array([1, 2, 3, 4, 0])
    q = build_q(basis, IndexSet(rows, cols))
    p = basis.matrix
    for j in range(5):
        for k in range(5):
            assert q[j, k] == pytest.approx(p[rows[j], k] * p[cols[j], k], abs=1e-15)


def test_build_q_rejects_wrong_pair_count():
    basis = OrthogonalBasis(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        build_q(basis, IndexSet(np.array([0]), np.array([0])))


def test_build_q_rejects_out_of_range_pairs():
    basis = OrthogonalBasis(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        build_q(basis, IndexSet(np.array([0, 2]), np.array([0, 1])))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_cycle_graph_from_walsh_basis():
    basis = walsh_basis(2)
    iset = select_index_set(basis)
    result = reconstruct(basis, iset, [0, 1, 1, 0])
    expected_a = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ],
        dtype=float,
    )
    assert np.allclose(result.a, expected_a, atol=1e-12)
    assert np.allclose(result.x, [2, 0, 0, -2], atol=1e-12)


def test_reconstruct_identity_basis_gives_diagonal():
    basis = OrthogonalBasis(np.eye(4))
    iset = select_index_set(basis)
    z = [3.0, -1.0, 0.5, 7.0]
    result = reconstruct(basis, iset, z)
    assert np.allclose(result.a, np.diag(z), atol=1e-14)


def test_reconstruct_random_orthogonal_eigen_residual():
    basis = OrthogonalBasis(random_orthogonal(6, seed=21))
    iset = select_index_set(basis)
    rng = np.random.default_rng(22)
    z = rng.integers(-50, 51, size=6).astype(float)
    result = reconstruct(basis, iset, z)
    p = basis.matrix
    residual = np.abs(result.a @ p - p * result.x).max()
    assert residual <= 1e-8
    assert np.abs(result.a - result.a.T).max() == 0.0


def test_reconstruct_eigenvectors_survive_series_exponential():
    # exp(i t A) built by the series oracle must share P's eigenvectors,
    # with phases exp(i t x_k) on the reconstructed eigenvalues
    from cubelike.walk_oracle import transition_taylor

    basis = OrthogonalBasis(random_orthogonal(6, seed=77))
    iset = select_index_set(basis)
    rng = np.random.default_rng(78)
    z = rng.integers(-10, 11, size=6).astype(float)
    result = reconstruct(basis, iset, z)
    t = 0.37
    u = transition_taylor(result.a, t).matrix
    p = basis.matrix
    phases = np.exp(1j * t * result.x)
    assert np.abs(u @ p - p * phases).max() <= 1e-8


def test_reconstruct_honors_fixed_entries():
    basis = OrthogonalBasis(random_orthogonal(8, seed=33))
    iset = select_index_set(basis)
    rng = np.random.default_rng(34)
    z = rng.normal(size=8)
    result = reconstruct(basis, iset, z)
    fixed = result.a[iset.rows, iset.cols]
    assert np.abs(fixed - z).max() <= 1e-8


def test_reconstruct_full_system_all_entries():
    # solving the n-row system must satisfy all n^2 equations A = P diag(x) P^T
    for n, seed in ((4, 1), (8, 2), (16, 3)):
        basis = OrthogonalBasis(random_orthogonal(n, seed=seed))
        iset = select_index_set(basis)
        rng = np.random.default_rng(seed + 100)
        z = rng.normal(size=n)
        result = reconstruct(basis, iset, z)
        p = basis.matrix
        for i in range(n):
            for j in range(n):
                direct = float(np.sum(result.x * p[i] * p[j]))
                assert result.a[i, j] == pytest.approx(direct, abs=1e-10)


def test_reconstruct_rejects_singular_index_set():
    basis = walsh_basis(2)
    duplicated = IndexSet(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ReconstructionError):
        reconstruct(basis, duplicated, [1.0, 2.0, 3.0, 4.0])


def test_reconstruct_rejects_wrong_length():
    basis = walsh_basis(2)
    iset = select_index_set(basis)
    with pytest.raises(DimensionMismatchError):
        reconstruct(basis, iset, [1.0, 2.0])


def test_reconstruct_walsh_path_builds_no_q(monkeypatch):
    # Q = mu * P on the constant-row path; the n x n product was built only
    # to be returned.
    def refuse(*args, **kwargs):
        raise AssertionError("reconstruct built Q on the constant-row path")

    monkeypatch.setattr(eigenbasis_builder, "build_q", refuse)
    z = np.random.default_rng(59).integers(-20, 21, size=32)
    basis = walsh_basis(5)
    result = reconstruct(basis, select_index_set(basis), z.astype(float))
    assert np.abs(result.x - fwht(z)).max() <= 1e-9
    assert np.abs(result.a - adjacency_from_weights(z)).max() <= 1e-9


@pytest.mark.parametrize(
    ("rows", "cols"),
    [
        pytest.param([0, 0], [0, 1], id="too-few-pairs"),
        pytest.param([0, 0, 0, 0], [0, 1, 2, 4], id="column-out-of-range"),
        pytest.param([4, 4, 4, 4], [0, 1, 2, 3], id="row-out-of-range"),
    ],
)
def test_reconstruct_walsh_path_checks_the_index_set(rows, cols):
    basis = walsh_basis(2)
    iset = IndexSet(np.array(rows), np.array(cols), constant_row_value=0.5)
    with pytest.raises(DimensionMismatchError):
        reconstruct(basis, iset, [1.0] * 4)


# ---------------------------------------------------------------------------
# consistency with the transform route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_reconstruct_matches_transform_route(d):
    rng = np.random.default_rng(50 + d)
    n = 1 << d
    z = rng.integers(-20, 21, size=n)
    basis = walsh_basis(d)
    result = reconstruct(basis, select_index_set(basis), z.astype(float))
    assert np.abs(result.x - fwht(z)).max() <= 1e-9
    assert np.abs(result.a - adjacency_from_weights(z)).max() <= 1e-9
