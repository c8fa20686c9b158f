"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np

from cubelike.eigenbasis_builder import (
    OrthogonalBasis,
    reconstruct,
    select_index_set,
    walsh_basis,
)
from cubelike.fixtures import REFERENCE_TABLE
from cubelike.pst_analyzer import TransferKind, classify, sigma_from_spectrum, sigma_from_weights
from cubelike.spectral_engine import adjacency_from_weights, eigenvalues_from_weights
from cubelike.walk_oracle import transition_spectral, transition_taylor


def report(num, message):
    print(f"\n[acceptance] criterion {num}: PASS — {message}")


def random_orthogonal(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def witness_columns(z, sigma_bits):
    """(claimed fidelities, worst non-claimed off-diagonal modulus per column)."""
    n = len(z)
    u = transition_spectral(z, math.pi / 2).matrix
    idx = np.arange(n)
    partner = np.bitwise_xor(idx, sigma_bits)
    mags = np.abs(u)
    claimed = mags[partner, idx]
    mask = np.ones((n, n), dtype=bool)
    mask[partner, idx] = False
    mask[idx, idx] = False
    leakage = np.where(mask, mags, 0.0).max(axis=0)
    return claimed, leakage


def test_criterion_1_reference_table_exact():
    started = time.perf_counter()
    for case in REFERENCE_TABLE:
        spectrum = eigenvalues_from_weights(list(case.weights))
        assert tuple(int(x) for x in spectrum.values) == case.eigenvalues
        result = classify(list(case.weights))
        if result.kind is TransferKind.PERIODIC:
            got = {(u, u) for u in range(1, (1 << case.d) + 1)}
        else:
            got = {(int(u) + 1, int(v) + 1) for u, v in result.pairs}
        assert got == set(case.pairs_one_based)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"9 rows reproduced exactly (eigenvalues and pairs) in {elapsed:.3f}s")


def test_criterion_2_cycle_graph_worked_example():
    spectrum = eigenvalues_from_weights([0, 1, 1, 0])
    assert spectrum.values.tolist() == [2, 0, 0, -2]
    u = transition_spectral([0, 1, 1, 0], math.pi / 2).matrix
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[i, 3 - i] = -1.0
    deviation = np.abs(u - expected).max()
    assert deviation <= 1e-12
    report(2, f"C4 transfer matrix matches the -1 antidiagonal, max deviation {deviation:.2e}")


def test_criterion_3_fidelity_witness_random():
    rng = np.random.default_rng(20240301)
    started = time.perf_counter()
    cases = 0
    for d in range(2, 9):
        n = 1 << d
        for _ in range(500):
            z = rng.integers(-100, 101, size=n)
            z[0] = 0
            result = classify(z)
            claimed, leakage = witness_columns(z, result.sigma.bits)
            assert claimed.min() >= 1 - 1e-9
            assert leakage.max() <= 1e-6
            cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"{cases} random graphs (d=2..8): all claimed transfers reach "
              f"fidelity >= 1-1e-9, leakage <= 1e-6, in {elapsed:.1f}s")


def test_criterion_4_cross_oracle_equivalence():
    rng = np.random.default_rng(20240302)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        z = rng.integers(-100, 101, size=1 << d)
        graph = adjacency_from_weights(z)
        for t in (math.pi / 2, 0.3, 1.7):
            a = transition_spectral(z, t).matrix
            b = transition_taylor(graph, t).matrix
            delta = float(np.abs(a - b).max())
            worst = max(worst, delta)
            assert delta <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"300 transition matrices agree across routes, worst delta {worst:.2e}, "
              f"in {elapsed:.1f}s")


def test_criterion_5_dual_route_sigma():
    rng = np.random.default_rng(20240303)
    for _ in range(10_000):
        d = int(rng.integers(1, 11))
        z = rng.integers(-1000, 1001, size=1 << d)
        assert sigma_from_weights(z) == sigma_from_spectrum(eigenvalues_from_weights(z))
    report(5, "10^4 random weight vectors (d <= 10): both sigma routes agree")


def test_criterion_6_parity_and_trace_invariants():
    rng = np.random.default_rng(20240304)
    for _ in range(1000):
        d = int(rng.integers(1, 11))
        n = 1 << d
        z = rng.integers(-1000, 1001, size=n)  # random loop weight included
        lam = eigenvalues_from_weights(z).values
        diffs = lam - lam[0]
        assert not np.any(diffs & 1)
        assert int(lam.sum()) == n * int(z[0])
    report(6, "1000 random spectra: all differences even, trace = n*z[0] exactly")


def test_criterion_7_reconstruction_round_trip():
    seed = 0
    for n in (4, 8, 16):
        for _ in range(50):
            seed += 1
            basis = OrthogonalBasis(random_orthogonal(n, seed=seed))
            iset = select_index_set(basis)
            rng = np.random.default_rng(10_000 + seed)
            z = rng.integers(-50, 51, size=n).astype(float)
            result = reconstruct(basis, iset, z)
            p = basis.matrix
            residual = float(np.abs(result.a @ p - p * result.x).max())
            assert residual <= 1e-8
            fixed = float(np.abs(result.a[iset.rows, iset.cols] - z).max())
            assert fixed <= 1e-8
    for d in (2, 3, 4):
        rng = np.random.default_rng(777 + d)
        z = rng.integers(-50, 51, size=1 << d)
        basis = walsh_basis(d)
        result = reconstruct(basis, select_index_set(basis), z.astype(float))
        assert np.abs(result.a - adjacency_from_weights(z)).max() <= 1e-9
    report(7, "150 random orthogonal bases (n=4,8,16) round-trip within 1e-8; "
              "Walsh bases match the direct adjacency within 1e-9")


def test_criterion_8_loop_independence():
    rng = np.random.default_rng(20240305)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = 1 << d
        z = rng.integers(-100, 101, size=n)
        z[0] = 0
        base = classify(z)
        looped = z.copy()
        looped[0] = int(rng.integers(1, 100)) * (1 if rng.random() < 0.5 else -1)
        shifted = classify(looped)
        assert shifted.sigma == base.sigma
        assert shifted.kind is base.kind
        if base.pairs is not None:
            assert np.array_equal(shifted.pairs, base.pairs)
        claimed, leakage = witness_columns(looped, shifted.sigma.bits)
        assert claimed.min() >= 1 - 1e-9
        assert leakage.max() <= 1e-6
    report(8, "100 random graphs: nonzero loop weight never changes sigma, pairs, "
              "or the fidelity witness")


def test_criterion_9_full_pipeline_scales_to_d20():
    rng = np.random.default_rng(20240306)
    z = rng.integers(-1000, 1001, size=1 << 20)
    z[0] = 0
    started = time.perf_counter()
    spectrum = eigenvalues_from_weights(z)
    result = classify(z)
    elapsed = time.perf_counter() - started
    assert spectrum.n == 1 << 20
    if result.pairs is not None:
        assert len(result.pairs) == 1 << 19
    assert elapsed < 5.0
    report(9, f"d=20 (n=1,048,576) spectrum + classification in {elapsed:.2f}s")


def test_observation_minimum_time_grid():
    """Reported only: below pi/2 no reference row reaches transfer fidelity 1.

    Claimed-pair fidelity depends only on sigma: |U(t)[v][u]| with
    u ^ v = sigma equals |sum_k (-1)^{<sigma|k>} exp(i t lambda_k)| / n.
    """
    grid = np.linspace(0.0, math.pi / 2, 66)[1:-1]  # 64 interior points
    worst_overall = 0.0
    for case in REFERENCE_TABLE:
        n = 1 << case.d
        lam = eigenvalues_from_weights(list(case.weights)).values.astype(float)
        sigma = classify(list(case.weights)).sigma.bits
        signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(n) & sigma).astype(np.int64) & 1)
        amps = np.exp(1j * np.outer(grid, lam)) @ signs / n
        peak = float(np.abs(amps).max())
        worst_overall = max(worst_overall, peak)
        print(f"\n[observation] row {case.index}: max fidelity on (0, pi/2) grid = {peak:.9f}")
    print(f"\n[observation] all rows stay below 1 - 1e-6 before pi/2: "
          f"{worst_overall < 1 - 1e-6} (worst {worst_overall:.9f}; reported, not asserted)")
