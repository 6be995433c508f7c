"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every synthetic input is seeded; the sampled datasets represent the
well-separated regimes the criteria describe, and the seeds are fixed so
reruns are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

from qtclust import (
    InstantonParams,
    LaplaceParams,
    consensus_matrix,
    eigendecompose,
    gap_stats,
    gen_annuli,
    gen_sticks,
    gen_tetrahedron,
    instanton_phases,
    jsd_matrix,
    laplace_similarity,
    majority_partition,
    partitions_equivalent,
    quantile_proximity,
    radius_proportional_counts,
    solve_source,
    transition_kernel,
    two_cluster_outlier_distances,
    two_level_phases,
)
from qtclust.experiments import circular_difference, eps_sweep, outlier_sweep, two_cloud_experiment
from qtclust.graph import gaussian_adjacency, laplacians, pairwise_distances

from conftest import laplace_amplitudes, permutation_equivalent, random_geometric_graph


def _verdict(number, description, ok):
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_two_cloud_phase_theory():
    started = time.perf_counter()
    result = two_cloud_experiment(seed=1, sigma=0.1, ell_over_sigma=3.0, n_per=100)
    elapsed = time.perf_counter() - started
    err = result["max_phase_error"]
    born = result["born_errors"]
    _verdict(1, f"phase error {err:.4f} < 0.1 rad (5% lowest amplitudes excluded)", err < 0.1)
    _verdict(1, f"tunneling expansion order 3 ({born[3]:.3g}) closer than order 1 ({born[1]:.3g})", born[3] < born[1])
    _verdict(1, f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0)


def test_criterion_2_two_level_instanton_identity():
    rng = np.random.default_rng(0)
    worst_gap_route = 0.0
    for _ in range(100):
        gap = float(rng.uniform(1e-4, 2.0))
        s = float(rng.uniform(1e-3, 5.0))
        same, cross = two_level_phases(gap, s)
        # transition-amplitude route at the same splitting (prefactor drops out)
        denom = s * (s + 1j * gap)
        same_g = float(np.angle((2 * s + 1j * gap) / denom))
        cross_g = float(np.angle(1j * gap / denom))
        worst_gap_route = max(worst_gap_route, abs(same - same_g), abs(cross - cross_g))
    worst_inst = 0.0
    for _ in range(100):
        params = InstantonParams.from_frequency(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.03, 2.0)))
        s = float(rng.uniform(1e-3, 5.0))
        inst = instanton_phases(params, s)
        closed = two_level_phases(params.gap, s)
        worst_inst = max(worst_inst, abs(inst[0] - closed[0]), abs(inst[1] - closed[1]))
    _verdict(2, f"closed form vs amplitude route, max dev {worst_gap_route:.2e} <= 1e-12", worst_gap_route <= 1e-12)
    _verdict(2, f"double-well vs two-level, max dev {worst_inst:.2e} <= 1e-12", worst_inst <= 1e-12)
    gap = 1.0
    limits = (
        abs((two_level_phases(gap, 1e-7)[1] - two_level_phases(gap, 1e-7)[0]) - 0.0),
        abs((two_level_phases(gap, 0.5)[1] - two_level_phases(gap, 0.5)[0]) - math.pi / 4),
        abs((two_level_phases(gap, 1e7)[1] - two_level_phases(gap, 1e7)[0]) - math.pi / 2),
    )
    _verdict(2, f"contrast limits 0, pi/4, pi/2 within 1e-6 (devs {max(limits):.2e})", max(limits) < 1e-6)


def test_criterion_3_spectral_gap_cluster_counting():
    for q in (2, 3, 4):
        pts = gen_tetrahedron(q=q, sigma=0.1, n_per=100, seed=0)
        dist = pairwise_distances(pts)
        r_eps = quantile_proximity(dist, 0.1)
        graph = laplacians(gaussian_adjacency(dist, r_eps), proximity=r_eps)
        eig = eigendecompose(graph.hamiltonian)
        rep = gap_stats(eig.energies, q)
        _verdict(3, f"q={q}: low mode count {rep.low_count} == {q}", rep.low_count == q)
        _verdict(3, f"q={q}: spectral jump ratio {rep.next_ratio:.3g} >= 10", rep.next_ratio >= 10.0)


def test_criterion_4_synthetic_parity_and_robustness():
    uniform = gen_sticks(3, length=1.0, gap=0.2, n_per=60, density_profile="uniform", jitter=0.01, seed=0)
    rows = eps_sweep(uniform, 3, [0.03, 0.05], seed=0)
    parity = all(r["ari_qtc"] == 1.0 and r["ari_spectral"] == 1.0 for r in rows)
    _verdict(4, "uniform sticks at small eps: transport and spectral both at ARI 1.0", parity)

    nonuniform = gen_sticks(3, length=1.0, gap=0.2, n_per=90, density_profile="nonuniform", jitter=0.01, seed=0)
    rows = eps_sweep(nonuniform, 3, [0.05, 0.055, 0.06], seed=0)
    window = [r for r in rows if r["ari_qtc"] >= 0.95 and r["ari_spectral"] <= r["ari_qtc"] - 0.05]
    detail = ", ".join(f"eps={r['eps']:.3f}: {r['ari_qtc']:.2f}/{r['ari_spectral']:.2f}" for r in rows)
    _verdict(4, f"nonuniform sticks window exists ({detail})", len(window) > 0)

    radii = [0.4, 0.8, 1.2, 1.6, 2.0]
    annuli = gen_annuli(radii, 0.1, radius_proportional_counts(radii, 40), seed=0)
    rows = eps_sweep(annuli, 5, [0.006, 0.007, 0.008], seed=0)
    window = [r for r in rows if r["ari_qtc"] >= 0.95 and r["ari_spectral"] <= r["ari_qtc"] - 0.05]
    detail = ", ".join(f"eps={r['eps']:.3f}: {r['ari_qtc']:.2f}/{r['ari_spectral']:.2f}" for r in rows)
    _verdict(4, f"annuli window exists ({detail})", len(window) > 0)


def test_criterion_5_resolvent_oracle():
    rng = np.random.default_rng(1)
    worst_sum = worst_solve = worst_residual = 0.0
    for trial in range(20):
        m = int(rng.integers(20, 201))
        graph, eig = random_geometric_graph(seed=300 + trial, m=m)
        j = int(rng.integers(m))
        s = float(rng.uniform(0.05, 2.0))
        amplitudes = next(solve_source(graph.hamiltonian, s)(np.array([j]), 1))[:, 0]
        unit = np.zeros(m)
        unit[j] = 1.0
        operator = s * np.eye(m) + 1j * graph.hamiltonian
        direct = np.linalg.solve(operator, unit)
        worst_sum = max(worst_sum, float(np.abs(amplitudes - laplace_amplitudes(eig, [j], s)[:, 0]).max()))
        worst_solve = max(worst_solve, float(np.abs(amplitudes - direct).max()))
        worst_residual = max(worst_residual, float(np.abs(operator @ amplitudes - unit).max()))
    _verdict(5, f"LDL^T solve vs spectral sum, max dev {worst_sum:.2e} <= 1e-9", worst_sum <= 1e-9)
    _verdict(5, f"LDL^T solve vs pivoted LU solve, max dev {worst_solve:.2e} <= 1e-9", worst_solve <= 1e-9)
    _verdict(5, f"defining-equation residual {worst_residual:.2e} <= 1e-9", worst_residual <= 1e-9)


def test_criterion_6_ensemble_algebra():
    rng = np.random.default_rng(2)
    mismatches = 0
    for trial in range(1000):
        q = int(rng.integers(2, 6))
        m = int(rng.integers(4, 12))
        a = rng.integers(0, q, size=m)
        if trial % 2 == 0:
            b = rng.permutation(q)[a]
        else:
            b = rng.integers(0, q, size=m)
        if partitions_equivalent(a, b, q) != permutation_equivalent(a, b, q):
            mismatches += 1
    _verdict(6, f"equivalence vs permutation oracle on 1000 pairs ({mismatches} mismatches)", mismatches == 0)

    omega_arr = rng.integers(0, 3, size=(30, 20))
    c = consensus_matrix(omega_arr, 3)
    oracle = np.zeros((30, 30))
    for i in range(30):
        for j in range(30):
            count = 0
            for k in range(20):
                if omega_arr[i, k] == omega_arr[j, k]:
                    count += 1
            oracle[i, j] = count / 20
    _verdict(6, "consensus matrix equals triple-loop oracle exactly", bool(np.array_equal(c, oracle)))

    _, tally = majority_partition(omega_arr, 3)
    total = sum(tally.weights.values())
    _verdict(6, f"vote weights sum to 1 within 1e-12 (dev {abs(total - 1.0):.2e})", abs(total - 1.0) <= 1e-12)


def test_criterion_7_kernel_properties():
    _, eig = random_geometric_graph(seed=400, m=40)
    p = transition_kernel(eig)
    row_dev = float(np.abs(p.sum(axis=1) - 1.0).max())
    _verdict(7, f"transition kernel row sums within 1e-10 (dev {row_dev:.2e})", row_dev <= 1e-10)

    two_node = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    p2 = transition_kernel(two_node)
    _verdict(7, "single-edge graph transition kernel is 1/2 everywhere", bool(np.allclose(p2, 0.5, atol=1e-14)))

    _, eig8 = random_geometric_graph(seed=401, m=8)
    p8 = transition_kernel(eig8)
    min_gap = max(float(np.diff(eig8.energies).min()), 1e-8)
    ts = np.random.default_rng(3).uniform(0.0, 1e4 / min_gap, 100_000)
    acc = np.zeros((8, 8))
    for lo in range(0, ts.size, 2000):
        phase = np.exp(-1j * np.outer(eig8.energies, ts[lo : lo + 2000]))
        walk = np.einsum("in,nk,jn->ijk", eig8.modes, phase, eig8.modes, optimize=True)
        acc += (np.abs(walk) ** 2).sum(axis=2)
    quad_dev = float(np.abs(p8 - acc / ts.size).max())
    _verdict(7, f"transition kernel vs time average within 1e-2 (dev {quad_dev:.2e})", quad_dev <= 1e-2)

    s_matrix = laplace_similarity(eig, 0.4)
    ok_s = bool(np.array_equal(np.diag(s_matrix), np.ones(40)) and s_matrix.max() <= 1.0)
    _verdict(7, "similarity kernel: unit diagonal and bounded by 1", ok_s)

    d = jsd_matrix(eig)
    ok_jsd = bool(np.array_equal(np.diag(d), np.zeros(40)) and d.max() <= math.log(2.0))
    _verdict(7, "divergence kernel: zero diagonal, bounded by ln 2", ok_jsd)
    root = np.sqrt(d)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(500):
        i, j, k = (int(v) for v in rng.integers(0, 40, size=3))
        worst = max(worst, root[i, j] - root[i, k] - root[k, j])
    _verdict(7, f"sqrt divergence triangle inequality within 1e-9 (worst excess {worst:.2e})", worst <= 1e-9)


def test_criterion_8_embedding_closed_forms():
    rng = np.random.default_rng(5)
    worst = 0.0
    ordering_ok = True
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 0.95))
        beta = math.sqrt(1.0 - alpha * alpha)
        gamma = float(rng.uniform(0.01, 1.0))
        h = float(rng.uniform(0.1, 3.0))
        out = two_cluster_outlier_distances(alpha, beta, gamma, h)
        expected_none = (math.sqrt(2.0) * h, (1.0 - gamma) * h, math.sqrt(1.0 + gamma * gamma) * h)
        expected_a1 = (math.sqrt(2.0), 0.0, math.sqrt(2.0))
        expected_a2 = (1.0 / (alpha * beta), 0.0, 1.0 / (alpha * beta))
        for kind, expected in (("none", expected_none), ("approach1", expected_a1), ("approach2", expected_a2)):
            worst = max(worst, max(abs(a - b) for a, b in zip(out[kind], expected)))
        if gamma < 1.0:
            d_ij, d_ik, d_jk = out["none"]
            ordering_ok = ordering_ok and (d_ij >= d_jk > d_ik)
    _verdict(8, f"closed-form distances within 1e-12 over 100 draws (dev {worst:.2e})", worst <= 1e-12)
    _verdict(8, "distance ordering D_ij >= D_jk > D_ik for gamma in (0,1)", ordering_ok)


def test_criterion_9_outlier_interpolation():
    rows = outlier_sweep(seed=0)
    left = np.array([r["phase_left_mean"] for r in rows])
    right = np.array([r["phase_right_mean"] for r in rows])
    outlier = np.array([r["phase_outlier"] for r in rows])
    rel_out = circular_difference(outlier, left)
    rel_right = circular_difference(right, left)
    # monotone up to one grid step: no value may drop below a predecessor
    # two steps back
    monotone = bool(np.all(rel_out[2:] >= rel_out[:-2]))
    between = bool(np.all(rel_out >= rel_out[0] - 0.05) and np.all(rel_out <= rel_right.max() + 0.05))
    ends = rel_out[0] < 0.05 and abs(rel_out[-1] - rel_right[-1]) < 0.05
    _verdict(9, "outlier phase monotone in its position (one-grid-step tolerance)", monotone)
    _verdict(9, "outlier phase stays between the cluster plateaus and reaches them", between and ends)
