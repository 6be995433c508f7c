import math
import warnings

import numpy as np
import pytest

from qtclust import kernels
from qtclust import (
    NumericError,
    ParameterError,
    PointSet,
    ari,
    eigendecompose,
    embedding_distance,
    gen_sticks,
    jsd_matrix,
    laplace_similarity,
    spectral_cluster,
    spectral_embedding,
    build_graph,
    transition_kernel,
    two_cluster_outlier_distances,
)
from qtclust.labeling import kmeans

from conftest import random_geometric_graph


def test_full_spectrum_embedding_is_equidistant():
    _, eig = random_geometric_graph(0, 20)
    emb = spectral_embedding(eig, 20, "none")
    for i in range(0, 20, 3):
        for j in range(0, 20, 4):
            expected = 0.0 if i == j else math.sqrt(2.0)
            assert embedding_distance(emb, i, j) == pytest.approx(expected, abs=1e-10)


def test_full_spectrum_kmeans_objective_is_flat():
    _, eig = random_geometric_graph(1, 12)
    emb = spectral_embedding(eig, 12, "none")
    rng = np.random.default_rng(0)

    def wcss(assign, k):
        total = 0.0
        for c in range(k):
            members = emb[assign == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        return total

    values = []
    for _ in range(20):
        assign = rng.integers(0, 3, size=12)
        while len(set(assign.tolist())) < 3:
            assign = rng.integers(0, 3, size=12)
        values.append(wcss(assign, 3))
    assert np.ptp(values) < 1e-9


def test_two_disconnected_clusters_give_two_embedding_rows():
    from qtclust import gen_gaussian_clouds
    from qtclust.graph import gaussian_adjacency, laplacians, pairwise_distances

    pts = gen_gaussian_clouds([(0.0, 0.0), (60.0, 0.0)], 0.1, 12, seed=0)
    graph = laplacians(gaussian_adjacency(pairwise_distances(pts), 0.2))
    eig = eigendecompose(graph.hamiltonian)
    emb = spectral_embedding(eig, 2, "approach1")
    rows = emb
    for mu in (0, 1):
        block = rows[pts.truth == mu]
        assert np.abs(block - block[0]).max() < 1e-8
    assert np.abs(rows[pts.truth == 0][0] - rows[pts.truth == 1][0]).max() > 0.5


def test_approach1_rows_unit_norm():
    _, eig = random_geometric_graph(2, 25)
    emb = spectral_embedding(eig, 4, "approach1")
    norms = np.linalg.norm(emb, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_approach2_ground_column_all_ones():
    _, eig = random_geometric_graph(3, 25)
    emb = spectral_embedding(eig, 3, "approach2")
    assert np.abs(emb[:, 0] - 1.0).max() <= 1e-12


def test_approach2_division_hazard():
    eig = eigendecompose(np.diag([0.0, 1.0, 2.0]))  # ground mode has zero entries
    with pytest.raises(NumericError):
        spectral_embedding(eig, 2, "approach2")


def test_embedding_distance_matches_projector_form():
    _, eig = random_geometric_graph(4, 30)
    q = 5
    emb = spectral_embedding(eig, q, "none")
    chi = eig.modes[:, :q] @ eig.modes[:, :q].T
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(0, 30, size=2)
        expected = math.sqrt(max(chi[i, i] + chi[j, j] - chi[i, j] - chi[j, i], 0.0))
        assert embedding_distance(emb, int(i), int(j)) == pytest.approx(expected, abs=1e-12)


def test_outlier_distances_frozen_case():
    alpha = beta = 1.0 / math.sqrt(2.0)
    out = two_cluster_outlier_distances(alpha, beta, 0.5, 1.0)
    d_ij, d_ik, d_jk = out["none"]
    assert d_ij == pytest.approx(1.4142135623730951, abs=1e-12)
    assert d_ik == pytest.approx(0.5, abs=1e-12)
    assert d_jk == pytest.approx(1.118033988749895, abs=1e-12)
    assert out["approach1"][0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert out["approach1"][1] == pytest.approx(0.0, abs=1e-12)
    assert out["approach1"][2] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert out["approach2"][0] == pytest.approx(1.0 / (alpha * beta), abs=1e-12)
    assert out["approach2"][1] == pytest.approx(0.0, abs=1e-12)
    assert out["approach2"][2] == pytest.approx(1.0 / (alpha * beta), abs=1e-12)


def test_outlier_distances_gamma_one_degenerate():
    alpha = 0.6
    beta = 0.8
    h = 2.0
    out = two_cluster_outlier_distances(alpha, beta, 1.0, h)
    d_ij, d_ik, d_jk = out["none"]
    assert d_ik == pytest.approx(0.0, abs=1e-12)
    assert d_jk == pytest.approx(d_ij, abs=1e-12)
    assert d_ij == pytest.approx(math.sqrt(2.0) * h, abs=1e-12)


def test_outlier_distances_validation():
    with pytest.raises(ParameterError):
        two_cluster_outlier_distances(0.9, 0.9, 0.5, 1.0)
    with pytest.raises(ParameterError):
        two_cluster_outlier_distances(0.6, 0.8, 0.0, 1.0)
    with pytest.raises(ParameterError):
        two_cluster_outlier_distances(0.6, 0.8, 0.5, -1.0)


def test_transition_kernel_two_node(two_node_eig):
    p = transition_kernel(two_node_eig)
    assert np.allclose(p, 0.5, atol=1e-14)


def test_transition_kernel_single_node():
    eig = eigendecompose(np.array([[0.0]]))
    assert np.array_equal(transition_kernel(eig), [[1.0]])


def degenerate_groups_oracle(energies, tol):
    """The per-step loop that splits a sorted spectrum at gaps above tol * max(1, |E|)."""
    groups = []
    start = 0
    for n in range(1, energies.size):
        if energies[n] - energies[n - 1] > tol * max(1.0, abs(energies[n])):
            groups.append(np.arange(start, n))
            start = n
    groups.append(np.arange(start, energies.size))
    return groups


@pytest.mark.parametrize(
    "energies",
    [
        [0.5],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0, 1.0, 2.0],  # exact ties
        [0.0, 0.5e-9, 2e-9, 3e-9, 3.5e-9, 5e-9],  # gaps of 0.5e-9 and 1.5e-9 straddle tol = 1e-9
        [-3.0, -3.0 + 2e-9, -3.0 + 4e-9, 4.0, 4.0 + 3e-9, 4.0 + 5e-9, 4.0 + 1e-8],  # |E| > 1 widens the tolerance
    ],
)
def test_degenerate_groups_match_loop_oracle(energies):
    e = np.array(energies)
    groups = kernels._degenerate_groups(e, 1e-9)
    expected = degenerate_groups_oracle(e, 1e-9)
    assert [g.tolist() for g in groups] == [g.tolist() for g in expected]


def test_degenerate_groups_match_loop_oracle_on_random_spectra():
    for seed in range(5):
        _, eig = random_geometric_graph(seed + 60, 30)
        for tol in (1e-9, 1e-2, 1e-1):
            groups = kernels._degenerate_groups(eig.energies, tol)
            expected = degenerate_groups_oracle(eig.energies, tol)
            assert [g.tolist() for g in groups] == [g.tolist() for g in expected]


def test_transition_kernel_degenerate_blocks():
    h = np.zeros((4, 4))
    h[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    h[2:, 2:] = [[1.0, -1.0], [-1.0, 1.0]]
    p = transition_kernel(eigendecompose(h))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    expected[2:, 2:] = 0.5
    assert np.abs(p - expected).max() < 1e-12


def test_transition_kernel_row_sums_and_range():
    for seed in range(3):
        _, eig = random_geometric_graph(seed + 30, 25)
        p = transition_kernel(eig)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10
        assert p.min() > 0.0
        assert p.max() <= 1.0 + 1e-12


def test_transition_kernel_matches_time_average():
    _, eig = random_geometric_graph(5, 8)
    p = transition_kernel(eig)
    min_gap = max(float(np.diff(eig.energies).min()), 1e-8)
    horizon = 1e4 / min_gap
    ts = np.random.default_rng(7).uniform(0.0, horizon, 100_000)
    acc = np.zeros((8, 8))
    for lo in range(0, ts.size, 2000):
        phase = np.exp(-1j * np.outer(eig.energies, ts[lo : lo + 2000]))
        walk = np.einsum("in,nk,jn->ijk", eig.modes, phase, eig.modes, optimize=True)
        acc += (np.abs(walk) ** 2).sum(axis=2)
    assert np.abs(p - acc / ts.size).max() < 1e-2


@pytest.mark.parametrize("budget", [1, 7, kernels._TILE_ENTRIES])
def test_symmetrize_in_place_matches_the_whole_matrix_formula(monkeypatch, budget):
    rng = np.random.default_rng(budget)
    a = rng.normal(size=(13, 13)) * 10.0 ** rng.integers(-300, 300, size=(13, 13))
    special = rng.random(a.shape) < 0.2
    a[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, 5e-324], size=int(special.sum()))
    monkeypatch.setattr(kernels, "_TILE_ENTRIES", budget)
    expected = (a + a.T) / 2.0
    assert kernels._symmetrize(a).tobytes() == expected.tobytes()


def test_laplace_similarity_two_node_hand_value(two_node_eig):
    s_matrix = laplace_similarity(two_node_eig, 1.0)
    assert s_matrix[0, 0] == 1.0
    assert s_matrix[0, 1] == pytest.approx(0.4 / 0.6, abs=1e-12)


def test_laplace_similarity_bounds():
    for seed in range(3):
        _, eig = random_geometric_graph(seed + 40, 20)
        s_matrix = laplace_similarity(eig, 0.5)
        assert np.array_equal(np.diag(s_matrix), np.ones(20))
        assert s_matrix.max() <= 1.0
        assert s_matrix.min() >= 0.0


def test_jsd_zero_diagonal_and_bound():
    _, eig = random_geometric_graph(6, 15)
    d = jsd_matrix(eig)
    assert np.array_equal(np.diag(d), np.zeros(15))
    assert d.max() <= math.log(2.0)
    assert d.min() >= 0.0
    assert np.abs(d - d.T).max() == 0.0


def test_jsd_orthogonal_supports_saturate():
    eig = eigendecompose(np.diag([0.0, 0.4, 1.1]))
    d = jsd_matrix(eig)
    off = d[~np.eye(3, dtype=bool)]
    assert np.abs(off - math.log(2.0)).max() < 1e-12


def test_jsd_takes_no_log_of_zero_on_a_disconnected_graph():
    # two clouds 1e3 apart: the cross-cloud weights underflow to 0 and every mode vanishes on one cloud
    rng = np.random.default_rng(0)
    points = np.vstack([rng.normal(size=(6, 2)) * 0.1, rng.normal(size=(5, 2)) * 0.1 + 1e3])
    eig = eigendecompose(build_graph(PointSet(points), 0.3).hamiltonian)
    assert (eig.modes == 0.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = jsd_matrix(eig)
    assert np.abs(d[:6, 6:] - math.log(2.0)).max() < 1e-12


def test_jsd_matches_von_neumann_oracle():
    _, eig = random_geometric_graph(7, 12)
    d = jsd_matrix(eig)

    def entropy(rho):
        w = np.linalg.eigvalsh(rho)
        w = w[w > 1e-300]
        return float(-(w * np.log(w)).sum())

    def rho_bar(j):
        weights = eig.modes[j, :] ** 2
        return (eig.modes * weights) @ eig.modes.T

    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = (int(v) for v in rng.integers(0, 12, size=2))
        expected = entropy((rho_bar(i) + rho_bar(j)) / 2) - 0.5 * entropy(rho_bar(i)) - 0.5 * entropy(rho_bar(j))
        assert d[i, j] == pytest.approx(max(expected, 0.0), abs=1e-10)


def test_sqrt_jsd_triangle_inequality():
    _, eig = random_geometric_graph(8, 20)
    root = np.sqrt(jsd_matrix(eig))
    rng = np.random.default_rng(1)
    for _ in range(500):
        i, j, k = (int(v) for v in rng.integers(0, 20, size=3))
        assert root[i, j] <= root[i, k] + root[k, j] + 1e-9


def test_spectral_cluster_three_disconnected_sticks():
    pts = gen_sticks(3, length=1.0, gap=50.0, n_per=30, density_profile="uniform", jitter=0.005, seed=0)
    graph = build_graph(pts, 0.05)
    eig = eigendecompose(graph.hamiltonian)
    labels = spectral_cluster(eig, 3, seed=0)
    assert ari(labels, pts.truth) == 1.0


def test_spectral_cluster_q_one():
    _, eig = random_geometric_graph(9, 10)
    assert set(spectral_cluster(eig, 1, seed=0).tolist()) == {0}


def test_kernels_reusable_as_adjacency():
    # P and the consensus matrix are symmetric nonnegative with positive row
    # sums, so they plug straight into the Laplacian builder as similarity
    from qtclust import gen_gaussian_clouds, qtc
    from qtclust.graph import laplacians

    pts = gen_gaussian_clouds([(0, 0), (0.6, 0), (0.3, 0.52)], 0.1, 40, seed=0)
    graph = build_graph(pts, 0.1)
    eig = eigendecompose(graph.hamiltonian)
    p_graph = laplacians(transition_kernel(eig))
    labels = spectral_cluster(eigendecompose(p_graph.hamiltonian), 3, seed=0)
    assert ari(labels, pts.truth) == 1.0

    consensus = qtc(pts, eps=0.1, q=3, seed=0, summary="consensus").consensus
    c_graph = laplacians(consensus)
    labels = spectral_cluster(eigendecompose(c_graph.hamiltonian), 3, seed=0)
    assert ari(labels, pts.truth) == 1.0
