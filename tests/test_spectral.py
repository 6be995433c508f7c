import numpy as np
import pytest

from qtclust import (
    InputError,
    LaplaceParams,
    ParameterError,
    PointSet,
    count_low_energy,
    eigendecompose,
    gap_stats,
    gen_gaussian_clouds,
    gen_tetrahedron,
    build_graph,
    low_energies,
    solve_source,
    transport_source,
)
from qtclust import graph as graph_module
from qtclust import spectral as spectral_module
from qtclust.graph import gaussian_adjacency, laplacians, pairwise_distances, quantile_proximity

from conftest import random_geometric_graph


def test_two_node_hand_diagonalization(two_node_eig):
    # modes carry no sign convention, so each is checked through its projector v v^T
    assert np.array_equal(two_node_eig.energies, [0.0, 2.0])
    v = two_node_eig.modes
    assert np.allclose(np.outer(v[:, 0], v[:, 0]), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert np.allclose(np.outer(v[:, 1], v[:, 1]), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_connected_graph_ground_state():
    # the input of random_geometric_graph(0, 30), built step by step to keep the adjacency
    rng = np.random.default_rng(0)
    dist = pairwise_distances(PointSet(rng.normal(size=(30, 2))))
    adjacency = gaussian_adjacency(dist, quantile_proximity(dist, float(rng.uniform(0.15, 0.5))))
    eig = eigendecompose(laplacians(adjacency).hamiltonian)
    assert eig.energies[0] == 0.0
    expected = np.sqrt(adjacency.sum(axis=1))
    expected /= np.linalg.norm(expected)
    assert np.abs(np.abs(eig.modes[:, 0]) - expected).max() < 1e-8


def test_diagonal_matrix_sorted_diagonal():
    eig = eigendecompose(np.diag([0.5, -0.3, 2.0]))
    assert np.allclose(eig.energies, [-0.3, 0.5, 2.0], atol=1e-12)


def test_rejects_asymmetric():
    with pytest.raises(InputError):
        eigendecompose(np.array([[1.0, 0.2], [0.4, 1.0]]))


def test_orthonormality_and_residual():
    for seed in range(3):
        _, eig = random_geometric_graph(seed, 60)
        gram = eig.modes.T @ eig.modes
        assert np.abs(gram - np.eye(60)).max() < 1e-10


def test_reconstruction_on_random_graphs():
    for seed in range(3):
        graph, eig = random_geometric_graph(seed + 10, 120)
        rebuilt = (eig.modes * eig.energies) @ eig.modes.T
        assert np.abs(rebuilt - graph.hamiltonian).max() < 1e-8
        residual = graph.hamiltonian @ eig.modes - eig.modes * eig.energies
        assert np.abs(residual).max() < 1e-8


def test_spectrum_bound():
    for seed in range(3):
        _, eig = random_geometric_graph(seed + 20, 50)
        assert eig.energies[0] >= 0.0
        assert eig.energies[-1] <= 2.0 + 1e-9


def test_zero_modes_count_connected_components():
    # three clusters far enough apart that the Gaussian weights underflow to
    # exact zero, giving a graph with three true components
    pts = gen_gaussian_clouds([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], 0.05, 8, seed=3)
    dist = pairwise_distances(pts)
    adj = gaussian_adjacency(dist, quantile_proximity(dist, 0.3))
    graph = laplacians(adj)
    eig = eigendecompose(graph.hamiltonian)
    n_zero = int((eig.energies < 1e-8).sum())

    # union-find oracle on the thresholded adjacency
    parent = list(range(pts.m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(pts.m):
        for j in range(i + 1, pts.m):
            if adj[i, j] > 0.0:
                parent[find(i)] = find(j)
    n_components = len({find(i) for i in range(pts.m)})
    assert n_components == 3
    assert n_zero == n_components


def test_gap_stats_small_examples():
    eig = eigendecompose(np.diag([0.0, 0.1, 2.0]))
    rep = gap_stats(eig.energies, 2)
    assert rep.first_gap == pytest.approx(0.1, abs=1e-12)
    assert rep.avg_gap == pytest.approx(0.1, abs=1e-12)
    assert rep.next_ratio == pytest.approx(20.0, rel=1e-9)

    eig = eigendecompose(np.diag([0.0, 0.1, 0.2, 3.0]))
    rep = gap_stats(eig.energies, 3)
    assert rep.avg_gap == pytest.approx(0.1, abs=1e-12)
    assert rep.next_ratio == pytest.approx(15.0, rel=1e-9)


def test_gap_stats_validates_q():
    eig = eigendecompose(np.diag([0.0, 1.0]))
    with pytest.raises(ParameterError):
        gap_stats(eig.energies, 1)
    with pytest.raises(ParameterError):
        gap_stats(eig.energies, 3)


def test_count_low_energy_explicit_spectrum():
    energies = np.array([0.0, 1e-6, 1e-6, 0.5, 0.6, 0.7])
    assert count_low_energy(energies) == 3


def test_count_low_energy_single_cloud():
    pts = gen_gaussian_clouds([(0.0, 0.0)], 0.1, 80, seed=7)
    graph = build_graph(pts, 0.1)
    eig = eigendecompose(graph.hamiltonian)
    assert count_low_energy(eig.energies) == 1


def test_count_low_energy_tetrahedron_three_clusters():
    pts = gen_tetrahedron(q=3, sigma=0.1, n_per=60, seed=0)
    graph = build_graph(pts, 0.1)
    eig = eigendecompose(graph.hamiltonian)
    rep = gap_stats(eig.energies, 3)
    assert rep.low_count == 3
    assert count_low_energy(eig.energies) == 3


def test_count_low_energy_validation():
    eig = eigendecompose(np.array([[1.0]]))
    with pytest.raises(ParameterError):
        count_low_energy(eig.energies)


def test_determinism():
    graph, _ = random_geometric_graph(42, 40)
    a = eigendecompose(graph.hamiltonian)
    b = eigendecompose(graph.hamiltonian)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.modes, b.modes)


def test_eigendecompose_equals_symmetrized_eigh_bit_for_bit():
    for seed in range(3):
        graph, eig = random_geometric_graph(seed, 50)
        h = graph.hamiltonian
        assert np.array_equal(h, h.T)
        energies, modes = np.linalg.eigh((h + h.T) / 2.0)
        energies[np.abs(energies) < 1e-10] = 0.0
        assert eig.energies.tobytes() == energies.tobytes()
        assert eig.modes.tobytes() == modes.tobytes()


def test_eigendecompose_reads_lower_triangle_of_near_symmetric_input():
    graph, _ = random_geometric_graph(5, 30)
    h = graph.hamiltonian.copy()
    h[np.triu_indices(30, 1)] += 1e-12  # within the symmetry tolerance
    lower = np.tril(h) + np.tril(h, -1).T
    a, b = eigendecompose(h), eigendecompose(lower)
    assert a.energies.tobytes() == b.energies.tobytes()
    assert a.modes.tobytes() == b.modes.tobytes()


def test_low_energies_small_cases_and_validation():
    # a repeated eigenvalue comes back as often as asked for, the whole spectrum when k = m
    assert np.abs(low_energies(np.eye(12), 3) - 1.0).max() <= 1e-14
    assert np.abs(low_energies(np.diag(np.arange(20.0)[::-1]), 20) - np.arange(20.0)).max() <= 1e-13
    assert low_energies(np.zeros((5, 5)), 2).tolist() == [0.0, 0.0]
    graph, _ = random_geometric_graph(3, 40)
    assert low_energies(graph.hamiltonian, 4).tobytes() == low_energies(graph.hamiltonian, 4).tobytes()
    for k in (0, 6):
        with pytest.raises(ParameterError):
            low_energies(np.eye(5), k)
    with pytest.raises(InputError):
        low_energies(np.array([[1.0, 0.2], [0.4, 1.0]]), 1)


@pytest.mark.parametrize(
    "route",
    [
        eigendecompose,
        lambda h: low_energies(h, 3),
        lambda h: solve_source(h, 0.5),
        # checks H once for both of its stages
        lambda h: transport_source(h, 2, LaplaceParams(rule="explicit", multiplier=0.5)),
    ],
    ids=["eigh", "lanczos", "solve", "transport_source"],
)
@pytest.mark.parametrize("tile_rows", [1, 3, 7])
def test_tiled_symmetry_check_sees_every_entry(monkeypatch, tile_rows, route):
    # square tiles of side 3, 5 and 8 on an 11 x 11 matrix, so the last tile of each row is partial
    monkeypatch.setattr(graph_module, "_tile_rows", lambda m: tile_rows)
    b = np.random.default_rng(tile_rows).normal(size=(11, 11))
    h = b + b.T
    for i in range(11):
        for j in range(11):
            if i == j:
                continue
            a = h.copy()
            a[i, j] += 2e-10
            with pytest.raises(InputError):
                route(a)
            a[i, j] = h[i, j] + 5e-11
            route(a)


def test_lanczos_residuals_from_images_match_direct_products(monkeypatch):
    seen = []

    def checked(images, basis, projected, k):
        ritz, residual = ritz_pairs(images, basis, projected, k)
        x = basis @ np.linalg.eigh(projected)[1][:, :k]
        assert np.abs(residual - np.linalg.norm(h @ x - x * ritz, axis=0)).max() <= 1e-12
        seen.append(basis.shape[1])
        return ritz, residual

    ritz_pairs = spectral_module._ritz_pairs
    monkeypatch.setattr(spectral_module, "_ritz_pairs", checked)
    for seed, m, pieces in ((0, 60, 1), (1, 90, 1), (2, 120, 3)):
        graph, eig = random_geometric_graph(seed, m, pieces=pieces)
        h = graph.hamiltonian
        seen.clear()
        energies = low_energies(h, 4)
        assert seen and np.abs(energies - eig.energies[:4]).max() <= 1e-10
