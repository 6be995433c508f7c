import numpy as np
import pytest

from qtclust import (
    EigenSystem,
    InputError,
    ParameterError,
    PointSet,
    count_low_energy,
    eigendecompose,
    gap_stats,
    gen_gaussian_clouds,
    gen_tetrahedron,
    build_graph,
)
from qtclust.graph import gaussian_adjacency, laplacians, pairwise_distances, quantile_proximity

from conftest import random_geometric_graph


def test_two_node_hand_diagonalization(two_node_eig):
    assert np.array_equal(two_node_eig.energies, [0.0, 2.0])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(two_node_eig.modes[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-15)
    assert np.allclose(two_node_eig.modes[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-15)


def test_connected_graph_ground_state():
    graph, eig = random_geometric_graph(0, 30)
    assert eig.energies[0] == 0.0
    expected = np.sqrt(graph.degrees)
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
    rep = gap_stats(eig, 2)
    assert rep.first_gap == pytest.approx(0.1, abs=1e-12)
    assert rep.avg_gap == pytest.approx(0.1, abs=1e-12)
    assert rep.next_ratio == pytest.approx(20.0, rel=1e-9)

    eig = eigendecompose(np.diag([0.0, 0.1, 0.2, 3.0]))
    rep = gap_stats(eig, 3)
    assert rep.avg_gap == pytest.approx(0.1, abs=1e-12)
    assert rep.next_ratio == pytest.approx(15.0, rel=1e-9)


def test_gap_stats_validates_q():
    eig = eigendecompose(np.diag([0.0, 1.0]))
    with pytest.raises(ParameterError):
        gap_stats(eig, 1)
    with pytest.raises(ParameterError):
        gap_stats(eig, 3)


def test_count_low_energy_explicit_spectrum():
    energies = np.array([0.0, 1e-6, 1e-6, 0.5, 0.6, 0.7])
    eig = EigenSystem(energies=energies, modes=np.eye(6))
    assert count_low_energy(eig) == 3


def test_count_low_energy_single_cloud():
    pts = gen_gaussian_clouds([(0.0, 0.0)], 0.1, 80, seed=7)
    graph = build_graph(pts, 0.1)
    eig = eigendecompose(graph.hamiltonian)
    assert count_low_energy(eig) == 1


def test_count_low_energy_tetrahedron_three_clusters():
    pts = gen_tetrahedron(q=3, sigma=0.1, n_per=60, seed=0)
    graph = build_graph(pts, 0.1)
    eig = eigendecompose(graph.hamiltonian)
    rep = gap_stats(eig, 3)
    assert rep.low_count == 3
    assert count_low_energy(eig) == 3


def test_count_low_energy_validation():
    eig = eigendecompose(np.array([[1.0]]))
    with pytest.raises(ParameterError):
        count_low_energy(eig)


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
        signs = np.sign(modes[np.abs(modes).argmax(axis=0), np.arange(50)])
        signs[signs == 0.0] = 1.0
        assert eig.energies.tobytes() == energies.tobytes()
        assert eig.modes.tobytes() == (modes * signs).tobytes()


def test_eigendecompose_reads_lower_triangle_of_near_symmetric_input():
    graph, _ = random_geometric_graph(5, 30)
    h = graph.hamiltonian.copy()
    h[np.triu_indices(30, 1)] += 1e-12  # within the symmetry tolerance
    lower = np.tril(h) + np.tril(h, -1).T
    a, b = eigendecompose(h), eigendecompose(lower)
    assert a.energies.tobytes() == b.energies.tobytes()
    assert a.modes.tobytes() == b.modes.tobytes()
