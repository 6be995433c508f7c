import math

import numpy as np
import pytest

from qtclust import graph as graph_module
from qtclust import (
    InputError,
    IsolatedNodeError,
    ParameterError,
    PointSet,
    gaussian_adjacency,
    laplacians,
    pairwise_distances,
    quantile_proximity,
)


def test_distance_345_triangle():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
    r = pairwise_distances(pts)
    assert r[0, 1] == 5.0
    assert r[1, 0] == 5.0
    assert r[0, 0] == 0.0


def test_distance_identical_points():
    pts = PointSet(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
    assert pairwise_distances(pts).max() == 0.0


def test_distance_matches_double_loop_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 3))
    r = pairwise_distances(PointSet(x))
    for i in range(10):
        for j in range(10):
            expected = math.sqrt(
                (x[i, 0] - x[j, 0]) ** 2 + (x[i, 1] - x[j, 1]) ** 2 + (x[i, 2] - x[j, 2]) ** 2
            )
            assert r[i, j] == expected


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(1)
    r = pairwise_distances(PointSet(rng.normal(size=(30, 4))))
    assert np.abs(r - r.T).max() == 0.0
    idx = rng.integers(0, 30, size=(200, 3))
    for i, j, k in idx:
        assert r[i, j] <= r[i, k] + r[k, j] + 1e-12


def test_distance_rejects_non_finite():
    with pytest.raises(InputError):
        pairwise_distances(np.array([[0.0, np.nan], [1.0, 2.0]]))


def test_quantile_median_of_four():
    dist = np.zeros((5, 5))
    vals = [1.0, 2.0, 3.0, 4.0]
    # place the four positive values in the strict upper triangle
    dist[0, 1] = dist[1, 0] = vals[0]
    dist[0, 2] = dist[2, 0] = vals[1]
    dist[0, 3] = dist[3, 0] = vals[2]
    dist[0, 4] = dist[4, 0] = vals[3]
    assert quantile_proximity(dist, 0.5) == 2.5


def test_quantile_near_one_is_max():
    rng = np.random.default_rng(2)
    r = pairwise_distances(PointSet(rng.normal(size=(20, 2))))
    upper = r[np.triu_indices(20, 1)]
    assert quantile_proximity(r, 1 - 1e-12) == pytest.approx(upper.max(), rel=1e-9)


def test_quantile_matches_sorting_oracle():
    rng = np.random.default_rng(3)
    r = pairwise_distances(PointSet(rng.normal(size=(50, 2))))
    eps = 0.1
    vals = np.sort(r[np.triu_indices(50, 1)])
    vals = vals[vals > 0]
    # linear interpolation between order statistics
    pos = (vals.size - 1) * eps
    lo = int(math.floor(pos))
    frac = pos - lo
    expected = vals[lo] + frac * (vals[lo + 1] - vals[lo])
    assert quantile_proximity(r, eps) == pytest.approx(expected, abs=1e-12)


def _triu_quantile_oracle(dist, eps):
    upper = dist[np.triu_indices(dist.shape[0], k=1)]
    return float(np.quantile(upper[upper > 0.0], eps))


@pytest.mark.parametrize(
    "points",
    [
        np.random.default_rng(7).normal(size=(60, 3)),  # random
        np.random.default_rng(8).integers(0, 4, size=(50, 2)).astype(float),  # grid: many tied distances
        np.repeat(np.random.default_rng(9).normal(size=(15, 2)), 3, axis=0),  # duplicate points: zero distances
    ],
)
def test_quantile_matches_triu_indices_formula_exactly(points):
    dist = pairwise_distances(PointSet(points))
    for eps in (0.01, 0.1, 0.3, 0.5, 0.77, 0.99):
        assert quantile_proximity(dist, eps) == _triu_quantile_oracle(dist, eps)


def test_quantile_parameter_validation():
    r = pairwise_distances(PointSet(np.array([[0.0], [1.0]])))
    with pytest.raises(ParameterError):
        quantile_proximity(r, 0.0)
    with pytest.raises(ParameterError):
        quantile_proximity(r, 1.0)


def test_quantile_all_zero_distances():
    with pytest.raises(InputError):
        quantile_proximity(np.zeros((3, 3)), 0.5)


def test_gaussian_adjacency_analytic_values():
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    a = gaussian_adjacency(dist, 1.0)
    assert a[0, 0] == 1.0
    assert a[0, 1] == pytest.approx(0.36787944117144233, abs=1e-15)
    assert a[0, 2] == pytest.approx(1.2340980408667956e-4, rel=1e-12)


def test_gaussian_adjacency_bad_scale():
    with pytest.raises(ParameterError):
        gaussian_adjacency(np.zeros((2, 2)), 0.0)
    with pytest.raises(ParameterError):
        gaussian_adjacency(np.zeros((2, 2)), -1.0)


def test_laplacians_two_node_hand_values():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    g = laplacians(a)
    assert np.array_equal(g.degrees, [2.0, 2.0])
    assert g.hamiltonian[0, 1] == pytest.approx(-0.5, abs=1e-15)
    assert g.hamiltonian[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_laplacian_row_sums_and_ground_identity():
    rng = np.random.default_rng(4)
    dist = pairwise_distances(PointSet(rng.normal(size=(25, 2))))
    a = gaussian_adjacency(dist, quantile_proximity(dist, 0.3))
    g = laplacians(a)
    laplacian = np.diag(g.degrees) - a
    assert np.abs(laplacian @ np.ones(25)).max() < 1e-12
    assert np.abs(g.hamiltonian @ np.sqrt(g.degrees)).max() < 1e-10


def test_graph_symmetry_invariants():
    rng = np.random.default_rng(5)
    dist = pairwise_distances(PointSet(rng.normal(size=(40, 3))))
    a = gaussian_adjacency(dist, quantile_proximity(dist, 0.25))
    g = laplacians(a)
    assert np.abs(a - a.T).max() == 0.0
    assert np.abs(g.hamiltonian - g.hamiltonian.T).max() <= 1e-12


def test_adjacency_scale_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 2))
    c = 7.3
    r1 = pairwise_distances(PointSet(x))
    r2 = pairwise_distances(PointSet(c * x))
    r_eps = quantile_proximity(r1, 0.2)
    a1 = gaussian_adjacency(r1, r_eps)
    a2 = gaussian_adjacency(r2, c * r_eps)
    assert np.abs(a1 - a2).max() <= 1e-12


def test_laplacians_isolated_node():
    a = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(IsolatedNodeError):
        laplacians(a)


def test_laplacians_rejects_asymmetric_and_negative():
    with pytest.raises(InputError):
        laplacians(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError):
        laplacians(np.array([[1.0, -0.5], [-0.5, 1.0]]))


def _reference_hamiltonian(a):
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    h = np.eye(a.shape[0]) - a * inv_sqrt[:, None] * inv_sqrt[None, :]
    return (h + h.T) / 2.0


@pytest.mark.parametrize("tile_rows", [None, 1, 7, 40])
def test_laplacians_in_place_build_is_bit_identical(monkeypatch, tile_rows):
    if tile_rows is not None:
        monkeypatch.setattr(graph_module, "_tile_rows", lambda m: tile_rows)
    rng = np.random.default_rng(7)
    dist = pairwise_distances(PointSet(rng.normal(size=(53, 2))))
    a = gaussian_adjacency(dist, quantile_proximity(dist, 0.2))
    a[a < 0.05] = 0.0  # exact zeros, where -0.0 would differ by bytes
    g = laplacians(a)
    assert g.hamiltonian.tobytes() == _reference_hamiltonian(a).tobytes()


def test_laplacians_tiled_symmetry_check_sees_every_tile(monkeypatch):
    monkeypatch.setattr(graph_module, "_tile_rows", lambda m: 3)
    a = np.ones((10, 10))
    a[9, 4] = 0.5
    with pytest.raises(InputError):
        laplacians(a)
    a = np.ones((10, 10))
    a[0, 9] = 1.0 + 1e-9
    with pytest.raises(InputError):
        laplacians(a)


def test_gaussian_adjacency_in_place_is_bit_identical():
    rng = np.random.default_rng(8)
    dist = pairwise_distances(PointSet(rng.normal(size=(30, 3))))
    r_eps = quantile_proximity(dist, 0.3)
    assert gaussian_adjacency(dist, r_eps).tobytes() == np.exp(-np.square(dist / r_eps)).tobytes()


def test_pointset_truth_length_checked():
    with pytest.raises(InputError):
        PointSet(np.zeros((3, 2)), truth=[0, 1])
