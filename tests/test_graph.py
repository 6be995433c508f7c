import math
import os
import sys

import numpy as np
import pytest

from qtclust import graph as graph_module
from qtclust import transport
from qtclust import (
    InputError,
    IsolatedNodeError,
    ParameterError,
    PointSet,
    gaussian_adjacency,
    laplacians,
    pairwise_distances,
    quantile_proximity,
    solve_source,
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
    # both branches of the shared kernel: in-order sums below 8 dimensions, numpy's pairwise sum from 8 on
    for d in (1, 2, 7, 8, 9):
        x = rng.normal(size=(13, d)) * rng.uniform(0.5, 2e3, size=d)
        r = pairwise_distances(x)
        for i in range(13):
            for j in range(13):
                assert r[i, j] == np.sqrt(((x[i] - x[j]) ** 2).sum())


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
    """``np.quantile`` of ``dist[triu & (dist > 0)]``, the positive distances above the diagonal in row order."""
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
def test_quantile_matches_triu_indices_formula_exactly(monkeypatch, points):
    dist = pairwise_distances(PointSet(points))
    before = dist.copy()
    # the gather in one tile, in tiles of one row, and in tiles of 7 rows with a ragged last tile
    for tile_rows in (None, 1, 7):
        if tile_rows is not None:
            monkeypatch.setattr(graph_module, "_tile_rows", lambda m, rows=tile_rows: rows)
        for eps in (0.01, 0.1, 0.3, 0.5, 0.77, 0.99):
            got = np.float64(quantile_proximity(dist, eps))
            assert got.tobytes() == np.float64(_triu_quantile_oracle(dist, eps)).tobytes()
    assert dist.tobytes() == before.tobytes()


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
    assert g.hamiltonian[0, 1] == pytest.approx(-0.5, abs=1e-15)
    assert g.hamiltonian[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_laplacian_row_sums_and_ground_identity():
    rng = np.random.default_rng(4)
    dist = pairwise_distances(PointSet(rng.normal(size=(25, 2))))
    a = gaussian_adjacency(dist, quantile_proximity(dist, 0.3))
    g = laplacians(a)
    degrees = a.sum(axis=1)
    laplacian = np.diag(degrees) - a
    assert np.abs(laplacian @ np.ones(25)).max() < 1e-12
    assert np.abs(g.hamiltonian @ np.sqrt(degrees)).max() < 1e-10


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


def test_laplacians_rejects_asymmetric_and_negative(monkeypatch):
    with pytest.raises(InputError):
        laplacians(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError):
        laplacians(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    # one row per tile: the checks keep their order at any worker count, whichever tile a worker reaches first
    monkeypatch.setattr(graph_module, "_tile_rows", lambda m: 1)
    for workers in (1, 2, 3):
        monkeypatch.setattr(graph_module, "_worker_count", lambda: workers)
        a = np.ones((9, 9))
        a[1, 7] = 0.5  # asymmetric in an early tile
        a[8, 2] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            laplacians(a)
        a[8, 2] = a[2, 8] = -1.0
        with pytest.raises(InputError, match="symmetric"):
            laplacians(a)
        a[1, 7] = 1.0
        a[4] = a[:, 4] = 0.0
        with pytest.raises(InputError, match="nonnegative"):
            laplacians(a)
        a[8, 2] = a[2, 8] = 1.0
        with pytest.raises(IsolatedNodeError, match="node 4"):
            laplacians(a)


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


OFF_DIAGONAL_11 = [(i, j) for i in range(11) for j in range(11) if i != j]


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
    # square tiles of side 3, 5 and 8, none of which divides m = 11: every entry above and below the
    # diagonal is compared, beyond the 1e-12 tolerance it raises, within it it passes
    for tile_rows in (1, 3, 7):
        monkeypatch.setattr(graph_module, "_tile_rows", lambda m, rows=tile_rows: rows)
        for i, j in OFF_DIAGONAL_11:
            a = np.ones((11, 11))
            a[i, j] += 2e-12
            with pytest.raises(InputError):
                laplacians(a)
            a[i, j] = 1.0 + 5e-13
            laplacians(a)


GRAPH_POINTS = {
    "random": np.random.default_rng(11).normal(size=(53, 2)),
    "d9": np.random.default_rng(12).normal(size=(41, 9)) * np.geomspace(0.5, 2e3, 9),
    "duplicates": np.repeat(np.random.default_rng(13).normal(size=(18, 3)), 3, axis=0),
}


@pytest.mark.parametrize("tile_rows", [2, 7])
@pytest.mark.parametrize("points", GRAPH_POINTS.values(), ids=GRAPH_POINTS.keys())
def test_graph_stages_and_transport_matrix_are_bitwise_equal_at_any_worker_count(monkeypatch, points, tile_rows):
    # m = 53, 41 and 54 rows in tiles of 2 or 7 rows and square tiles of side 10-19: no m is a multiple
    monkeypatch.setattr(graph_module, "_tile_rows", lambda m: tile_rows)
    matrices = []
    monkeypatch.setattr(transport, "_ldlt_in_place", lambda a: matrices.append(a.copy()))

    def stages():
        dist = pairwise_distances(points)
        adjacency = gaussian_adjacency(dist, quantile_proximity(dist, 0.2))
        h = laplacians(adjacency).hamiltonian
        solve_source(h, 0.3)(np.arange(0), 1)
        return [dist, adjacency, h, matrices[-1]]

    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(graph_module, "_worker_count", lambda: workers)
        results[workers] = [x.tobytes() for x in stages()]
    assert results[2] == results[1] and results[3] == results[1]
    h = np.frombuffer(results[1][2]).reshape(len(points), -1)
    a = h * 1j
    a.flat[:: len(points) + 1] += 0.3
    assert results[1][3] == a.tobytes()


def test_gaussian_adjacency_in_place_is_bit_identical():
    rng = np.random.default_rng(8)
    dist = pairwise_distances(PointSet(rng.normal(size=(30, 3))))
    r_eps = quantile_proximity(dist, 0.3)
    before = dist.copy()
    assert gaussian_adjacency(dist, r_eps).tobytes() == np.exp(-np.square(dist / r_eps)).tobytes()
    assert dist.tobytes() == before.tobytes()


def test_pointset_truth_length_checked():
    with pytest.raises(InputError):
        PointSet(np.zeros((3, 2)), truth=[0, 1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pairwise_distances_overflow_names_the_points():
    # each point is within 1e154 of the origin, but points 1 and 3 are 1.6e154 apart
    x = np.array([[0.0, 0.0], [8e153, 0.0], [0.0, 1.0], [-8e153, 0.0]])
    with pytest.raises(InputError, match="points 1 and 3 are too far apart"):
        pairwise_distances(x)
    assert pairwise_distances(np.array([[1e153, 0.0], [-1e153, 0.0]]))[0, 1] == 2e153


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pairwise_distances_overflow_in_a_later_tile_names_the_points(monkeypatch):
    # tiles of two rows: the pair (4, 6) overflows in a tile of its own, and the pair (6, 4) in a later
    # one, which another worker may reach first
    for workers, d in ((1, 9), (2, 2), (2, 9), (3, 2)):
        monkeypatch.setattr(graph_module, "_worker_count", lambda: workers)
        monkeypatch.setattr(graph_module, "_tile_rows", lambda m, d=d: 2 * (d if d >= 8 else 1))
        x = np.zeros((7, d))
        x[4, d - 1], x[6, d - 1] = 8e153, -8e153
        with pytest.raises(InputError, match="points 4 and 6 are too far apart"):
            pairwise_distances(x)


def test_run_tiles_runs_each_tile_once_with_its_own_scratch_and_raises_the_first_failure(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter allows
    monkeypatch.setattr(graph_module, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hits = np.zeros(500, dtype=int)

        def task(i, scratch):
            scratch[:] = i
            hits[i] += 1
            assert (scratch == i).all()

        graph_module._run_tiles(task, range(500), (3,))
        assert (hits == 1).all()

        def failing(i, _):
            if i in (311, 97, 98):
                raise ValueError(i)

        with pytest.raises(ValueError, match="^97$"):
            graph_module._run_tiles(failing, range(500))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "env, expected",
    [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "64"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, None),
        ({"OPENBLAS_NUM_THREADS": "two"}, None),
    ],
)
def test_worker_count_follows_cpus_and_blas_threads(monkeypatch, env, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert graph_module._worker_count() == (expected or cpus)
