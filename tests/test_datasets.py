import csv

import numpy as np
import pytest

from qtclust import (
    InputError,
    ParameterError,
    ari,
    gen_annuli,
    gen_gaussian_clouds,
    gen_sticks,
    gen_tetrahedron,
    load_timeseries,
    qtc,
    radius_proportional_counts,
)
from qtclust import datasets
from qtclust.io import load_points_csv, save_points_csv


def test_clouds_balanced_and_centered():
    pts = gen_gaussian_clouds([(-0.3, 0.0), (0.3, 0.0)], 0.1, 100, seed=0)
    assert pts.m == 200
    assert (pts.truth == 0).sum() == 100
    for mu, center in enumerate([(-0.3, 0.0), (0.3, 0.0)]):
        mean = pts.points[pts.truth == mu].mean(axis=0)
        assert np.linalg.norm(mean - center) < 5 * 0.1 / np.sqrt(100)


def test_clouds_single_point_per_center():
    pts = gen_gaussian_clouds([(0.0, 0.0), (5.0, 5.0)], 0.2, 1, seed=1)
    assert pts.m == 2
    assert set(pts.truth.tolist()) == {0, 1}


def test_clouds_validation():
    with pytest.raises(ParameterError):
        gen_gaussian_clouds([(0, 0)], 0.0, 5)


def test_generators_deterministic():
    a = gen_sticks(3, n_per=20, seed=5)
    b = gen_sticks(3, n_per=20, seed=5)
    assert np.array_equal(a.points, b.points)
    c = gen_annuli([0.5, 1.0], 0.1, 30, seed=5)
    d = gen_annuli([0.5, 1.0], 0.1, 30, seed=5)
    assert np.array_equal(c.points, d.points)


def test_sticks_separation():
    gap, jitter = 0.2, 0.01
    pts = gen_sticks(3, length=1.0, gap=gap, n_per=50, jitter=jitter, seed=0)
    for a in range(3):
        for b in range(a + 1, 3):
            xa = pts.points[pts.truth == a]
            xb = pts.points[pts.truth == b]
            min_dist = min(np.linalg.norm(p - q) for p in xa for q in xb)
            assert min_dist >= (b - a) * gap - 6 * jitter


def test_sticks_balanced():
    pts = gen_sticks(4, n_per=25, seed=2)
    assert np.array_equal(np.bincount(pts.truth), [25, 25, 25, 25])


def test_nonuniform_sticks_density_contrast():
    pts = gen_sticks(2, length=1.0, gap=5.0, n_per=400, density_profile="nonuniform", jitter=0.0, seed=3)
    for k in range(2):
        x = np.sort(pts.points[pts.truth == k][:, 0])
        spacing = np.diff(x)
        n = spacing.size
        dense_end = spacing[: n // 10].mean()
        sparse_end = spacing[-n // 10 :].mean()
        assert max(dense_end, sparse_end) / min(dense_end, sparse_end) >= 3.0


def test_annuli_radial_bands():
    radii = [0.5, 1.0, 1.5]
    width = 0.2
    pts = gen_annuli(radii, width, 40, seed=4)
    r = np.linalg.norm(pts.points, axis=1)
    for k, radius in enumerate(radii):
        band = r[pts.truth == k]
        assert band.min() >= radius - width / 2 - 1e-12
        assert band.max() <= radius + width / 2 + 1e-12


def test_annuli_proportional_counts_hierarchy():
    radii = [0.4, 0.8, 1.2, 1.6, 2.0]
    counts = radius_proportional_counts(radii, 40)
    assert np.array_equal(counts, [40, 80, 120, 160, 200])
    pts = gen_annuli(radii, 0.1, counts, seed=0)
    assert np.array_equal(np.bincount(pts.truth), counts)


def test_annuli_single_ring():
    pts = gen_annuli([1.0], 0.1, 25, seed=1)
    assert set(pts.truth.tolist()) == {0}


def test_annuli_overlap_rejected():
    with pytest.raises(ParameterError):
        gen_annuli([0.5, 0.58], 0.1, 10)


@pytest.mark.parametrize("radii, width", [([0.4, np.nan], 0.1), ([0.4, np.inf], 0.1), ([0.4, 0.8], np.inf)])
def test_annuli_non_finite_rejected(radii, width):
    with pytest.raises(ParameterError, match="finite"):
        gen_annuli(radii, width, 10)


def test_tetrahedron_geometry():
    pts = gen_tetrahedron(q=4, sigma=0.1, n_per=5, seed=0)
    assert pts.dim == 3
    centers = np.array([pts.points[pts.truth == mu].mean(axis=0) for mu in range(4)])
    for a in range(4):
        for b in range(a + 1, 4):
            assert np.linalg.norm(centers[a] - centers[b]) == pytest.approx(1.0, abs=0.15)


def test_tetrahedron_separation_ratio():
    # cluster separation over spread: unit edge against sigma = 0.1
    assert 1.0 / 0.1 == 10.0
    with pytest.raises(ParameterError):
        gen_tetrahedron(q=5)


def _write_timeseries(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "price_a", "price_b"])
        writer.writerows(rows)


def test_timeseries_first_row_is_origin(tmp_path):
    path = tmp_path / "ts.csv"
    _write_timeseries(path, [["d0", "10.0", "20.0"], ["d1", "11.0", "19.0"], ["d2", "12.0", "18.0"]])
    pts, dates = load_timeseries(path)
    assert np.array_equal(pts.points[0], [0.0, 0.0])
    assert dates == ["d0", "d1", "d2"]
    assert pts.points[1][0] == pytest.approx(np.log(11.0) - np.log(10.0))


def test_timeseries_constant_prices(tmp_path):
    path = tmp_path / "ts.csv"
    _write_timeseries(path, [["d0", "5", "7"], ["d1", "5", "7"], ["d2", "5", "7"]])
    pts, _ = load_timeseries(path)
    assert np.abs(pts.points).max() == 0.0


def test_timeseries_rejects_bad_input(tmp_path):
    path = tmp_path / "ts.csv"
    _write_timeseries(path, [["d0", "5", "-7"], ["d1", "5", "7"]])
    with pytest.raises(InputError):
        load_timeseries(path)
    with pytest.raises(InputError):
        load_timeseries(tmp_path / "missing.csv")


@pytest.mark.parametrize("bad_row", [["d1", "5", "n/a"], ["d1", "5"]])
def test_timeseries_bad_row_names_file_and_line(tmp_path, bad_row):
    path = tmp_path / "ts.csv"
    _write_timeseries(path, [["d0", "5", "7"], bad_row, ["d2", "5", "7"]])
    with pytest.raises(InputError, match=f"{path}, line 3"):
        load_timeseries(path)


def test_timeseries_jump_is_cut_by_clustering(tmp_path):
    # geometric random walk with one large synchronized jump: the two
    # temporal segments become the two clusters
    rng = np.random.default_rng(11)
    n, jump_at = 240, 120
    steps_a = rng.normal(0.0015, 0.01, n)
    steps_b = rng.normal(-0.0015, 0.01, n)
    steps_a[jump_at] += 0.08
    steps_b[jump_at] -= 0.08
    log_a = np.concatenate([[0.0], np.cumsum(steps_a)])
    log_b = np.concatenate([[0.0], np.cumsum(steps_b)])
    path = tmp_path / "walk.csv"
    _write_timeseries(
        path,
        [
            [f"d{t:04d}", "%.12f" % np.exp(log_a[t] + 1.0), "%.12f" % np.exp(log_b[t] + 2.0)]
            for t in range(n + 1)
        ],
    )
    pts, dates = load_timeseries(path)
    truth = (np.arange(n + 1) > jump_at).astype(int)
    result = qtc(pts, eps=0.1, q=2, seed=0)
    assert ari(result.labels, truth) == 1.0
    changes = np.nonzero(np.diff(result.labels))[0]
    assert changes.tolist() == [jump_at]


def test_ari_identical_and_permuted():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert ari(truth, truth) == 1.0
    assert ari(np.array([2, 2, 0, 0, 1, 1]), truth) == 1.0


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = 40
        a = rng.integers(0, 4, size=m)
        b = rng.integers(0, 3, size=m)
        same_same = same_diff = diff_same = diff_diff = 0
        for i in range(m):
            for j in range(i + 1, m):
                sa = a[i] == a[j]
                sb = b[i] == b[j]
                if sa and sb:
                    same_same += 1
                elif sa and not sb:
                    same_diff += 1
                elif not sa and sb:
                    diff_same += 1
                else:
                    diff_diff += 1
        num = 2.0 * (same_same * diff_diff - same_diff * diff_same)
        den = (same_same + same_diff) * (same_diff + diff_diff) + (same_same + diff_same) * (
            diff_same + diff_diff
        )
        expected = num / den
        assert ari(a, b) == pytest.approx(expected, abs=1e-12)


def test_ari_random_labels_near_zero():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 3, size=200)
    rand = rng.integers(0, 3, size=200)
    assert abs(ari(rand, truth)) < 0.1


def test_points_csv_roundtrip_bit_exact(tmp_path):
    pts = gen_gaussian_clouds([(0, 0), (1, 1)], 0.37, 20, seed=9)
    path = tmp_path / "points.csv"
    save_points_csv(path, pts)
    loaded = load_points_csv(path)
    assert np.array_equal(loaded.points, pts.points)
    assert np.array_equal(loaded.truth, pts.truth)
    # also without labels
    bare = gen_gaussian_clouds([(0, 0)], 1.0, 5, seed=3)
    from qtclust import PointSet

    bare = PointSet(bare.points)
    save_points_csv(path, bare)
    loaded = load_points_csv(path)
    assert np.array_equal(loaded.points, bare.points)
    assert loaded.truth is None


@pytest.mark.parametrize("radii", [[1e308, 1.7e308], [1e-300, 1.0], [0.0, 1.0], [-1.0, 1.0], [0.4, np.inf]])
def test_radius_proportional_counts_rejects_radii_without_finite_counts(radii):
    with pytest.raises(ParameterError, match="radii"):
        radius_proportional_counts(radii, 40)


def test_point_counts_are_capped_at_desk_scale():
    # 2 * 10**7 coordinates: 10**7 points in the plane, fewer in space
    cap = datasets._MAX_COORDINATES
    assert datasets._per_component_counts([cap // 4, cap // 4], 2, "n_per", 2).tolist() == [cap // 4, cap // 4]
    with pytest.raises(ParameterError, match=f"n_per must give at most {cap // 2} points in all, got {cap // 2 + 1}"):
        datasets._per_component_counts([cap // 4, cap // 4 + 1], 2, "n_per", 2)
    with pytest.raises(ParameterError, match=f"at most {cap // 3} points"):
        datasets._per_component_counts(cap // 3, 2, "n_per", 3)
