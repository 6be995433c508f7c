import numpy as np
import pytest

from qtclust import (
    FragmentationWarning,
    ParameterError,
    ari,
    kmeans,
    labels_circle_clustering,
    labels_direct_difference,
)
from qtclust import labeling
from qtclust.labeling import _lloyd

from conftest import kmeans_oracle


def test_direct_difference_hand_case():
    phases = np.array([0.0, 0.01, 0.02, 1.5, 1.51, 3.0])
    labels = labels_direct_difference(phases, 3)
    assert np.array_equal(labels, [0, 0, 0, 1, 1, 2])


def test_direct_difference_q_one():
    assert np.array_equal(labels_direct_difference(np.array([0.3, -0.2, 1.0]), 1), [0, 0, 0])


def test_direct_difference_all_equal_warns():
    phases = np.zeros(5)
    with pytest.warns(FragmentationWarning):
        labels = labels_direct_difference(phases, 2)
    # tie broken by index: the first sorted element is split off
    assert labels[0] == 0
    assert np.array_equal(labels[1:], [1, 1, 1, 1])
    assert set(labels) == {0, 1}


def test_direct_difference_contiguous_arcs():
    rng = np.random.default_rng(0)
    for q in (2, 3, 5):
        phases = rng.uniform(-np.pi, np.pi, 40)
        labels = labels_direct_difference(phases, q)
        order = np.argsort(phases, kind="stable")
        changes = int((np.diff(labels[order]) != 0).sum())
        assert changes == q - 1
        assert np.all(np.diff(labels[order]) >= 0)


def test_rotation_invariance_away_from_wraparound():
    rng = np.random.default_rng(1)
    centers = np.array([-1.2, 0.3, 1.7])
    phases = np.concatenate([c + 0.05 * rng.standard_normal(15) for c in centers])
    base_diff = labels_direct_difference(phases, 3)
    base_circ = labels_circle_clustering(phases, 3, seed=0)
    rot = 0.2  # small rotation keeps every big gap away from the cut at pi
    shifted = np.angle(np.exp(1j * (phases + rot)))
    assert ari(labels_direct_difference(shifted, 3), base_diff) == 1.0
    assert ari(labels_circle_clustering(shifted, 3, seed=0), base_circ) == 1.0


def test_circle_clustering_antipodal_split():
    phases = np.concatenate([np.full(10, 0.0), np.full(10, np.pi)])
    labels = labels_circle_clustering(phases, 2, seed=0)
    assert ari(labels, np.repeat([0, 1], 10)) == 1.0


def test_circle_clustering_q_one():
    assert np.array_equal(labels_circle_clustering(np.array([0.1, 0.2, 0.3]), 1, seed=0), [0, 0, 0])


def test_wraparound_cluster_kept_whole_by_circle_method():
    rng = np.random.default_rng(2)
    wrap = np.concatenate([np.pi - 0.02 * rng.random(10), -np.pi + 0.02 * rng.random(10)])
    mid = 0.2 * rng.standard_normal(12)
    phases = np.concatenate([wrap, mid])
    truth = np.repeat([0, 1], [20, 12])
    circle = labels_circle_clustering(phases, 2, seed=0)
    assert ari(circle, truth) == 1.0
    # the chord method cuts sorted order and must break the wrapped cluster
    diff = labels_direct_difference(phases, 2)
    assert ari(diff, truth) < 1.0


def test_circle_clustering_labels_each_row_with_its_seed():
    rng = np.random.default_rng(8)
    block = rng.uniform(-np.pi, np.pi, size=(4, 30))
    seeds = np.array([3, 1, 4, 1])
    labels = labels_circle_clustering(block, 3, seeds)
    assert labels.shape == block.shape
    for row, seed, got in zip(block, seeds, labels):
        assert np.array_equal(got, labels_circle_clustering(row, 3, int(seed)))


def test_labelers_reject_bad_shapes_and_seed_counts():
    block = np.zeros((2, 5))
    for bad in (np.zeros((2, 2, 5)), np.float64(0.5)):
        with pytest.raises(ParameterError):
            labels_direct_difference(bad, 1)
        with pytest.raises(ParameterError):
            labels_circle_clustering(bad, 1, 0)
    for seeds in (0, [0], [0, 1, 2]):
        with pytest.raises(ParameterError, match="one seed per phase field"):
            labels_circle_clustering(block, 2, seeds)
    with pytest.raises(ParameterError, match="one seed per phase field"):
        labels_circle_clustering(block[0], 2, [0])


def test_kmeans_each_point_own_label():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    labels = kmeans(pts, 4, seed=0)
    assert len(set(labels.tolist())) == 4


def test_kmeans_two_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    labels = kmeans(pts, 2, seed=1)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_beats_random_assignments():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    labels = kmeans(pts, 3, seed=0)

    def wcss(assign):
        total = 0.0
        for c in range(3):
            members = pts[assign == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        return total

    ours = wcss(labels)
    for _ in range(50):
        rand = rng.integers(0, 3, size=200)
        assert ours <= wcss(rand) + 1e-9


def test_kmeans_wcss_non_increasing():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(60, 2))
    centers = pts[rng.choice(60, size=4, replace=False)]
    # a run cut after t iterations reports the WCSS of iteration t
    history = [_lloyd(pts, centers[None], max_iter=t, tol=0.0)[1][0] for t in range(1, 51)]
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_empty_cluster_reseed():
    pts = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.0], [9.0, 9.0]])
    # one centroid far away from every point starts empty
    centers = np.array([[0.1, 0.05], [100.0, 100.0]])
    labels, _ = _lloyd(pts, centers[None], max_iter=20, tol=0.0)
    assert set(labels[0].tolist()) == {0, 1}


def test_circle_clustering_matches_sequential_restarts():
    rng = np.random.default_rng(6)
    for seed in range(4):
        phases = np.concatenate([c + 0.4 * rng.standard_normal(100) for c in (-2.0, 0.5, 2.5)])
        circle = np.column_stack([np.cos(phases), np.sin(phases)])
        expected = kmeans_oracle(circle, 3, seed)
        assert np.array_equal(labels_circle_clustering(phases, 3, seed), expected)


def test_kmeans_restart_batches_do_not_change_labels(monkeypatch):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(80, 2))
    expected = kmeans_oracle(pts, 4, 3)
    for budget in (1, 8 * 4 * 80 * 3):  # one restart per batch, three per batch
        monkeypatch.setattr(labeling, "_BATCH_BYTES", budget)
        assert np.array_equal(kmeans(pts, 4, seed=3), expected)


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(50, 2))
    assert np.array_equal(kmeans(pts, 3, seed=9), kmeans(pts, 3, seed=9))


def test_kmeans_validation():
    with pytest.raises(ParameterError):
        kmeans(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(ParameterError):
        kmeans(np.zeros((3, 2)), 0, seed=0)
    with pytest.raises(ParameterError):
        kmeans(np.array([[0.0, 1.0], [np.nan, 0.0]]), 2, seed=0)


def test_kmeans_overflowing_distances_rejected():
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match="overflow"):
        kmeans(np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0], [1.0, 1.0]]), 2, seed=0)
