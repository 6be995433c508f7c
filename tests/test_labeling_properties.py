"""Property tests of the block labelers and the batched k-means against their per-row oracles."""

import itertools
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtclust import FragmentationWarning, kmeans, labeling, labels_circle_clustering, labels_direct_difference
from qtclust.graph import _sq_dist
from qtclust.labeling import _arcs, _lloyd, _nearest, _run_sums

from conftest import direct_difference_oracle, kmeans_oracle, lloyd_oracle

# phases that tie, sit on the cut at +-pi, or are a signed zero
PHASE_SPECIALS = [np.pi, -np.pi, 0.0, -0.0, np.nextafter(np.pi, 0.0), 1.0, -2.5]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_direct_difference_block_matches_per_row_oracle(data):
    rows = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 12))
    q = data.draw(st.integers(1, m))
    phase = st.one_of(st.sampled_from(PHASE_SPECIALS), st.floats(-np.pi, np.pi))
    block = np.array(data.draw(st.lists(st.lists(phase, min_size=m, max_size=m), min_size=rows, max_size=rows)))
    if data.draw(st.booleans()):
        # mirrored fields theta and -theta: each gap off the axis comes twice, bit for bit, so
        # the (q-1)-th and q-th largest gaps are often equal and nonzero
        half = m // 2
        block = np.abs(block)
        block[:, half : 2 * half] = -block[:, :half]
        block = block[:, data.draw(st.permutations(range(m)))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = labels_direct_difference(block, q)
        single = labels_direct_difference(block[0], q)
    expected = [direct_difference_oracle(row, q) for row in block]
    assert got.shape == block.shape
    for k, (labels, _) in enumerate(expected):
        assert np.array_equal(got[k], labels)
    assert np.array_equal(single, expected[0][0])
    # one warning per call that cut tied phases, naming its number of such rows
    counts = [sum(tied for _, tied in expected), int(expected[0][1])]
    messages = [str(w.message) for w in caught if w.category is FragmentationWarning]
    assert messages == [f"{n} phase field(s) cut on tied phases; labels split by index order" for n in counts if n]


@st.composite
def point_sets(draw, max_dim):
    """Up to 40 points in 1..max_dim dimensions, some of them duplicated.

    Coordinates are drawn by hypothesis, or are generic floats whose sums
    round differently in another order, or sit on a coarse grid, which makes
    ties between distances common.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["drawn", "generic", "grid"]))
    if kind == "drawn":
        coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
        x = draw(arrays(np.float64, (n, d), elements=coords))
    elif kind == "generic":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    else:
        x = draw(arrays(np.float64, (n, d), elements=st.integers(-20, 20).map(lambda v: v / 10.0)))
    if draw(st.booleans()):
        x = x[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    return x


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kmeans_matches_sequential_restarts(data):
    x = data.draw(point_sets(max_dim=4))
    k = data.draw(st.integers(1, x.shape[0]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_restarts = data.draw(st.integers(1, 10))
    max_iter = data.draw(st.sampled_from([1, 2, 300]))
    tol = data.draw(st.sampled_from([0.0, 1e-6, 1e-2]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "_N_RESTARTS", n_restarts)
        mp.setattr(labeling, "_MAX_ITER", max_iter)
        mp.setattr(labeling, "_TOL", tol)
        got = kmeans(x, k, seed)
    assert np.array_equal(got, kmeans_oracle(x, k, seed, n_restarts, max_iter, tol))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lloyd_matches_each_restart_with_empty_clusters(data):
    # dimensions up to 9 reach numpy's pairwise summation from 8 terms on
    x = data.draw(point_sets(max_dim=9))
    n, d = x.shape
    k = data.draw(st.integers(1, min(n, 5)))
    n_r = data.draw(st.integers(1, 4))
    rows = data.draw(arrays(np.intp, (n_r, k), elements=st.integers(0, n - 1)))
    centers = x[rows]
    # centers moved far off, or stacked on another center, start with no members
    far = data.draw(arrays(np.bool_, (n_r, k)))
    centers[far] += 1e4
    max_iter = data.draw(st.sampled_from([1, 3, 300]))
    tol = data.draw(st.sampled_from([0.0, 1e-6]))
    labels, wcss = _lloyd(x, centers, max_iter, tol)
    for r in range(n_r):
        expected, _, history = lloyd_oracle(x, centers[r], max_iter, tol)
        assert np.array_equal(labels[r], expected)
        assert wcss[r] == history[-1]


@st.composite
def phase_blocks(draw, q):
    """A block of 1-4 phase fields of at least q phases, its kind and one seed per field.

    Half the blocks have 4 (q(q-1) + 1) or more phases per field, enough for
    circle labeling's Lloyd steps on arcs; the others are labeled by kmeans.
    Continuous fields, concentrated arcs, fields touching +-pi and fields of
    duplicated phases put no point exactly on a bisector of two centers.
    Fields on a 0.1 rad grid, or stacked at both pi and -pi, can.
    """
    rows = draw(st.integers(1, 4))
    arcs = 4 * (q * (q - 1) + 1)
    m = draw(st.integers(arcs, arcs + 10) if draw(st.booleans()) else st.integers(q, arcs - 1))
    kind = draw(st.sampled_from(["continuous", "arcs", "touching", "duplicated", "grid", "stacked"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.uniform(-np.pi, np.pi, (rows, m))
    if kind == "arcs":
        modes = rng.uniform(-np.pi, np.pi, 3)
        block = np.angle(np.exp(1j * (modes[rng.integers(3, size=(rows, m))] + 0.05 * rng.normal(size=(rows, m)))))
    elif kind == "touching":
        # one edge value per field: pi and -pi, or -pi and its neighbour, are distinct points
        # closer than any cut can be placed, as in the stacked fields
        edge = rng.choice([np.pi, -np.pi, np.nextafter(-np.pi, 0.0)], (rows, 1))
        block = np.where(rng.random((rows, m)) < 0.3, edge, block)
    elif kind == "duplicated":
        block = np.take_along_axis(block, rng.integers(max(1, m // 3), size=(rows, m)), axis=1)
    elif kind == "grid":
        block = np.round(block, 1)
    elif kind == "stacked":
        stack = rng.random((rows, m)) < 0.5
        block[stack] = rng.choice([np.pi, -np.pi], stack.sum())
    seeds = rng.integers(0, 2**63 - 1, size=rows)
    return block, kind, seeds


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_circle_clustering_matches_kmeans_oracle(data):
    q = data.draw(st.integers(1, 6))
    block, kind, seeds = data.draw(phase_blocks(q))
    n_restarts = data.draw(st.integers(1, 10))
    max_iter = data.draw(st.sampled_from([1, 2, 300]))
    tol = data.draw(st.sampled_from([0.0, 1e-6, 1e-2]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "_N_RESTARTS", n_restarts)
        mp.setattr(labeling, "_MAX_ITER", max_iter)
        mp.setattr(labeling, "_TOL", tol)
        got = labels_circle_clustering(block, q, seeds)
        rows = [labels_circle_clustering(row, q, int(seed)) for row, seed in zip(block, seeds)]
    assert np.array_equal(got, rows)
    assert got.min() >= 0 and got.max() < q
    if kind not in ("grid", "stacked"):
        # a point on a bisector can take the other center, and the sums add in sorted order
        for row, seed, labels in zip(block, seeds, got):
            circle = np.column_stack([np.cos(row), np.sin(row)])
            assert np.array_equal(labels, kmeans_oracle(circle, q, int(seed), n_restarts, max_iter, tol))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arcs_give_the_nearest_center_away_from_the_cuts(data):
    k = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # centers inside the disk, as means of points on the circle are, or on it, as seeds are
    radius = rng.uniform(0.0, 1.0, k) if data.draw(st.booleans()) else np.ones(k)
    angle = rng.uniform(-np.pi, np.pi, k)
    centers = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    if k > 1 and data.draw(st.booleans()):
        centers[data.draw(st.integers(1, k - 1))] = centers[0]
    if data.draw(st.booleans()):
        centers[data.draw(st.integers(0, k - 1))] = 0.0
    phases = np.sort(np.concatenate([rng.uniform(-np.pi, np.pi, 200), [-np.pi, np.pi]]))
    cuts, arc_labels = _arcs(centers[None])
    got = arc_labels[0, np.searchsorted(cuts[0], phases, side="right")]
    circle = np.column_stack([np.cos(phases), np.sin(phases)])
    expected = _nearest(_sq_dist(circle, centers)[None])[0]
    # the angles where two centers a, b are equally far: cos(theta - phi) = (|a|^2 - |b|^2) / (2 |a - b|)
    roots = []
    for a, b in itertools.combinations(centers, 2):
        d = a - b
        if np.any(d != 0.0) and abs(rho := (a @ a - b @ b) / (2 * np.hypot(*d))) < 1.0:
            roots += [np.arctan2(d[1], d[0]) + side * np.arccos(rho) for side in (-1, 1)]
    far = np.all(np.abs(np.angle(np.exp(1j * (phases[:, None] - np.array(roots))))) > 1e-9, axis=1)
    assert np.array_equal(got[far], expected[far])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_sums_depend_only_on_the_partition(data):
    # sorted points on the circle, labeled in runs
    m = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phases = np.sort(rng.uniform(-np.pi, np.pi, m))
    points = np.column_stack([np.cos(phases), np.sin(phases)])
    prefix = np.concatenate([np.zeros((1, 2)), np.cumsum(points, axis=0)])
    labels = np.repeat(rng.integers(k, size=m), rng.integers(1, 4, size=m))[:m]
    changes = np.flatnonzero(np.diff(labels)) + 1
    runs = np.concatenate([[0], changes, [m]])
    # the same partition cut at more places, with empty intervals of any label among them
    cuts = np.sort(np.concatenate([changes, rng.integers(0, m + 1, size=data.draw(st.integers(0, 8)))]))
    pieces = np.concatenate([[0], cuts, [m]])
    empty = pieces[1:] == pieces[:-1]
    piece_labels = np.where(empty, rng.integers(k, size=empty.size), labels[np.minimum(pieces[:-1], m - 1)])
    base = np.zeros(1, dtype=int)
    counts, sums = _run_sums(prefix, base, runs[None], labels[runs[:-1]][None], k)
    assert np.array_equal(counts[0], np.bincount(labels, minlength=k))
    np.testing.assert_allclose(sums[0], [points[labels == c].sum(axis=0) for c in range(k)], rtol=0, atol=1e-12)
    split_counts, split_sums = _run_sums(prefix, base, pieces[None], piece_labels[None], k)
    assert np.array_equal(split_counts, counts)
    assert np.array_equal(split_sums, sums)
