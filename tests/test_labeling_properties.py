"""Property tests of the block labelers and the batched k-means against their per-row oracles."""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtclust import FragmentationWarning, kmeans, labeling, labels_direct_difference
from qtclust.labeling import _lloyd

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
