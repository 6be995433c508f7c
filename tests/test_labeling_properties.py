"""Property tests of the batched k-means against restarts run one after another."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtclust import kmeans
from qtclust.labeling import _lloyd

from conftest import kmeans_oracle, lloyd_oracle


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
    got = kmeans(x, k, seed, n_restarts=n_restarts, max_iter=max_iter, tol=tol)
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
