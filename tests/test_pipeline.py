import numpy as np
import pytest

from qtclust import (
    LaplaceParams,
    ParameterError,
    ari,
    build_graph,
    eigendecompose,
    gen_gaussian_clouds,
    pairwise_distances,
    qtc,
    quantile_proximity,
    spectral_cluster,
)


@pytest.fixture(scope="module")
def three_clouds():
    return gen_gaussian_clouds([(0.0, 0.0), (0.6, 0.0), (0.3, 0.52)], 0.1, 60, seed=1)


def test_three_clouds_perfect_clustering(three_clouds):
    result = qtc(three_clouds, eps=0.1, q=3, seed=0)
    assert ari(result.labels, three_clouds.truth) == 1.0
    assert max(result.tally.weights.values()) >= 0.9
    assert sum(result.tally.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_spectral_parity_on_easy_data(three_clouds):
    labels = spectral_cluster(eigendecompose(build_graph(three_clouds, 0.1).hamiltonian), 3, seed=0)
    assert ari(labels, three_clouds.truth) == 1.0


def test_pipeline_deterministic(three_clouds):
    a = qtc(three_clouds, eps=0.1, q=3, seed=4)
    b = qtc(three_clouds, eps=0.1, q=3, seed=4)
    assert np.array_equal(a.labels, b.labels)
    assert a.s == b.s
    assert np.array_equal(a.consensus, b.consensus)


def test_summary_modes(three_clouds):
    maj = qtc(three_clouds, eps=0.1, q=3, seed=0, summary="majority")
    assert maj.consensus is None and maj.labels is not None
    cons = qtc(three_clouds, eps=0.1, q=3, seed=0, summary="consensus")
    assert cons.labels is None and cons.consensus is not None
    assert np.array_equal(np.diag(cons.consensus), np.ones(three_clouds.m))
    with pytest.raises(ParameterError):
        qtc(three_clouds, eps=0.1, q=3, seed=0, summary="nope")


def test_consensus_blocks_match_truth(three_clouds):
    result = qtc(three_clouds, eps=0.1, q=3, seed=0, summary="both")
    c = result.consensus
    truth = three_clouds.truth
    same = truth[:, None] == truth[None, :]
    assert c[same].mean() > 0.95
    assert c[~same].mean() < 0.05


def test_explicit_s_rule(three_clouds):
    result = qtc(three_clouds, eps=0.1, q=3, seed=0, laplace=LaplaceParams(rule="explicit", multiplier=0.01))
    assert result.s == 0.01


def test_eps_or_r_eps_required(three_clouds):
    with pytest.raises(ParameterError):
        qtc(three_clouds, eps=None, q=3, seed=0)


def assert_same_bundle(a, b):
    assert np.array_equal(a.hamiltonian, b.hamiltonian)
    assert a.proximity == b.proximity


def test_build_graph_reuses_given_distances(three_clouds):
    dist = pairwise_distances(three_clouds)
    assert_same_bundle(build_graph(three_clouds, 0.1, dist=dist), build_graph(three_clouds, 0.1))


def test_build_graph_explicit_bandwidth_equals_quantile(three_clouds):
    r_eps = quantile_proximity(pairwise_distances(three_clouds), 0.1)
    assert_same_bundle(build_graph(three_clouds, r_eps=r_eps), build_graph(three_clouds, 0.1))


def test_build_graph_needs_eps_or_r_eps(three_clouds):
    with pytest.raises(ParameterError):
        build_graph(three_clouds)
    with pytest.raises(ParameterError):
        build_graph(three_clouds, dist=pairwise_distances(three_clouds))
