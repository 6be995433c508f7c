import numpy as np
import pytest

from qtclust import ensemble, pipeline
from qtclust import (
    LaplaceParams,
    ParameterError,
    ari,
    build_graph,
    eigendecompose,
    gen_gaussian_clouds,
    gen_tetrahedron,
    pairwise_distances,
    qtc,
    quantile_proximity,
    spectral_cluster,
)


@pytest.fixture(scope="module")
def three_clouds():
    return gen_gaussian_clouds([(0.0, 0.0), (0.6, 0.0), (0.3, 0.52)], 0.1, 60, seed=1)


@pytest.fixture(scope="module")
def clustered(three_clouds):
    """The default run on three_clouds (m' = 100 of 180 nodes: the spectral route), shared by the tests that read it."""
    return qtc(three_clouds, eps=0.1, q=3, seed=0)


def test_three_clouds_perfect_clustering(three_clouds, clustered):
    assert ari(clustered.labels, three_clouds.truth) == 1.0
    assert max(clustered.tally.weights.values()) >= 0.9
    assert sum(clustered.tally.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_spectral_parity_on_easy_data(three_clouds):
    labels = spectral_cluster(eigendecompose(build_graph(three_clouds, 0.1).hamiltonian), 3, seed=0)
    assert ari(labels, three_clouds.truth) == 1.0


def test_pipeline_deterministic(three_clouds):
    a = qtc(three_clouds, eps=0.1, q=3, seed=4)
    b = qtc(three_clouds, eps=0.1, q=3, seed=4)
    assert np.array_equal(a.labels, b.labels)
    assert a.s == b.s
    assert np.array_equal(a.consensus, b.consensus)


def test_summary_modes(three_clouds, clustered):
    maj = qtc(three_clouds, eps=0.1, q=3, seed=0, summary="majority")
    assert maj.consensus is None and np.array_equal(maj.labels, clustered.labels)
    cons = qtc(three_clouds, eps=0.1, q=3, seed=0, summary="consensus")
    assert cons.labels is None and np.array_equal(cons.consensus, clustered.consensus)
    assert np.array_equal(np.diag(cons.consensus), np.ones(three_clouds.m))
    with pytest.raises(ParameterError):
        qtc(three_clouds, eps=0.1, q=3, seed=0, summary="nope")


def test_consensus_blocks_match_truth(three_clouds, clustered):
    c = clustered.consensus
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


def test_qtc_takes_the_solve_route_when_six_start_nodes_per_node_fit(monkeypatch, three_clouds):
    routes = []
    for name in ("eigendecompose", "low_energies"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, _real=real, _name=name: routes.append(_name) or _real(*args))
    m = three_clouds.m
    solved = qtc(three_clouds, eps=0.1, q=3, m_prime=m // 6, seed=0)
    summed = qtc(three_clouds, eps=0.1, q=3, m_prime=m // 6 + 1, seed=0)
    assert routes == ["low_energies", "eigendecompose"]
    assert solved.s == pytest.approx(summed.s, rel=1e-10)
    assert np.array_equal(solved.labels, summed.labels)
    assert ari(solved.labels, three_clouds.truth) == 1.0


def test_gap_report_does_not_depend_on_the_route():
    # four clusters asked for as three: the whole spectrum jumps above e_3, but both routes read e_0..e_q
    points = gen_tetrahedron(q=4, sigma=0.1, n_per=100, seed=0)
    assert pipeline.takes_solve_route(points.m, 10) and not pipeline.takes_solve_route(points.m, 100)
    solved = qtc(points, eps=0.1, q=3, m_prime=10, seed=0, summary="majority")
    summed = qtc(points, eps=0.1, q=3, m_prime=100, seed=0, summary="majority")
    assert solved.gaps.low_count == summed.gaps.low_count
    assert solved.gaps.first_gap == pytest.approx(summed.gaps.first_gap, rel=0, abs=1e-12)
    assert solved.gaps.avg_gap == pytest.approx(summed.gaps.avg_gap, rel=0, abs=1e-12)
    assert solved.s == pytest.approx(summed.s, rel=0, abs=1e-12)
    # e_3 / e_2 divides energies near 1e-6 that the two routes give to ~1e-15 absolute (3e-10 apart here)
    assert solved.gaps.next_ratio == pytest.approx(summed.gaps.next_ratio, rel=1e-8, abs=0)


@pytest.mark.parametrize("m_prime", [30, 180], ids=["solve", "spectral"])
def test_h_is_freed_before_the_ensemble_runs(monkeypatch, hamiltonian_refs, three_clouds, m_prime):
    h_alive_at_run = []
    real_run = pipeline.run_qtc

    def run_qtc_spy(*args, **kwargs):
        h_alive_at_run.append(hamiltonian_refs[-1]() is not None)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_qtc", run_qtc_spy)
    qtc(three_clouds, eps=0.1, q=3, m_prime=m_prime, seed=0, summary="majority")
    assert h_alive_at_run == [False]


def test_solve_route_factors_once_after_h_is_freed(monkeypatch, hamiltonian_refs, three_clouds):
    h_alive_at_solve = []
    real_solve = np.linalg.solve

    def solve_spy(a, b):
        h_alive_at_solve.append(hamiltonian_refs[-1]() is not None)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    # four start nodes per block, so the 30 start nodes span eight blocks
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 128 * three_clouds.m * 4)
    first = qtc(three_clouds, eps=0.1, q=3, m_prime=30, seed=2)
    assert h_alive_at_solve == [False]
    second = qtc(three_clouds, eps=0.1, q=3, m_prime=30, seed=2)
    assert first.s == second.s
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.consensus, second.consensus)
