import tracemalloc
import weakref

import numpy as np
import pytest

from qtclust import ensemble, experiments, graph, pipeline, spectral, transport
from qtclust import (
    LaplaceParams,
    ParameterError,
    amplitude_source,
    ari,
    build_graph,
    eigendecompose,
    gap_stats,
    gen_gaussian_clouds,
    gen_tetrahedron,
    pairwise_distances,
    qtc,
    quantile_proximity,
    select_s,
    spectral_cluster,
)

from conftest import traced_peak


@pytest.fixture(scope="module")
def three_clouds():
    return gen_gaussian_clouds([(0.0, 0.0), (0.6, 0.0), (0.3, 0.52)], 0.1, 60, seed=1)


@pytest.fixture(scope="module")
def clustered(three_clouds):
    """The default run on three_clouds (m' = 100 of 180 nodes), shared by the tests that read it."""
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
    before = dist.copy()
    assert_same_bundle(build_graph(three_clouds, 0.1, dist=dist), build_graph(three_clouds, 0.1))
    # eps_sweep hands the same distances to every bandwidth's build, which must only read them
    assert_same_bundle(build_graph(three_clouds, 0.3, dist=dist), build_graph(three_clouds, 0.3))
    assert dist.tobytes() == before.tobytes()


def test_build_graph_explicit_bandwidth_equals_quantile(three_clouds):
    r_eps = quantile_proximity(pairwise_distances(three_clouds), 0.1)
    assert_same_bundle(build_graph(three_clouds, r_eps=r_eps), build_graph(three_clouds, 0.1))


def test_build_graph_needs_eps_or_r_eps(three_clouds):
    with pytest.raises(ParameterError):
        build_graph(three_clouds)
    with pytest.raises(ParameterError):
        build_graph(three_clouds, dist=pairwise_distances(three_clouds))


def test_qtc_and_eps_sweep_call_no_eigendecompose_through_pipeline(monkeypatch, three_clouds):
    calls = []
    real = spectral.eigendecompose

    def counted(matrix):
        calls.append(len(matrix))
        return real(matrix)

    # pipeline imports no eigendecompose; should it ever, its calls are counted too
    for module in (spectral, pipeline, experiments):
        monkeypatch.setattr(module, "eigendecompose", counted, raising=module is not pipeline)
    result = qtc(three_clouds, eps=0.1, q=3, m_prime=three_clouds.m, seed=0)
    assert calls == []
    assert ari(result.labels, three_clouds.truth) == 1.0
    # one decomposition per row, for the spectral baseline; the transport rows take none
    rows = experiments.eps_sweep(three_clouds, 3, [0.1, 0.15], seed=0)
    assert calls == [three_clouds.m, three_clouds.m]
    assert [row["eps"] for row in rows] == [0.1, 0.15] and rows[0]["ari_qtc"] == 1.0


def test_gap_report_does_not_depend_on_the_route():
    # four clusters asked for as three: the whole spectrum jumps above e_3, but the gaps read e_0..e_q only
    points = gen_tetrahedron(q=4, sigma=0.1, n_per=100, seed=0)
    solved = qtc(points, eps=0.1, q=3, m_prime=10, seed=0, summary="majority")
    summed = gap_stats(eigendecompose(build_graph(points, 0.1).hamiltonian).energies[:4], 3)
    assert solved.gaps.low_count == summed.low_count
    assert solved.gaps.first_gap == pytest.approx(summed.first_gap, rel=0, abs=1e-12)
    assert solved.gaps.avg_gap == pytest.approx(summed.avg_gap, rel=0, abs=1e-12)
    assert solved.s == pytest.approx(select_s(summed, LaplaceParams()), rel=0, abs=1e-12)
    # e_3 / e_2 divides energies near 1e-6 that Lanczos and eigh give to ~1e-15 absolute (3e-10 apart here)
    assert solved.gaps.next_ratio == pytest.approx(summed.next_ratio, rel=1e-8, abs=0)


@pytest.fixture(scope="module")
def clouds_1200():
    """1200 nodes: a second H, the 8 m^2 bytes (11 MiB) of a two-array route, outweighs the scratch terms of the bounds."""
    return gen_gaussian_clouds([(0.0, 0.0), (0.6, 0.0), (0.3, 0.52)], 0.1, 400, seed=1)


@pytest.fixture(scope="module")
def lanczos_bytes(clouds_1200):
    """The traced peak of the Lanczos run of ``amplitude_source`` at q = 3 on its own: basis, images and their scratch."""
    h = build_graph(clouds_1200, 0.1).hamiltonian
    with traced_peak() as peak:
        spectral._low_energies(h, 4)
    return peak()


def tile_bytes():
    """Tile scratch: about 1 MiB per graph worker, plus one tile of temporaries."""
    return (graph._worker_count() + 1) << 20


def ldlt_bytes(m, width):
    """One LDL^T block column's GEMM product, D, its mirror and its inverse, and the first solved chunk with its GEMM scratch."""
    b = transport._LDLT_BLOCK
    chunk = max(width, b // width * width)
    return 16 * (m + 3 * b) * b + 16 * (m + b) * chunk


@pytest.mark.parametrize("m_prime", [30, 1200], ids=["solve", "solve_every_node"])
def test_h_is_freed_before_the_ensemble_runs(monkeypatch, clouds_1200, lanczos_bytes, m_prime):
    # A overwrites H in one 16 m^2 buffer: amplitude_source and the first block the ensemble draws hold that
    # buffer plus the scratch of a stage, never H beside A; block columns of 32 keep the LDL^T's scratch small
    monkeypatch.setattr(transport, "_LDLT_BLOCK", 32)
    m = clouds_1200.m
    width = ensemble._block_width(m)
    buffer_and_lanczos = 16 * m * m + lanczos_bytes + tile_bytes()
    init = np.random.default_rng(0).choice(m, size=m_prime, replace=False)
    with traced_peak() as peak:
        *_, source = amplitude_source(clouds_1200, 0.1, 3, LaplaceParams())
        before_factor = peak()
        first = next(source(init, width))
    assert first.shape == (m, width)
    assert before_factor <= buffer_and_lanczos
    assert peak() <= buffer_and_lanczos + ldlt_bytes(m, width)


def test_solve_route_factors_once_after_h_is_freed(monkeypatch, clouds_1200, lanczos_bytes):
    # one factorization, of the one buffer: up to it no stage's scratch outlives the stage, and at it the buffer
    # is all that is held, with no H, adjacency or distances beside it
    m = clouds_1200.m
    buffer_and_lanczos = 16 * m * m + lanczos_bytes + tile_bytes()
    at_factor = []
    real_factor = transport._ldlt_in_place

    def factor_spy(a):
        at_factor.append((peak(), tracemalloc.get_traced_memory()[0]))
        real_factor(a)

    monkeypatch.setattr(transport, "_ldlt_in_place", factor_spy)
    # four start nodes per block, so the 30 start nodes span eight blocks
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 128 * m * 4)
    with traced_peak() as peak:
        first = qtc(clouds_1200, eps=0.1, q=3, m_prime=30, seed=2)
    [(peak_at_factor, held_at_factor)] = at_factor
    assert peak_at_factor <= buffer_and_lanczos
    assert 16 * m * m <= held_at_factor <= 16 * m * m + tile_bytes()
    second = qtc(clouds_1200, eps=0.1, q=3, m_prime=30, seed=2)
    assert len(at_factor) == 2
    assert first.s == second.s
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.consensus, second.consensus)


def test_solve_route_frees_the_factors_before_the_summaries(monkeypatch, three_clouds):
    factors = []
    factors_alive_at = []
    real_factor = transport._ldlt_in_place

    def factor_spy(a):
        factors.append(weakref.ref(a))
        real_factor(a)

    monkeypatch.setattr(transport, "_ldlt_in_place", factor_spy)
    for name in ("majority_partition", "consensus_matrix"):
        real = getattr(pipeline, name)

        def summary_spy(*args, _real=real, _name=name):
            factors_alive_at.append((_name, factors[-1]() is not None))
            return _real(*args)

        monkeypatch.setattr(pipeline, name, summary_spy)
    qtc(three_clouds, eps=0.1, q=3, m_prime=30, seed=0)
    assert factors_alive_at == [("majority_partition", False), ("consensus_matrix", False)]
