"""Metamorphic properties of the pipeline: transforms of the input points that must not change the clusters."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy as np

from qtclust import (
    PointSet,
    QTClustError,
    build_graph,
    canonical_relabel,
    eigendecompose,
    gen_gaussian_clouds,
    gen_sticks,
    gen_tetrahedron,
    jsd_matrix,
    laplace_similarity,
    qtc,
    transition_kernel,
)
from qtclust import kernels

from conftest import random_geometric_graph


def _clouds(seed):
    return gen_gaussian_clouds([(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)], 0.12, 20, seed)


def _sticks(seed):
    return gen_sticks(3, gap=0.4, n_per=20, density_profile="nonuniform", jitter=0.01, seed=seed)


def _tetrahedron(seed):
    return gen_tetrahedron(q=3, sigma=0.1, n_per=20, seed=seed)


# generator and bandwidth quantile of each input.  The graph need not stay connected: on clouds seed 944
# the clouds barely touch, e_1 and e_2 fall below spectral.CLAMP_TOL and snap to 0, and qtc raises
ANY_INPUT = {"clouds": (_clouds, 0.15), "sticks": (_sticks, 0.12)}
# three well-separated clusters: every start node's diff labels give one partition
SEPARATED_INPUT = {"clouds": (_clouds, 0.15), "tetrahedron": (_tetrahedron, 0.15)}


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(ANY_INPUT)), seed=st.integers(0, 1000), k=st.integers(-3, 3))
@example(name="clouds", seed=944, k=0)
def test_scaling_by_a_power_of_two_changes_only_the_bandwidth(name, seed, k):
    # x 2^k is exact in floating point, and every stage sees distances only through r / r_eps
    generate, eps = ANY_INPUT[name]
    points = generate(seed)
    scaled = PointSet(points.points * 2.0**k, points.truth)
    try:
        a = qtc(points, eps, 3, m_prime=20, seed=seed)
    except QTClustError as exc:
        # the scaled input must fail the same way, from the same H and spectrum
        with pytest.raises(type(exc)) as scaled_exc:
            qtc(scaled, eps, 3, m_prime=20, seed=seed)
        assert str(scaled_exc.value) == str(exc)
        ga, gb = build_graph(points, eps), build_graph(scaled, eps)
        assert gb.proximity == ga.proximity * 2.0**k
        assert gb.hamiltonian.tobytes() == ga.hamiltonian.tobytes()
        assert eigendecompose(gb.hamiltonian).energies.tobytes() == eigendecompose(ga.hamiltonian).energies.tobytes()
        return
    b = qtc(scaled, eps, 3, m_prime=20, seed=seed)
    ga, gb = build_graph(points, eps), build_graph(scaled, eps)
    ea, eb = eigendecompose(ga.hamiltonian), eigendecompose(gb.hamiltonian)
    assert a.r_eps == ga.proximity
    assert b.r_eps == a.r_eps * 2.0**k
    assert gb.hamiltonian.tobytes() == ga.hamiltonian.tobytes()
    assert eb.energies.tobytes() == ea.energies.tobytes()
    assert eb.modes.tobytes() == ea.modes.tobytes()
    assert b.s == a.s
    assert np.array_equal(b.labels, a.labels)
    assert b.consensus.tobytes() == a.consensus.tobytes()


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(SEPARATED_INPUT)), seed=st.integers(0, 1000), data=st.data())
def test_permuting_the_points_permutes_the_diff_labels(name, seed, data):
    generate, eps = SEPARATED_INPUT[name]
    points = generate(seed)
    perm = np.array(data.draw(st.permutations(range(points.m))))
    permuted = PointSet(points.points[perm], points.truth[perm])
    a = qtc(points, eps, 3, m_prime=points.m, label_method="diff", summary="majority")
    b = qtc(permuted, eps, 3, m_prime=points.m, label_method="diff", summary="majority")
    assert np.array_equal(canonical_relabel(b.labels), canonical_relabel(a.labels[perm]))
    assert max(b.tally.weights.values()) == max(a.tally.weights.values())


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 1000), m=st.integers(2, 14), data=st.data())
def test_permuting_the_nodes_permutes_the_kernels(seed, m, data):
    graph, eig = random_geometric_graph(seed, m)
    # eigh moves the modes by ~1e-16 / gap, which P and the JSD see: only well-separated spectra stay within 1e-12
    assume(np.diff(eig.energies).min() > 1e-3)
    perm = np.array(data.draw(st.permutations(range(m))))
    permuted = eigendecompose(graph.hamiltonian[np.ix_(perm, perm)])
    with pytest.MonkeyPatch.context() as mp:
        # tiles of three nodes, so the permutation moves their boundaries relative to the data
        mp.setattr(kernels, "_TILE_ENTRIES", 9 * m)
        for kernel in (jsd_matrix, transition_kernel, lambda e: laplace_similarity(e, 0.5)):
            expected = kernel(eig)[np.ix_(perm, perm)]
            assert np.abs(kernel(permuted) - expected).max() <= 1e-12
