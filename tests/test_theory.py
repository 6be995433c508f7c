import math

import numpy as np
import pytest

from qtclust import (
    InstantonParams,
    InvalidBlockError,
    ParameterError,
    born_expansion,
    cluster_orbitals,
    eigendecompose,
    gen_gaussian_clouds,
    instanton_phases,
    phase_field,
    predicted_phases,
    resolvent_exact,
    solve_source,
    tight_binding,
    two_level_phases,
)
from qtclust.graph import gaussian_adjacency, laplacians, pairwise_distances


def disconnected_two_block_graph():
    # two clusters far enough apart that every cross weight underflows to zero
    pts = gen_gaussian_clouds([(0.0, 0.0), (50.0, 0.0)], 0.1, 10, seed=0)
    dist = pairwise_distances(pts)
    graph = laplacians(gaussian_adjacency(dist, 0.15))
    return graph, pts.truth


def symmetric_tb(onsite_value, coupling):
    return np.array([[onsite_value, coupling], [coupling, onsite_value]])


def test_orbitals_of_disconnected_blocks_are_eigenvectors():
    graph, truth = disconnected_two_block_graph()
    orb = cluster_orbitals(graph.hamiltonian, truth)
    for mu in range(2):
        phi = orb[:, mu]
        h_phi = graph.hamiltonian @ phi
        xi = phi @ h_phi
        assert np.abs(h_phi - xi * phi).max() < 1e-10
    gram = orb.T @ orb
    assert np.abs(gram - np.eye(2)).max() < 1e-12
    assert (orb >= 0).all()
    # disjoint supports
    assert np.abs(orb[:, 0] * orb[:, 1]).max() == 0.0


def test_orbitals_two_cloud_support_and_sign():
    pts = gen_gaussian_clouds([(-0.3, 0.0), (0.3, 0.0)], 0.1, 50, seed=1)
    graph = laplacians(gaussian_adjacency(pairwise_distances(pts), 0.1))
    orb = cluster_orbitals(graph.hamiltonian, pts.truth)
    for mu in range(2):
        phi = orb[:, mu]
        assert (phi[pts.truth == mu] > 0).mean() > 0.99  # unimodal bump on its cluster
        assert np.all(phi[pts.truth != mu] == 0.0)


def test_orbitals_empty_class_rejected():
    graph, truth = disconnected_two_block_graph()
    bad = truth.copy()
    bad[bad == 1] = 2  # class 1 missing
    with pytest.raises(ParameterError):
        cluster_orbitals(graph.hamiltonian, bad)


def test_orbitals_mixed_sign_block_rejected():
    # positive off-diagonal entries are not a valid similarity Laplacian block:
    # the block ground state mixes signs
    h = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidBlockError):
        cluster_orbitals(h, [0, 0, 1])


def test_tight_binding_disconnected_coupling_is_zero():
    graph, truth = disconnected_two_block_graph()
    orb = cluster_orbitals(graph.hamiltonian, truth)
    tb = tight_binding(graph.hamiltonian, orb)
    assert np.abs(tb - np.diag(np.diag(tb))).max() == 0.0
    assert np.abs(tb - tb.T).max() <= 1e-12


def test_tight_binding_two_cloud_weak_coupling():
    pts = gen_gaussian_clouds([(-0.3, 0.0), (0.3, 0.0)], 0.1, 100, seed=1)
    graph = laplacians(gaussian_adjacency(pairwise_distances(pts), 0.1))
    orb = cluster_orbitals(graph.hamiltonian, pts.truth)
    tb = tight_binding(graph.hamiltonian, orb)
    eig = eigendecompose(graph.hamiltonian)
    band = eig.energies[2]  # first intra-cluster excitation
    assert abs(tb[0, 1]) < 0.05 * band
    assert np.abs(tb - tb.T).max() <= 1e-12


def test_tight_binding_onsite_and_coupling_split_the_matrix():
    tb = np.array([[0.1, -0.02], [-0.02, 0.3]])
    onsite, coupling = np.diag(tb), tb - np.diag(np.diag(tb))
    assert onsite.tolist() == [0.1, 0.3]
    assert coupling.tolist() == [[0.0, -0.02], [-0.02, 0.0]]
    # the expansion takes the shifted onsite energies from the diagonal and the coupling from the rest
    g0 = np.diag(1.0 / (0.2j - (onsite - np.linalg.eigvalsh(tb)[0])))
    assert np.allclose(born_expansion(tb, 0.2, 1), g0 + g0 @ coupling @ g0, rtol=1e-14, atol=0.0)
    graph, truth = disconnected_two_block_graph()
    assert not tight_binding(graph.hamiltonian, cluster_orbitals(graph.hamiltonian, truth)).flags.writeable


def test_resolvent_single_cluster():
    tb = np.array([[0.3]])
    g = resolvent_exact(tb, 2.0)
    assert g[0, 0] == pytest.approx(-1j / 2.0, abs=1e-15)
    theta = predicted_phases(g)
    assert theta[0, 0] == 0.0


def test_resolvent_symmetric_two_level_matches_closed_form():
    v = -0.02
    tb = symmetric_tb(0.05, v)
    for s in (0.01, 0.04, 0.2):
        theta = predicted_phases(resolvent_exact(tb, s))
        same, cross = two_level_phases(2 * abs(v), s)
        assert theta[0, 0] == pytest.approx(same, abs=1e-12)
        assert theta[0, 1] == pytest.approx(cross, abs=1e-12)
        # left-right symmetry: constant diagonal, symmetric matrix
        assert theta[1, 1] == pytest.approx(theta[0, 0], abs=1e-12)
        assert theta[1, 0] == pytest.approx(theta[0, 1], abs=1e-12)


def test_born_diagonal_case_exact_at_order_one():
    tb = np.diag([0.1, 0.3])
    g1 = born_expansion(tb, 0.5, 1)
    exact = resolvent_exact(tb, 0.5)
    assert np.abs(g1 - exact).max() < 1e-15


def test_born_error_decreases_with_order():
    tb = symmetric_tb(0.05, -0.015)
    s = 0.06
    exact = resolvent_exact(tb, s)
    errs = [np.abs(born_expansion(tb, s, k) - exact).max() for k in (1, 2, 3)]
    assert errs[2] < errs[1] < errs[0]


def test_born_first_order_linear_in_coupling():
    # detuned levels keep the ground shift at second order in the coupling,
    # so the first-order off-diagonal term doubles when the coupling doubles
    s = 0.1

    def tb_with(v):
        return np.array([[0.0, v], [v, 0.5]])

    d_base = born_expansion(tb_with(-1e-3), s, 1)[0, 1]
    d_scaled = born_expansion(tb_with(-2e-3), s, 1)[0, 1]
    assert d_scaled / d_base == pytest.approx(2.0, rel=1e-4)


def test_born_order_validation():
    tb = symmetric_tb(0.05, -0.01)
    with pytest.raises(ParameterError):
        born_expansion(tb, 0.1, 4)


def test_predicted_phases_zero_entry_marked():
    g = np.array([[1.0 + 0j, 0.0 + 0j], [0.0 + 0j, 1.0 + 0j]])
    theta = predicted_phases(g)
    assert np.isnan(theta[0, 1])
    assert theta[0, 0] == pytest.approx(np.pi / 2)


def test_disconnected_clusters_phase_structure():
    graph, truth = disconnected_two_block_graph()
    orb = cluster_orbitals(graph.hamiltonian, truth)
    tb = tight_binding(graph.hamiltonian, orb)
    eig = eigendecompose(graph.hamiltonian)
    s = 1e-3 * eig.energies[2]
    theta = predicted_phases(resolvent_exact(tb, s))
    assert theta[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(theta[0, 1])
    # empirical phases in the start node's own component sit near zero; the
    # other component's amplitudes underflow to zero and warn
    with pytest.warns(RuntimeWarning):
        phases = phase_field(next(solve_source(graph.hamiltonian, s)(np.array([0]), 1))[:, 0])
    assert np.abs(phases[truth == truth[0]]).max() < 0.05


def test_two_level_limits_and_frozen_value():
    assert two_level_phases(0.0, 1.0) == (0.0, pytest.approx(math.pi / 2))
    same, cross = two_level_phases(1.0, 1.0)  # s equal to the gap
    assert same == pytest.approx(-0.3217505543966422, abs=1e-15)
    assert cross == pytest.approx(math.pi / 4, abs=1e-15)


def test_two_level_contrast_increases_with_s():
    gap = 0.7
    svals = np.logspace(-2, 2, 40) * gap
    contrast = [two_level_phases(gap, s)[1] - two_level_phases(gap, s)[0] for s in svals]
    assert all(b > a for a, b in zip(contrast, contrast[1:]))
    assert contrast[-1] < math.pi / 2


def test_instanton_matches_two_level():
    rng = np.random.default_rng(0)
    for _ in range(50):
        params = InstantonParams.from_frequency(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.05, 1.0)))
        s = float(rng.uniform(0.01, 5.0))
        inst = instanton_phases(params, s)
        closed = two_level_phases(params.gap, s)
        assert inst[0] == pytest.approx(closed[0], abs=1e-12)
        assert inst[1] == pytest.approx(closed[1], abs=1e-12)


def test_instanton_vanishing_quartic_limit():
    params = InstantonParams.from_frequency(1.0, 1e-6)
    assert params.gap == 0.0
    assert instanton_phases(params, 0.5) == (0.0, pytest.approx(math.pi / 2))


def test_instanton_frozen_density():
    params = InstantonParams.from_frequency(1.0, 1.0 / 12.0)
    assert params.density == pytest.approx(math.sqrt(6 / math.pi) * math.exp(-1), abs=1e-15)
    assert params.density == pytest.approx(0.5084007785420707, abs=1e-14)
    assert params.gap == pytest.approx(2 * params.density, abs=1e-14)


def test_instanton_params_derive_frequency_and_density():
    params = InstantonParams(0.25, 1.0)
    assert params.frequency == 2 * 0.25 * math.sqrt(2.0)
    assert params.density == pytest.approx(InstantonParams.from_frequency(params.frequency, 1.0).density, rel=1e-14)
    for separation, quartic in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ParameterError):
            InstantonParams(separation, quartic)
