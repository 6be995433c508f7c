import numpy as np
import pytest

from qtclust import (
    DegenerateGapError,
    GapReport,
    LaplaceParams,
    ParameterError,
    eigendecompose,
    gap_stats,
    laplace_amplitudes,
    phase_field,
    select_s,
    solve_source,
    spectral_source,
)

from conftest import laplace_amplitudes_oracle, random_geometric_graph


def test_select_s_first_gap_rule():
    gaps = GapReport(first_gap=0.05, avg_gap=0.04, next_ratio=3.0, low_count=2)
    assert select_s(gaps, LaplaceParams(rule="first_gap", multiplier=1.2)) == pytest.approx(0.06)


def test_select_s_avg_gap_rule():
    eig = eigendecompose(np.diag([0.0, 0.1, 0.3]))
    gaps = gap_stats(eig.energies, 3)
    assert select_s(gaps, LaplaceParams(rule="avg_gap", multiplier=1.0)) == pytest.approx(0.15)


def test_select_s_explicit_rule():
    gaps = GapReport(first_gap=0.02, avg_gap=0.02, next_ratio=2.0, low_count=2)
    s = select_s(gaps, LaplaceParams(rule="explicit", multiplier=5 * 0.02))
    assert s == pytest.approx(0.1)


def test_select_s_degenerate_gap():
    gaps = GapReport(first_gap=0.0, avg_gap=0.0, next_ratio=0.0, low_count=2)
    with pytest.raises(DegenerateGapError):
        select_s(gaps, LaplaceParams(rule="first_gap", multiplier=1.2))


def test_laplace_params_validation():
    with pytest.raises(ParameterError):
        LaplaceParams(rule="nope", multiplier=1.0)
    with pytest.raises(ParameterError):
        LaplaceParams(rule="avg_gap", multiplier=0.0)


def test_single_node_scalar_resolvent():
    eig = eigendecompose(np.array([[0.0]]))
    amplitudes = laplace_amplitudes(eig, [0], 2.5)[:, 0]
    assert amplitudes[0] == pytest.approx(1 / 2.5)
    assert phase_field(amplitudes)[0] == 0.0


def test_two_node_hand_spectral_sum(two_node_eig):
    amplitudes = laplace_amplitudes(two_node_eig, [0], 2.0)[:, 0]
    assert amplitudes[0] == pytest.approx(0.375 - 0.125j, abs=1e-15)
    assert amplitudes[1] == pytest.approx(0.125 + 0.125j, abs=1e-15)
    # cross-check against the direct complex solve
    solved = np.linalg.solve(2.0 * np.eye(2) + 1j * np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, 0.0]))
    assert np.abs(amplitudes - solved).max() < 1e-12


def test_resolvent_identity_random_triples():
    rng = np.random.default_rng(0)
    for seed in range(20):
        m = int(rng.integers(10, 60))
        graph, eig = random_geometric_graph(seed + 100, m)
        j = int(rng.integers(m))
        s = float(rng.uniform(0.05, 2.0))
        amplitudes = laplace_amplitudes(eig, [j], s)[:, 0]
        e_j = np.zeros(m)
        e_j[j] = 1.0
        direct = np.linalg.solve(s * np.eye(m) + 1j * graph.hamiltonian, e_j)
        assert np.abs(amplitudes - direct).max() < 1e-9
        residual = (s * np.eye(m) + 1j * graph.hamiltonian) @ amplitudes - e_j
        assert np.abs(residual).max() < 1e-9


def test_init_node_phase_quadrant():
    for seed in range(5):
        graph, eig = random_geometric_graph(seed + 200, 30)
        phase = phase_field(laplace_amplitudes(eig, [seed % 30], 0.3)[:, 0])[seed % 30]
        assert -np.pi / 2 < phase <= 0.0


def test_wavefunction_validation():
    _, eig = random_geometric_graph(1, 10)
    with pytest.raises(ParameterError):
        laplace_amplitudes(eig, [10], 0.5)
    with pytest.raises(ParameterError):
        laplace_amplitudes(eig, [0], 0.0)


def test_phase_field_basic_angles():
    phases = phase_field(np.array([1.0 + 0.0j, 1j, -1j, -1.0 + 0.0j]))
    assert phases[0] == 0.0
    assert phases[1] == pytest.approx(np.pi / 2)
    assert phases[2] == pytest.approx(-np.pi / 2)
    assert phases[3] == pytest.approx(np.pi)


def test_phase_field_negative_real_axis_maps_to_pi():
    # the branch cut: arguments must land in (-pi, pi], never -pi
    val = phase_field(np.array([complex(-1.0, -0.0)]))
    assert val[0] == pytest.approx(np.pi)
    assert val[0] > 0


def test_phase_field_underflow_warns():
    with pytest.warns(RuntimeWarning):
        phase_field(np.array([1e-310 + 0j, 1.0 + 0j]))


def test_laplace_amplitudes_match_direct_solve():
    rng = np.random.default_rng(1)
    for seed in range(10):
        m = int(rng.integers(10, 60))
        graph, eig = random_geometric_graph(seed + 300, m)
        init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        s = float(rng.uniform(0.05, 2.0))
        amps = laplace_amplitudes(eig, init, s)
        direct = np.linalg.solve(s * np.eye(m) + 1j * graph.hamiltonian, np.eye(m)[:, init])
        assert amps.shape == (m, init.size)
        assert np.abs(amps - direct).max() <= 1e-12 * np.abs(direct).max()


def test_laplace_amplitudes_match_per_column_wavefunction():
    rng = np.random.default_rng(2)
    for seed in range(5):
        m = int(rng.integers(10, 60))
        _, eig = random_geometric_graph(seed + 400, m)
        init = rng.permutation(m)
        s = float(rng.uniform(0.05, 2.0))
        amps = laplace_amplitudes(eig, init, s)
        for k, j in enumerate(init):
            column = laplace_amplitudes(eig, [j], s)[:, 0]
            assert np.abs(amps[:, k] - column).max() <= 1e-12 * np.abs(column).max()


def test_laplace_amplitudes_match_exact_sum_oracle():
    rng = np.random.default_rng(5)
    for seed in range(6):
        m = int(rng.integers(5, 40))
        _, eig = random_geometric_graph(seed + 600, m)
        init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        s = float(rng.uniform(0.05, 2.0))
        amps = laplace_amplitudes(eig, init, s)
        exact = laplace_amplitudes_oracle(eig, init, s)
        assert np.abs(amps - exact).max() <= 1e-12 * np.abs(exact).max()


def test_laplace_amplitudes_validation():
    _, eig = random_geometric_graph(1, 10)
    for bad in ([10], [-1, 2], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ParameterError):
            laplace_amplitudes(eig, bad, 0.5)
    for s in (0.0, -1.0, np.inf, np.nan, 1e-320):
        with pytest.raises(ParameterError):
            laplace_amplitudes(eig, [0], s)


def test_solve_source_phases_match_spectral_sum():
    # both routes at small m, in blocks of every width: the phases agree within 1e-10 rad.  The
    # bandwidth is the median distance, so no amplitude is small enough for rounding to move its phase
    rng = np.random.default_rng(3)
    for seed in range(8):
        m = int(rng.integers(6, 40))
        graph, eig = random_geometric_graph(seed + 500, m, eps=0.5)
        init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        s = float(rng.uniform(0.05, 2.0))
        width = int(rng.integers(1, init.size + 1))
        solved = list(solve_source(graph.hamiltonian, s)(init, width))
        summed = list(spectral_source(eig, s)(init, width))
        assert [b.shape for b in solved] == [b.shape for b in summed]
        assert sum(b.shape[1] for b in solved) == init.size
        gap = np.angle(np.hstack(solved) / laplace_amplitudes(eig, init, s))
        assert np.abs(gap).max() <= 1e-10


def test_solve_source_validation():
    graph, _ = random_geometric_graph(1, 10)
    for bad in ([10], [-1, 2], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ParameterError):
            next(solve_source(graph.hamiltonian, 0.5)(np.asarray(bad), 1))
    for s in (0.0, -1.0, np.inf, np.nan, 1e-320):
        with pytest.raises(ParameterError):
            solve_source(graph.hamiltonian, s)
