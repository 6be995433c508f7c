import numpy as np
import pytest

from qtclust import transport
from qtclust import (
    DegenerateGapError,
    GapReport,
    InputError,
    LaplaceParams,
    NumericError,
    ParameterError,
    eigendecompose,
    gap_stats,
    phase_field,
    select_s,
    solve_source,
)

from conftest import laplace_amplitudes, laplace_amplitudes_oracle, random_geometric_graph


def single_node(hamiltonian, j, s):
    """The amplitudes of the wave started at node j: the one-column case of ``solve_source``."""
    return next(solve_source(hamiltonian, s)(np.array([j]), 1))[:, 0]


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
    amplitudes = single_node(np.array([[0.0]]), 0, 2.5)
    assert amplitudes[0] == pytest.approx(1 / 2.5)
    assert phase_field(amplitudes)[0] == 0.0


def test_two_node_hand_spectral_sum(two_node_eig):
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    # the spectral sum of the oracle and the LDL^T solve both give the hand values
    for amplitudes in (laplace_amplitudes(two_node_eig, [0], 2.0)[:, 0], single_node(h, 0, 2.0)):
        assert amplitudes[0] == pytest.approx(0.375 - 0.125j, abs=1e-15)
        assert amplitudes[1] == pytest.approx(0.125 + 0.125j, abs=1e-15)
        # cross-check against the direct complex solve
        solved = np.linalg.solve(2.0 * np.eye(2) + 1j * h, np.array([1.0, 0.0]))
        assert np.abs(amplitudes - solved).max() < 1e-12


def test_resolvent_identity_random_triples():
    rng = np.random.default_rng(0)
    for seed in range(20):
        m = int(rng.integers(10, 60))
        graph, _ = random_geometric_graph(seed + 100, m)
        j = int(rng.integers(m))
        s = float(rng.uniform(0.05, 2.0))
        amplitudes = single_node(graph.hamiltonian, j, s)
        e_j = np.zeros(m)
        e_j[j] = 1.0
        direct = np.linalg.solve(s * np.eye(m) + 1j * graph.hamiltonian, e_j)
        assert np.abs(amplitudes - direct).max() < 1e-9
        residual = (s * np.eye(m) + 1j * graph.hamiltonian) @ amplitudes - e_j
        assert np.abs(residual).max() < 1e-9


def test_init_node_phase_quadrant():
    for seed in range(5):
        graph, _ = random_geometric_graph(seed + 200, 30)
        phase = phase_field(single_node(graph.hamiltonian, seed % 30, 0.3))[seed % 30]
        assert -np.pi / 2 < phase <= 0.0


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


# the spectral-sum oracle that the solve is checked against, itself checked against LAPACK and math.fsum
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


def test_laplace_amplitudes_match_exact_sum_oracle():
    rng = np.random.default_rng(5)
    for seed in range(6):
        m = int(rng.integers(5, 40))
        graph, eig = random_geometric_graph(seed + 600, m)
        init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        s = float(rng.uniform(0.05, 2.0))
        exact = laplace_amplitudes_oracle(eig, init, s)
        for amps in (laplace_amplitudes(eig, init, s), np.hstack(list(solve_source(graph.hamiltonian, s)(init, 3)))):
            assert np.abs(amps - exact).max() <= 1e-12 * np.abs(exact).max()


def test_solve_source_phases_match_spectral_sum():
    # the solve and the spectral-sum oracle at small m, in blocks of every width: the phases agree within
    # 1e-10 rad.  The bandwidth is the median distance, so no amplitude is small enough for rounding to
    # move its phase
    rng = np.random.default_rng(3)
    for seed in range(8):
        m = int(rng.integers(6, 40))
        graph, eig = random_geometric_graph(seed + 500, m, eps=0.5)
        init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        s = float(rng.uniform(0.05, 2.0))
        width = int(rng.integers(1, init.size + 1))
        solved = list(solve_source(graph.hamiltonian, s)(init, width))
        assert [b.shape[1] for b in solved] == [len(init[lo : lo + width]) for lo in range(0, init.size, width)]
        assert all(b.shape[0] == m for b in solved)
        gap = np.angle(np.hstack(solved) / laplace_amplitudes(eig, init, s))
        assert np.abs(gap).max() <= 1e-10


def test_solve_source_solves_whole_blocks_a_chunk_at_a_time(monkeypatch):
    # the factors and one chunk are live at a time: a chunk is _LDLT_BLOCK start nodes rounded down to
    # whole blocks, or one block when a block is wider
    graph, _ = random_geometric_graph(2, 40)
    solved = []
    real_solve = transport._ldlt_solve

    def solve_spy(factors, x):
        solved.append(x.shape[1])
        real_solve(factors, x)

    monkeypatch.setattr(transport, "_ldlt_solve", solve_spy)
    monkeypatch.setattr(transport, "_LDLT_BLOCK", 8)
    for width, chunks in ((3, [6] * 6 + [4]), (10, [10] * 4)):
        solved.clear()
        blocks = list(solve_source(graph.hamiltonian, 0.5)(np.arange(40), width))
        assert solved == chunks
        assert [b.shape[1] for b in blocks] == [width] * (40 // width) + [40 % width] * (40 % width > 0)


def test_solve_source_validation():
    graph, _ = random_geometric_graph(1, 10)
    for bad in ([10], [-1, 2], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ParameterError):
            next(solve_source(graph.hamiltonian, 0.5)(np.asarray(bad), 1))
    for s in (0.0, -1.0, np.inf, np.nan, 1e-320):
        with pytest.raises(ParameterError):
            solve_source(graph.hamiltonian, s)
    # the factorization reads one triangle of s I + i H, so an asymmetric H would be solved as another matrix
    h = np.array(graph.hamiltonian)
    h[0, 1] += 1e-9
    for bad, message in ((h, "not symmetric"), (h[:, :9], "square"), (np.full((2, 2), np.nan), "non-finite")):
        with pytest.raises(InputError, match=message):
            solve_source(bad, 0.5)


def test_solve_source_yields_its_amplitudes_once():
    graph, _ = random_geometric_graph(1, 10)
    source = solve_source(graph.hamiltonian, 0.5)
    with pytest.raises(ParameterError):
        source(np.array([10]), 1)  # a refused call leaves A to the next one
    first = np.hstack(list(source(np.array([3, 1]), 1)))
    with pytest.raises(ParameterError, match="once"):
        source(np.array([3, 1]), 1)
    assert np.array_equal(first, np.hstack(list(solve_source(graph.hamiltonian, 0.5)(np.array([3, 1]), 2))))


def test_solve_source_non_finite_amplitudes_raise_numeric_error_naming_s():
    # the exact amplitudes are about 1e300, but eliminating entries of 1e308 overflows on the way;
    # the chunk that holds the start node raises
    blocks = solve_source(np.full((3, 3), 1e308), 1e-300)(np.array([0]), 1)
    with pytest.raises(NumericError, match="s=1e-300"):
        next(blocks)
