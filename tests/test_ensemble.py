import numpy as np
import pytest

from qtclust import ensemble
from qtclust import (
    LabelMatrix,
    ParameterError,
    canonical_relabel,
    consensus_matrix,
    eigendecompose,
    gen_gaussian_clouds,
    labels_circle_clustering,
    labels_direct_difference,
    laplace_amplitudes,
    majority_partition,
    partitions_equivalent,
    phase_field,
    run_qtc,
    build_graph,
)

from conftest import pairwise_grouping, permutation_equivalent


def test_equivalent_simple_cases():
    assert partitions_equivalent([0, 0, 1, 1], [1, 1, 0, 0], 2) is True
    assert partitions_equivalent([0, 0, 1, 1], [0, 1, 0, 1], 2) is False


def test_equivalent_matches_permutation_oracle():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        q = int(rng.integers(2, 6))
        m = int(rng.integers(4, 12))
        a = rng.integers(0, q, size=m)
        if trial % 2 == 0:
            perm = rng.permutation(q)
            b = perm[a]
        else:
            b = rng.integers(0, q, size=m)
        assert partitions_equivalent(a, b, q) == permutation_equivalent(a.tolist(), b.tolist(), q)


def test_equivalent_is_equivalence_relation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = 3
        cols = [rng.integers(0, q, size=8) for _ in range(3)]
        a, b, c = cols
        assert partitions_equivalent(a, a, q)
        assert partitions_equivalent(a, b, q) == partitions_equivalent(b, a, q)
        if partitions_equivalent(a, b, q) and partitions_equivalent(b, c, q):
            assert partitions_equivalent(a, c, q)


def test_equivalent_validation():
    with pytest.raises(ParameterError):
        partitions_equivalent([0, 1], [0, 1, 2], 3)
    with pytest.raises(ParameterError):
        partitions_equivalent([0, 3], [0, 1], 2)


def test_equivalent_rejects_empty_columns():
    with pytest.raises(ParameterError):
        partitions_equivalent([], [], 2)


@pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
def test_majority_rejects_empty_label_matrix(shape):
    with pytest.raises(ParameterError):
        majority_partition(LabelMatrix(omega=np.zeros(shape, dtype=int), init_nodes=np.arange(shape[1])), 2)


@pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
def test_consensus_rejects_empty_label_matrix(shape):
    with pytest.raises(ParameterError):
        consensus_matrix(LabelMatrix(omega=np.zeros(shape, dtype=int), init_nodes=np.arange(shape[1])))


def test_canonical_relabel_first_occurrence():
    assert np.array_equal(canonical_relabel([2, 2, 0, 1, 0]), [0, 0, 1, 2, 1])


def test_canonical_relabel_wide_label_span():
    assert np.array_equal(canonical_relabel([500, 500, -100, 7, -100]), [0, 0, 1, 2, 1])


def test_canonical_relabel_blocks_and_shapes():
    assert np.array_equal(canonical_relabel([[2, 2, 0], [5, 1, 5]]), [[0, 0, 1], [0, 1, 0]])
    assert canonical_relabel(np.zeros((3, 0), dtype=int)).shape == (3, 0)
    assert canonical_relabel([]).shape == (0,)
    with pytest.raises(ParameterError):
        canonical_relabel(np.zeros((2, 2, 2), dtype=int))


def test_consensus_single_column():
    omega = LabelMatrix(omega=np.array([[0], [0], [1]]), init_nodes=[0])
    expected = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(consensus_matrix(omega), expected)


def test_consensus_half_on_disagreement():
    omega = LabelMatrix(omega=np.array([[0, 0], [0, 1], [1, 1]]), init_nodes=[0, 1])
    c = consensus_matrix(omega)
    assert c[0, 1] == 0.5
    assert c[0, 0] == 1.0


def test_consensus_matches_triple_loop_exactly():
    rng = np.random.default_rng(2)
    omega_arr = rng.integers(0, 3, size=(30, 20))
    omega = LabelMatrix(omega=omega_arr, init_nodes=np.arange(20))
    c = consensus_matrix(omega)
    m, m_prime = omega_arr.shape
    oracle = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            count = 0
            for k in range(m_prime):
                if omega_arr[i, k] == omega_arr[j, k]:
                    count += 1
            oracle[i, j] = count / m_prime
    assert np.array_equal(c, oracle)


def test_consensus_invariant_under_column_permutations():
    rng = np.random.default_rng(3)
    omega_arr = rng.integers(0, 3, size=(15, 10))
    base = consensus_matrix(LabelMatrix(omega=omega_arr, init_nodes=np.arange(10)))
    shuffled = omega_arr.copy()
    for k in range(10):
        perm = rng.permutation(3)
        shuffled[:, k] = perm[shuffled[:, k]]
    again = consensus_matrix(LabelMatrix(omega=shuffled, init_nodes=np.arange(10)))
    assert np.array_equal(base, again)


def test_majority_all_identical():
    omega = LabelMatrix(omega=np.tile([[0], [1], [1]], (1, 5)), init_nodes=np.arange(5))
    labels, tally = majority_partition(omega, 2)
    assert np.array_equal(labels, [0, 1, 1])
    assert tally.weights == {0: 1.0}


def test_majority_two_to_one():
    p1 = [0, 0, 1, 1]
    p2 = [0, 1, 0, 1]
    omega = LabelMatrix(omega=np.column_stack([p1, p1, p2]), init_nodes=np.arange(3))
    labels, tally = majority_partition(omega, 2)
    assert np.array_equal(labels, p1)
    assert tally.weights[0] == pytest.approx(2 / 3)
    assert tally.weights[2] == pytest.approx(1 / 3)
    assert sum(tally.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_majority_matches_pairwise_grouping_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        q = int(rng.integers(2, 5))
        m, m_prime = 10, int(rng.integers(2, 8))
        omega_arr = rng.integers(0, q, size=(m, m_prime))
        omega = LabelMatrix(omega=omega_arr, init_nodes=np.arange(m_prime))
        _, tally = majority_partition(omega, q)
        assert tally.classes == pairwise_grouping(omega_arr)


def test_run_qtc_uses_every_node_when_m_prime_is_m():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0)], 0.1, 12, seed=0)
    graph = build_graph(pts, 0.2)
    eig = eigendecompose(graph.hamiltonian)
    omega = run_qtc(eig, 0.01, 2, m_prime=24, seed=5)
    assert sorted(omega.init_nodes.tolist()) == list(range(24))


def test_run_qtc_deterministic():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0)], 0.1, 15, seed=1)
    graph = build_graph(pts, 0.2)
    eig = eigendecompose(graph.hamiltonian)
    a = run_qtc(eig, 0.01, 2, m_prime=10, seed=7)
    b = run_qtc(eig, 0.01, 2, m_prime=10, seed=7)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.init_nodes, b.init_nodes)


def test_run_qtc_rejects_oversized_m_prime():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0)], 0.1, 5, seed=2)
    graph = build_graph(pts, 0.3)
    eig = eigendecompose(graph.hamiltonian)
    with pytest.raises(ParameterError):
        run_qtc(eig, 0.01, 2, m_prime=11, seed=0)


def test_run_qtc_three_clouds_mostly_truth():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0), (0.3, 0.52)], 0.1, 60, seed=1)
    graph = build_graph(pts, 0.1)
    eig = eigendecompose(graph.hamiltonian)
    from qtclust import LaplaceParams, gap_stats, select_s

    s = select_s(gap_stats(eig, 3), LaplaceParams())
    omega = run_qtc(eig, s, 3, m_prime=50, seed=0)
    hits = sum(
        partitions_equivalent(omega.omega[:, k], pts.truth, 3) for k in range(omega.n_init)
    )
    assert hits >= 45  # at least 90 percent of the ensemble
    labels, tally = majority_partition(omega, 3)
    assert max(tally.weights.values()) >= 0.9
    assert max(tally.weights.values()) >= 1.0 / omega.n_init


def consensus_oracle(omega_arr):
    m, m_prime = omega_arr.shape
    oracle = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            oracle[i, j] = sum(omega_arr[i, k] == omega_arr[j, k] for k in range(m_prime)) / m_prime
    return oracle


def test_majority_rejects_labels_outside_range():
    for bad in ([[0, 1], [2, 0]], [[0, -1], [1, 0]], [[2], [0]]):
        arr = np.array(bad)
        with pytest.raises(ParameterError):
            majority_partition(LabelMatrix(omega=arr, init_nodes=np.arange(arr.shape[1])), 2)
    with pytest.raises(ParameterError):
        majority_partition(LabelMatrix(omega=np.zeros((3, 2), dtype=int), init_nodes=[0, 1]), 0)


def test_consensus_exact_for_negative_and_sparse_labels():
    rng = np.random.default_rng(5)
    omega_arr = rng.choice([-1, 7, 42], size=(25, 15))
    omega_arr[:, 3] = np.arange(25) * 1000 - 7000  # every node its own label
    c = consensus_matrix(LabelMatrix(omega=omega_arr, init_nodes=np.arange(15)))
    assert np.array_equal(c, consensus_oracle(omega_arr))


@pytest.mark.parametrize("columns_per_block", [1, 3])
def test_ensemble_blocks_do_not_change_results(monkeypatch, columns_per_block):
    rng = np.random.default_rng(6)
    omega_arr = rng.integers(0, 3, size=(20, 40))
    omega_arr[:, 20:] = omega_arr[:, :20]
    omega_arr[:, 7] = np.arange(20)  # more labels than a one-hot block holds at one column per block
    omega = LabelMatrix(omega=omega_arr, init_nodes=np.arange(40))
    ref_labels, ref_tally = majority_partition(omega, 20)
    ref_consensus = consensus_matrix(omega)
    # 128 bytes per entry and 20 rows; a one-hot block then holds 16 * columns_per_block labels
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 128 * 20 * columns_per_block)
    labels, tally = majority_partition(omega, 20)
    assert np.array_equal(labels, ref_labels)
    assert tally == ref_tally
    assert tally.classes == pairwise_grouping(omega_arr)
    assert np.array_equal(consensus_matrix(omega), ref_consensus)
    assert np.array_equal(ref_consensus, consensus_oracle(omega_arr))


@pytest.mark.parametrize("method", ["circle", "diff"])
def test_run_qtc_matches_per_column_reference(monkeypatch, method):
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0), (0.3, 0.52)], 0.1, 12, seed=3)
    graph = build_graph(pts, 0.15)
    eig = eigendecompose(graph.hamiltonian)
    m, m_prime, s, seed = 36, 25, 0.02, 11
    # seven start nodes per block, so the 25 columns span four blocks
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 128 * m * 7)
    omega = run_qtc(eig, s, 3, m_prime=m_prime, seed=seed, method=method)
    rng = np.random.default_rng(seed)
    init_nodes = rng.choice(m, size=m_prime, replace=False)
    col_seeds = rng.integers(0, 2**63 - 1, size=m_prime)
    expected = np.empty((m, m_prime), dtype=int)
    for k in range(m_prime):
        phases = phase_field(laplace_amplitudes(eig, [init_nodes[k]], s)[:, 0])
        if method == "circle":
            expected[:, k] = labels_circle_clustering(phases, 3, int(col_seeds[k]))
        else:
            expected[:, k] = labels_direct_difference(phases, 3)
    assert np.array_equal(omega.init_nodes, init_nodes)
    assert np.array_equal(omega.omega, expected)
