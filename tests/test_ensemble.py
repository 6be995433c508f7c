import numpy as np
import pytest

from qtclust import ensemble
from qtclust import graph as graph_module
from qtclust import (
    LaplaceParams,
    ParameterError,
    canonical_relabel,
    consensus_matrix,
    gen_gaussian_clouds,
    labels_circle_clustering,
    labels_direct_difference,
    majority_partition,
    partitions_equivalent,
    phase_field,
    run_qtc,
    build_graph,
    solve_source,
    transport_source,
)

from conftest import consensus_oracle, pairwise_grouping, permutation_equivalent, traced_peak


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
        majority_partition(np.zeros(shape, dtype=int), 2)


@pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
def test_consensus_rejects_empty_label_matrix(shape):
    with pytest.raises(ParameterError):
        consensus_matrix(np.zeros(shape, dtype=int), 2)


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
    expected = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(consensus_matrix(np.array([[0], [0], [1]]), 2), expected)


def test_consensus_half_on_disagreement():
    c = consensus_matrix(np.array([[0, 0], [0, 1], [1, 1]]), 2)
    assert c[0, 1] == 0.5
    assert c[0, 0] == 1.0


_RNG = np.random.default_rng(2)
CONSENSUS_OMEGAS = {
    "random": _RNG.integers(0, 3, size=(30, 20)),
    # nodes labeled alike by every column share a row: 40 rows drawn from 5
    "pooled": _RNG.integers(0, 3, size=(5, 20))[_RNG.integers(0, 5, size=40)],
    "distinct": np.arange(30)[:, None] // 3 ** np.arange(4) % 3,
    "one_group": np.tile(_RNG.integers(0, 3, size=20), (25, 1)),
}


def test_consensus_matches_triple_loop_exactly(monkeypatch):
    for omega_arr in CONSENSUS_OMEGAS.values():
        assert consensus_matrix(omega_arr, 3).tobytes() == consensus_oracle(omega_arr).tobytes()
    # every row gets the same key, so only the row comparisons keep different rows apart
    monkeypatch.setattr(graph_module, "_key_weights", lambda n: np.zeros(n, dtype=np.uint64))
    for omega_arr in CONSENSUS_OMEGAS.values():
        assert consensus_matrix(omega_arr, 3).tobytes() == consensus_oracle(omega_arr).tobytes()
    # the counts expanded in place a block of one row and of 7 rows at a time, from the last block back
    for rows in (1, 7):
        for omega_arr in CONSENSUS_OMEGAS.values():
            monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 8 * len(omega_arr) * rows)
            assert consensus_matrix(omega_arr, 3).tobytes() == consensus_oracle(omega_arr).tobytes()


def test_consensus_at_every_start_node_holds_one_m_by_m_array(monkeypatch):
    # m' = m = 800 with every row distinct, so g = m: the counts fill the result and are expanded there, where
    # g x g counts, a g x m gather and the result held 24 m^2 bytes at once
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 1 << 18)
    m = 800
    omega_arr = np.random.default_rng(5).integers(0, 3, size=(m, m))
    with traced_peak() as peak:
        got = consensus_matrix(omega_arr, 3)
    assert np.unique(omega_arr, axis=0).shape[0] == m
    # a Y block, its product tile, the labels and the expansion each within the budget; ~1 MiB blocks of
    # row comparisons in graph._equal_rows
    assert peak() <= 8 * m * m + 4 * ensemble._BLOCK_BYTES + (2 << 20)
    for rows in (slice(0, 40), slice(m - 40, m)):
        assert got[rows, rows].tobytes() == consensus_oracle(omega_arr[rows]).tobytes()


def test_consensus_exact_over_thousands_of_columns_in_one_block():
    # 4 nodes and q = 2: all 5000 columns share one float32 Y block, so each product entry sums up to 5000 ones
    rng = np.random.default_rng(4)
    omega_arr = rng.integers(0, 2, size=(4, 5000))
    omega_arr[1] = omega_arr[0]
    assert ensemble._BLOCK_BYTES // (4 * 4) // 2 >= 5000
    assert consensus_matrix(omega_arr, 2).tobytes() == consensus_oracle(omega_arr).tobytes()


def test_consensus_invariant_under_column_permutations():
    rng = np.random.default_rng(3)
    omega_arr = rng.integers(0, 3, size=(15, 10))
    base = consensus_matrix(omega_arr, 3)
    shuffled = omega_arr.copy()
    for k in range(10):
        perm = rng.permutation(3)
        shuffled[:, k] = perm[shuffled[:, k]]
    again = consensus_matrix(shuffled, 3)
    assert np.array_equal(base, again)


def test_majority_all_identical():
    labels, tally = majority_partition(np.tile([[0], [1], [1]], (1, 5)), 2)
    assert np.array_equal(labels, [0, 1, 1])
    assert tally.weights == {0: 1.0}


def test_majority_two_to_one():
    p1 = [0, 0, 1, 1]
    p2 = [0, 1, 0, 1]
    labels, tally = majority_partition(np.column_stack([p1, p1, p2]), 2)
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
        _, tally = majority_partition(omega_arr, q)
        assert tally.classes == pairwise_grouping(omega_arr)


def test_run_qtc_uses_every_node_when_m_prime_is_m():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0)], 0.1, 12, seed=0)
    graph = build_graph(pts, 0.2)
    _, init_nodes = run_qtc(pts.m, solve_source(graph.hamiltonian, 0.01), 2, m_prime=24, seed=5)
    assert sorted(init_nodes.tolist()) == list(range(24))


def test_run_qtc_deterministic():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0)], 0.1, 15, seed=1)
    graph = build_graph(pts, 0.2)
    omega_a, init_a = run_qtc(pts.m, solve_source(graph.hamiltonian, 0.01), 2, m_prime=10, seed=7)
    omega_b, init_b = run_qtc(pts.m, solve_source(graph.hamiltonian, 0.01), 2, m_prime=10, seed=7)
    assert np.array_equal(omega_a, omega_b)
    assert np.array_equal(init_a, init_b)
    assert not omega_a.flags.writeable


def test_run_qtc_rejects_oversized_m_prime():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0)], 0.1, 5, seed=2)
    graph = build_graph(pts, 0.3)
    with pytest.raises(ParameterError):
        run_qtc(pts.m, solve_source(graph.hamiltonian, 0.01), 2, m_prime=11, seed=0)


def test_run_qtc_three_clouds_mostly_truth():
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0), (0.3, 0.52)], 0.1, 60, seed=1)
    _, _, source = transport_source(build_graph(pts, 0.1).hamiltonian, 3, LaplaceParams())
    omega, _ = run_qtc(pts.m, source, 3, m_prime=50, seed=0)
    hits = sum(partitions_equivalent(omega[:, k], pts.truth, 3) for k in range(50))
    assert hits >= 45  # at least 90 percent of the ensemble
    labels, tally = majority_partition(omega, 3)
    assert max(tally.weights.values()) >= 0.9
    assert max(tally.weights.values()) >= 1.0 / 50


def test_majority_rejects_labels_outside_range():
    for bad in ([[0, 1], [2, 0]], [[0, -1], [1, 0]], [[2], [0]]):
        arr = np.array(bad)
        with pytest.raises(ParameterError):
            majority_partition(arr, 2)
        with pytest.raises(ParameterError):
            consensus_matrix(arr, 2)
    with pytest.raises(ParameterError):
        majority_partition(np.zeros((3, 2), dtype=int), 0)
    with pytest.raises(ParameterError):
        consensus_matrix(np.zeros(3, dtype=int), 1)


def test_consensus_exact_for_sparse_labels_and_rejects_negative():
    rng = np.random.default_rng(5)
    omega_arr = rng.choice([0, 7, 42], size=(25, 15))
    omega_arr[:, 3] = np.arange(25) * 2  # every node its own label
    assert np.array_equal(consensus_matrix(omega_arr, 50), consensus_oracle(omega_arr))
    omega_arr[0, 0] = -1
    with pytest.raises(ParameterError):
        consensus_matrix(omega_arr, 50)


@pytest.mark.parametrize("columns_per_block", [1, 3])
def test_ensemble_blocks_do_not_change_results(monkeypatch, columns_per_block):
    rng = np.random.default_rng(6)
    omega_arr = rng.integers(0, 3, size=(20, 40))
    omega_arr[:, 20:] = omega_arr[:, :20]
    omega_arr[:, 7] = np.arange(20)  # every node its own label, so q = 20
    ref_labels, ref_tally = majority_partition(omega_arr, 20)
    ref_consensus = consensus_matrix(omega_arr, 20)
    # 128 bytes per entry and 20 rows: the vote relabels columns_per_block columns at a time
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 128 * 20 * columns_per_block)
    labels, tally = majority_partition(omega_arr, 20)
    assert np.array_equal(labels, ref_labels)
    assert tally == ref_tally
    assert tally.classes == pairwise_grouping(omega_arr)
    # 4-byte one-hot entries and 20 rows: a block holds 16 * columns_per_block entries per row, so one
    # column of width q = 20 with its product split into row tiles of 16, or two columns
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 64 * 20 * columns_per_block)
    assert consensus_matrix(omega_arr, 20).tobytes() == ref_consensus.tobytes()
    assert ref_consensus.tobytes() == consensus_oracle(omega_arr).tobytes()


@pytest.mark.parametrize("method", ["circle", "diff"])
def test_run_qtc_matches_per_column_reference(monkeypatch, method):
    pts = gen_gaussian_clouds([(0, 0), (0.6, 0), (0.3, 0.52)], 0.1, 12, seed=3)
    h = build_graph(pts, 0.15).hamiltonian
    m, m_prime, s, seed = 36, 25, 0.02, 11
    # seven start nodes per block, so the 25 columns span four blocks
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 128 * m * 7)
    omega, got_init_nodes = run_qtc(m, solve_source(h, s), 3, m_prime=m_prime, seed=seed, method=method)
    rng = np.random.default_rng(seed)
    init_nodes = rng.choice(m, size=m_prime, replace=False)
    col_seeds = rng.integers(0, 2**63 - 1, size=m_prime)
    expected = np.empty((m, m_prime), dtype=int)
    for k in range(m_prime):
        phases = phase_field(next(solve_source(h, s)(init_nodes[k : k + 1], 1))[:, 0])
        if method == "circle":
            expected[:, k] = labels_circle_clustering(phases, 3, int(col_seeds[k]))
        else:
            expected[:, k] = labels_direct_difference(phases, 3)
    assert np.array_equal(got_init_nodes, init_nodes)
    assert np.array_equal(omega, expected)
