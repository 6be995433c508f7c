"""Property tests of the ensemble's relabeling, equivalence rule, hashed majority vote and consensus."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qtclust import canonical_relabel, consensus_matrix, ensemble, majority_partition, partitions_equivalent

from conftest import consensus_oracle, fingerprint_equivalent, pairwise_grouping, permutation_equivalent


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_relabel_matches_first_appearance_oracle(data):
    # a few values drawn from the whole int64 range, repeated along each row
    pool = data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=6))
    n = data.draw(st.integers(1, 40))
    block = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=1, max_size=5))

    def first_appearance(labels):
        names = {}
        return [names.setdefault(v, len(names)) for v in labels]

    expected = [first_appearance(row) for row in block]
    assert canonical_relabel(np.array(block)).tolist() == expected
    assert canonical_relabel(np.array(block[0])).tolist() == expected[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_majority_hashed_grouping_matches_pairwise_property(data):
    q = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 8))
    m_prime = data.draw(st.integers(1, 12))
    flat = data.draw(st.lists(st.integers(0, q - 1), min_size=m * m_prime, max_size=m * m_prime))
    omega_arr = np.array(flat, dtype=int).reshape(m, m_prime)
    labels, tally = majority_partition(omega_arr, q)
    classes = pairwise_grouping(omega_arr)
    assert tally.classes == classes
    assert tally.weights == {rep: len(g) / m_prime for rep, g in classes.items()}
    winner = max(classes, key=lambda rep: (len(classes[rep]), -rep))
    assert np.array_equal(labels, canonical_relabel(omega_arr[:, winner]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equivalence_rule_matches_fingerprint_and_permutation_oracles(data):
    q = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 12))
    # each column draws from its own subset of [0, q), so unused labels are common
    column = st.lists(st.integers(0, q - 1), min_size=1, unique=True).flatmap(
        lambda used: st.lists(st.sampled_from(used), min_size=m, max_size=m)
    )
    a = data.draw(column)
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(q)))
        b = [perm[x] for x in a]
    else:
        b = data.draw(column)
    expected = permutation_equivalent(a, b, q)
    assert partitions_equivalent(a, b, q) == expected
    assert fingerprint_equivalent(a, b) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_consensus_matches_per_pair_oracle(data):
    q = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 10))
    m_prime = data.draw(st.integers(1, 8))
    # each column draws from its own nonempty subset of [0, q), so unused labels are common; one byte per
    # column picks the subset (a bit mask) and one per entry its label in it, two cheap draws in all
    masks = data.draw(st.binary(min_size=m_prime, max_size=m_prime))
    picks = np.frombuffer(data.draw(st.binary(min_size=m * m_prime, max_size=m * m_prime)), dtype=np.uint8)
    subsets = [np.flatnonzero((byte % (2**q - 1) + 1) >> np.arange(q) & 1) for byte in masks]
    omega_arr = np.stack([used[col % used.size] for used, col in zip(subsets, picks.reshape(m, m_prime).T)], axis=1)
    if data.draw(st.booleans()):
        # one column gives every node its own label
        q = max(q, m)
        omega_arr[:, data.draw(st.integers(0, m_prime - 1))] = data.draw(st.permutations(range(m)))
    # float32 Y blocks of one or several columns; a budget under 4 m^2 bytes splits the product into row tiles
    budget = data.draw(st.sampled_from([4 * m * q, 4 * m * q * 3, 4 * m * (m - 1) + 4, ensemble._BLOCK_BYTES]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "_BLOCK_BYTES", budget)
        got = consensus_matrix(omega_arr, q)
    assert got.tobytes() == consensus_oracle(omega_arr).tobytes()
