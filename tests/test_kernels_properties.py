"""Property tests of the tiled JSD kernel against the group-by-group oracle, and of the kernels' symmetry."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtclust import EigenSystem, eigendecompose, jsd_matrix, laplace_similarity, transition_kernel
from qtclust import kernels
from qtclust.kernels import DEGENERACY_TOL

from conftest import jsd_matrix_oracle

# energy levels whose spacings straddle DEGENERACY_TOL: 0.5 tol apart joins a group, 2-3 tol apart splits it
LEVELS = [0.0, 0.5e-9, 2.5e-9, 0.7, 1.0, 1.0 + 0.5e-9, 1.0 + 3e-9, 1.0 + 3.5e-9, 2.0]
BUDGETS = [1, 7, kernels._TILE_ENTRIES]


@st.composite
def spectra(draw):
    """Ascending energies paired with the columns of a block-diagonal orthogonal matrix.

    The blocks leave nodes with zero weight on every mode outside their own
    block; the energies repeat, sit within or beyond DEGENERACY_TOL of each
    other, or form one group.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    m = sum(sizes)
    if draw(st.booleans()):
        energies = np.full(m, draw(st.sampled_from(LEVELS)))
    else:
        energies = np.sort(draw(st.lists(st.sampled_from(LEVELS), min_size=m, max_size=m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = np.zeros((m, m))
    start = 0
    for size in sizes:
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        modes[start : start + size, start : start + size] = q
        start += size
    return EigenSystem(energies, modes[rng.permutation(m)])


@st.composite
def repeated_blocks(draw):
    """The eigensystem of H = copies of one random graph Laplacian on the diagonal: every energy repeats."""
    size = draw(st.integers(1, 4))
    copies = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.0, 1.0, size=(size, size))
    a = np.triu(a, 1) + np.triu(a, 1).T
    block = np.diag(a.sum(axis=1)) - a
    return eigendecompose(np.kron(np.eye(copies), block))


systems = st.one_of(spectra(), repeated_blocks())


@settings(max_examples=150, deadline=None)
@given(systems)
@example(EigenSystem(np.zeros(1), np.ones((1, 1))))
def test_jsd_matches_oracle(eig):
    d = jsd_matrix(eig)
    assert d.shape == (eig.size, eig.size)
    assert np.abs(d - jsd_matrix_oracle(eig)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(systems)
def test_jsd_tile_budget_changes_nothing_but_rounding(eig):
    results = []
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TILE_ENTRIES", budget)
            d = jsd_matrix(eig)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(eig.size))
        assert d.min() >= 0.0 and d.max() <= kernels.LN2
        results.append(d)
    for d in results[:-1]:
        assert np.abs(d - results[-1]).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(systems, st.sampled_from(BUDGETS))
def test_kernels_are_bitwise_symmetric(eig, budget):
    # each kernel entry and its mirror come from one computation, so they agree bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_TILE_ENTRIES", budget)
        matrices = [transition_kernel(eig), laplace_similarity(eig, 0.5), jsd_matrix(eig)]
    for matrix in matrices:
        bits = matrix.view(np.int64)
        assert np.array_equal(bits, bits.T)


def test_levels_straddle_the_degeneracy_tolerance():
    groups = kernels._degenerate_groups(np.array(LEVELS), DEGENERACY_TOL)
    assert [g.tolist() for g in groups] == [[0, 1], [2], [3], [4, 5], [6, 7], [8]]
