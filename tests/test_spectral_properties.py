"""Property tests of the block Lanczos low spectrum against eigvalsh, and of both qtc routes on disconnected graphs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtclust import DegenerateGapError, build_graph, low_energies, qtc
from qtclust.spectral import CLAMP_TOL

from conftest import random_points

# eigvalsh and the Lanczos Ritz values are each exact for H plus a perturbation of a few eps ||H||
# (||H|| <= 2), so near zero they can differ by that much whatever their relative accuracy
ROUNDING = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pieces=st.integers(1, 3),
    size=st.integers(0, 36),
    k=st.integers(1, 12),
)
@example(seed=0, pieces=1, size=1, k=3)  # m = 3, below the 8-column start block
@example(seed=1, pieces=3, size=0, k=6)  # three two-node components, k = m
@example(seed=2, pieces=2, size=30, k=4)
@example(seed=15288, pieces=3, size=3, k=3)  # the 8-column start block held two of the three zero modes
def test_low_energies_match_eigvalsh(seed, pieces, size, k):
    m = 2 * pieces + size
    points, eps = random_points(seed, m, pieces=pieces)
    h = build_graph(points, eps).hamiltonian
    k = min(k, m)
    ref = np.linalg.eigvalsh(h)[:k]
    ref[np.abs(ref) < CLAMP_TOL] = 0.0
    got = low_energies(h, k)
    assert got.shape == (k,)
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref) + ROUNDING)
    if pieces > 1 and m >= 6:
        # the first q energies vanish, so both routes find no gap: one start node takes the solve
        # route (6 <= m), m start nodes the eigendecomposition
        q = min(k, pieces) if k > 1 else 2
        errors = []
        for m_prime in (1, m):
            with pytest.raises(DegenerateGapError) as info:
                qtc(points, eps, q, m_prime=m_prime)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
