"""Property test of the block LDL^T amplitudes of ``solve_source`` against LAPACK's pivoted LU."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtclust import build_graph, solve_source, transport

from conftest import random_points, solve_source_oracle


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    s=st.floats(1e-3, 2.0),
)
@example(seed=0, m=1, s=1e-3)
@example(seed=1, m=40, s=2.0)
def test_ldlt_amplitudes_match_pivoted_lu(seed, m, s):
    # m = 1 is one node with its self-loop, whose normalized Laplacian is 0
    h = np.zeros((1, 1)) if m == 1 else build_graph(*random_points(seed, m)).hamiltonian
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    width = int(rng.integers(1, init.size + 1))
    ref = solve_source_oracle(h, s, init)
    # one block, ragged last blocks and blocks of one to three columns
    for block in sorted({1, 2, 3, max(m - 1, 1), m, m + 1}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_LDLT_BLOCK", block)
            got = list(solve_source(h, s)(init, width))
        assert [b.shape[1] for b in got[:-1]] == [width] * (len(got) - 1)
        got = np.hstack(got)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), block
