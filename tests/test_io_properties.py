"""Property test of the block-table matrix writer against the per-entry format."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtclust import io as qio
from qtclust.io import save_matrix_csv

from conftest import FLOAT_SPECIALS, matrix_csv_oracle


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_save_matrix_matches_per_entry_oracle_property(tmp_path, data):
    shape = data.draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    values = st.sampled_from(FLOAT_SPECIALS) | st.floats()
    if data.draw(st.booleans()):
        # a small pool makes values repeat within and across rows
        values = st.sampled_from(data.draw(st.lists(values, min_size=1, max_size=8)))
    matrix = data.draw(arrays(np.float64, shape, elements=values))
    bound = data.draw(st.sampled_from([1, 2, 5, qio._WRITE_BLOCK]))
    path = tmp_path / "m.csv"
    with mock.patch.object(qio, "_WRITE_BLOCK", bound):
        save_matrix_csv(path, matrix)
    assert path.read_bytes() == matrix_csv_oracle(matrix)
