"""Property tests of the matrix writer and its formatter against the per-entry format."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtclust import io as qio
from qtclust.errors import ParameterError
from qtclust.io import save_matrix_csv

from conftest import FLOAT_SPECIALS, matrix_csv_oracle


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
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
        # the levels route: counts / levels written from a table of the levels + 1 values
        levels = data.draw(st.integers(1, 1000))
        counts = data.draw(arrays(np.int64, shape, elements=st.integers(0, levels)))
        if data.draw(st.booleans()):
            # every row a copy of one of the first two, so most rows repeat an earlier one and the entry
            # put off the grid below often sits in a row that differs from an earlier row only there
            counts = counts[np.minimum(data.draw(arrays(np.intp, shape[0], elements=st.integers(0, 1))), shape[0] - 1)]
        grid = counts / levels
        save_matrix_csv(path, grid, levels=levels)
        assert path.read_bytes() == matrix_csv_oracle(grid)
        # one entry off the grid (by half a step or by one ulp), NaN, inf, above 1, below 0, or -0.0
        # (0 / levels is +0.0) is refused
        k = data.draw(st.integers(0, levels - 1))
        grid[tuple(data.draw(st.integers(0, n - 1)) for n in shape)] = data.draw(
            st.sampled_from(
                [(k + 0.5) / levels, np.nextafter(k / levels, 1.0), np.nan, np.inf, 1.0 + 2.0**-52, 1.5, -1.0 / levels, -0.0]
            )
        )
        with pytest.raises(ParameterError):
            save_matrix_csv(path, grid, levels=levels)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mirror_route_matches_per_entry_oracle_property(tmp_path, data):
    m = data.draw(st.integers(1, 12))
    values = st.sampled_from(FLOAT_SPECIALS) | st.floats()
    if data.draw(st.booleans()):
        values = st.sampled_from(data.draw(st.lists(values, min_size=1, max_size=8)))
    # the upper triangle drawn and copied to the lower one, every bit kept, NaN payloads included
    upper = np.triu_indices(m)
    matrix = np.empty((m, m))
    matrix[upper] = matrix.T[upper] = data.draw(arrays(np.float64, upper[0].size, elements=values))
    if m > 1 and data.draw(st.booleans()):
        # one entry differs from its mirror in its bits only (or in its NaN payload)
        i, j = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)))
        matrix[i, j], matrix[j, i] = data.draw(
            st.sampled_from(
                [
                    (0.0, -0.0),
                    (np.nan, float(np.copysign(np.nan, -1.0))),
                    (FLOAT_SPECIALS[6], np.nan),
                    (matrix[i, j], np.nextafter(matrix[i, j], 0.0)),
                ]
            )
        )
    bound = data.draw(st.sampled_from([1, 2, 5, qio._WRITE_BLOCK]))
    path = tmp_path / "m.csv"
    with mock.patch.object(qio, "_WRITE_BLOCK", bound):
        save_matrix_csv(path, matrix)
    assert path.read_bytes() == matrix_csv_oracle(matrix)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 40)), elements=st.sampled_from(FLOAT_SPECIALS) | st.floats()))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vectorized_format_matches_percent_property(block):
    assert qio._csv_bytes(block).tobytes() == matrix_csv_oracle(block)
