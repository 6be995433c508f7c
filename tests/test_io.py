import numpy as np
import pytest

from qtclust import InputError, ParameterError
from qtclust import io as qio
from qtclust.io import load_matrix_csv, save_matrix_csv

from conftest import FLOAT_SPECIALS, matrix_csv_oracle


def _special_matrix(rows, cols, seed=0):
    """Specials and a few random values, each repeated across rows."""
    rng = np.random.default_rng(seed)
    pool = np.array(FLOAT_SPECIALS + rng.normal(size=6).tolist())
    return pool[rng.integers(0, pool.size, size=(rows, cols))]


def _mirrored(matrix):
    """The square ``matrix`` with its upper triangle copied bit for bit into its lower one."""
    return np.where(np.triu(np.ones(matrix.shape, dtype=bool)), matrix, matrix.T)


@pytest.mark.parametrize("shape", [(9, 13), (1, 40), (40, 1), (1, 1), (3, 0)])
def test_save_matrix_matches_per_entry_oracle(tmp_path, shape):
    matrix = _special_matrix(*shape)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, matrix)
    assert path.read_bytes() == matrix_csv_oracle(matrix)


@pytest.mark.parametrize("distinct", [1.0, 0.6, 0.4, 0.05])
def test_save_matrix_oracle_at_any_share_of_distinct_values(tmp_path, distinct):
    # tables from one entry per cell (the kernels) to a few repeated values (a consensus matrix)
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(30, 20)) * 10.0 ** rng.integers(-20, 20, size=(30, 20))
    repeat = rng.random(matrix.shape) > distinct
    matrix[repeat] = rng.choice(FLOAT_SPECIALS, size=int(repeat.sum()))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, matrix)
    assert path.read_bytes() == matrix_csv_oracle(matrix)


def test_save_matrix_one_dimensional_is_one_row(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv(path, [0.5, -0.0, 2.0])
    assert path.read_bytes() == b"0.5,-0,2\n"


def test_save_matrix_rejects_three_dimensional_input(tmp_path):
    with pytest.raises(InputError):
        save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2, 2)))


@pytest.mark.parametrize("levels", [0, -3, 2.5])
def test_save_matrix_levels_must_be_a_positive_integer(tmp_path, levels):
    with pytest.raises(ParameterError, match="levels must be a positive integer"):
        save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2)), levels=levels)


@pytest.mark.parametrize("bound", [1, 7])
def test_block_bound_does_not_change_bytes(tmp_path, monkeypatch, bound):
    matrices = {
        "narrow": _special_matrix(23, 3, seed=1),  # several rows per block at bound 7
        "column": _special_matrix(40, 1, seed=2),
        "wide": _special_matrix(3, 50, seed=3),  # a row longer than the bound is written whole
        "fortran": np.asfortranarray(_special_matrix(17, 6, seed=4)),
        # bitwise symmetric: the mirror route, in 2 x 2 tiles of 25 x 25 by default and in smaller ones at the bound
        "symmetric_fortran": np.asfortranarray(_mirrored(_special_matrix(50, 50, seed=5))),
    }
    default = {}
    for name, m in matrices.items():
        save_matrix_csv(tmp_path / f"{name}.csv", m)
        default[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert default[name] == matrix_csv_oracle(m)
    monkeypatch.setattr(qio, "_WRITE_BLOCK", bound)
    for name, m in matrices.items():
        save_matrix_csv(tmp_path / f"{name}_{bound}.csv", m)
        assert (tmp_path / f"{name}_{bound}.csv").read_bytes() == default[name]


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    matrix = np.concatenate(
        [rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-300, 300, size=(6, 5)), [[0.0, -0.0, np.inf, -np.inf, 5e-324]]]
    )
    path = tmp_path / "m.csv"
    save_matrix_csv(path, matrix)
    back = load_matrix_csv(path)
    assert back.tobytes() == matrix.tobytes()


def test_round_trip_keeps_nan(tmp_path):
    matrix = np.array([[np.nan, 1.0], [-np.nan, -0.0]])
    path = tmp_path / "m.csv"
    save_matrix_csv(path, matrix)
    back = load_matrix_csv(path)
    assert np.isnan(back[:, 0]).all()
    assert back[:, 1].tobytes() == matrix[:, 1].tobytes()


@pytest.mark.parametrize(
    "text, line",
    [
        ("1,2\n3,abc\n", 2),  # non-numeric cell
        ("1,2\n\n3,,4\n", 3),  # empty cell, after a skipped blank line
        ("1,2,3\n4,5\n", 2),  # short row
        ("1\n2\n3,4\n", 3),  # long row
    ],
)
def test_load_matrix_csv_rejects_bad_rows(tmp_path, text, line):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=f"{path.name}, line {line}"):
        load_matrix_csv(path)


def test_load_matrix_csv_missing_and_empty(tmp_path):
    with pytest.raises(InputError):
        load_matrix_csv(tmp_path / "nope.csv")
    (tmp_path / "empty.csv").write_text("\n\n")
    with pytest.raises(InputError):
        load_matrix_csv(tmp_path / "empty.csv")


def test_table_csv_matches_row_writer_oracle(tmp_path):
    floats = np.array(FLOAT_SPECIALS)
    ints = np.arange(floats.size) - 3
    path = tmp_path / "t.csv"
    qio.save_table_csv(path, ["i", "x"], [ints, floats])
    rows = "".join(f"{i},{'%.17g' % v}\r\n" for i, v in zip(ints.tolist(), floats.tolist()))
    assert path.read_bytes() == ("i,x\r\n" + rows).encode()
