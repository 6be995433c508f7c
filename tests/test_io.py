from fractions import Fraction

import numpy as np
import pytest

from qtclust import InputError, ParameterError
from qtclust import graph as graph_module
from qtclust import io as qio
from qtclust.io import load_matrix_csv, save_matrix_csv

from conftest import FLOAT_SPECIALS, consensus_oracle, matrix_csv_oracle


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


@pytest.mark.parametrize("colliding_keys", [False, True])
def test_levels_route_with_repeated_rows_matches_oracle_and_raises_after_earlier_rows(tmp_path, monkeypatch, colliding_keys):
    if colliding_keys:
        # every row gets the same key, so only the row comparisons tell repeated rows from others
        monkeypatch.setattr(graph_module, "_key_weights", lambda n: np.zeros(n, dtype=np.uint64))
    rng = np.random.default_rng(6)
    omega = rng.integers(0, 3, size=(4, 7))[rng.integers(0, 4, size=30)]
    matrix = consensus_oracle(omega)  # 30 x 30, entries k / 7, 4 distinct rows
    path = tmp_path / "m.csv"
    # one row per block, or two, or all
    for bound in (1, 64, qio._WRITE_BLOCK):
        monkeypatch.setattr(qio, "_WRITE_BLOCK", bound)
        save_matrix_csv(path, matrix, levels=7)
        assert path.read_bytes() == matrix_csv_oracle(matrix)
    # the last row repeats an earlier one except for one entry just off the grid
    monkeypatch.setattr(qio, "_WRITE_BLOCK", 30)
    bad = matrix.copy()
    bad[29, 3] = np.nextafter(bad[29, 3], 2.0)
    with pytest.raises(ParameterError, match="k / 7"):
        save_matrix_csv(path, bad, levels=7)
    assert path.read_bytes() == matrix_csv_oracle(matrix[:29])


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
        # bitwise symmetric, in Fortran order
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


def _neighbours(values, steps):
    """``values`` and the floats up to ``steps`` ulps below and above each."""
    out = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        current = out[0]
        for _ in range(steps):
            current = np.nextafter(current, direction)
            out.append(current)
    return np.concatenate(out)


def _formatter_sweep():
    """Deterministic inputs of the vectorized ``%.17g`` where it is easiest to get wrong."""
    rng = np.random.default_rng(11)
    exponents = range(-330, 309)
    powers = [10.0**k for k in exponents] + [float(f"1e{k}") for k in exponents]
    # 17-digit roundings that carry into the next decade
    carries = [float(f"9.99999999999999995e{k}") for k in exponents] + [float(f"9.9999999999999999e{k}") for k in exponents]
    mantissas = rng.integers(2**52, 2**53, size=2000)
    return np.concatenate(
        [
            _neighbours(powers, 2),
            _neighbours(carries, 1),
            # both sides of the fixed and exponent notation switches
            _neighbours([1e-5, 1e-4, 1e16, 1e17], 40),
            # integers with trailing zeros, and integers around 2^53 and 10^17
            (rng.integers(1, 10**4, size=2000) * 10.0 ** rng.integers(0, 23, size=2000)),
            rng.integers(2**53 - 10**4, 2**53 + 10**4, size=2000).astype(float),
            rng.integers(10**17 - 10**4, 10**17 + 10**4, size=2000).astype(float),
            # halfway candidates: 18-digit values that end in 5, and binary halves
            (mantissas + 0.5) / 2.0 ** rng.integers(0, 8, size=mantissas.size),
            mantissas / 4.0,
            rng.integers(0, 2**64, size=10**5, dtype=np.uint64).view(np.float64),
        ]
    )


def test_vectorized_format_matches_percent_on_sweep():
    values = _formatter_sweep()
    values = np.concatenate([values, -values])
    block = np.resize(values, (-(-values.size // 97), 97))
    assert qio._csv_bytes(block).tobytes() == matrix_csv_oracle(block)


def test_vectorized_format_falls_back_on_few_entries(monkeypatch):
    calls = []

    class CountingFormat(str):
        def __mod__(self, value):
            calls.append(value)
            return str.__mod__(self, value)

    # entries like the P, S and JSD kernels' at m = 600: symmetric, from 1 down through many decades, a unit diagonal
    rng = np.random.default_rng(3)
    matrix = 10.0 ** -rng.exponential(2.0, size=(600, 600)) * rng.random((600, 600))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    monkeypatch.setattr(qio, "_FMT", CountingFormat(qio._FMT))
    for lo in range(0, 600, 3):
        qio._csv_bytes(matrix[lo : lo + 3])
    assert len(calls) < 0.01 * matrix.size
    # around each power of ten, where log10 puts the exponent one too high for the floats just below it
    calls.clear()
    exponents = range(-279, 280)
    near = _neighbours([10.0**k for k in exponents] + [float(f"1e{k}") for k in exponents], 2)
    qio._csv_bytes(near.reshape(1, -1))
    assert len(calls) < 0.05 * near.size


def test_powers_of_ten_table_is_exact():
    heads, tails = [], []
    for k in range(qio._POW_MIN, 1 - qio._POW_MIN):
        power = Fraction(10) ** k
        heads.append(float(power))
        tails.append(float(power - Fraction(heads[-1])))
    assert qio._POW_HI.tobytes() == np.array(heads).tobytes()
    assert qio._POW_LO.tobytes() == np.array(tails).tobytes()


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
