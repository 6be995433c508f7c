"""Points-CSV fuzzing: junk file contents load as a PointSet or raise InputError, and ``eigen`` exits 0 or 2.

Files are drawn from a few headers and rows of numbers, specials (``inf``,
``nan``, overflow), junk text, NUL, a BOM, quotes, ragged rows and a cell
over csv's field size limit, joined by any line ending; bytes that are not
UTF-8 are spliced in at random.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qtclust import InputError, PointSet
from qtclust.cli import main
from qtclust.io import load_points_csv

NUMBERS = ["0", "1", "2", "7", "0.25", "-1.5", "3e-2", "-0"]
ODD_CELLS = ["inf", "-inf", "nan", "1e400", "1e200", "-3e-320", " 1", "0x1", "1_0", "", "abc", "\x00", '"', '"1"',
             '""', '"1,2"', "\ufeff1", "\u0661", "1" * 131073, "\r", "\n"]
ODD_HEADERS = ["", "x0", "x1,x0", "\ufeffx0,x1", '"x0","x1"', "x0,,x1", "x0,x1,label,label", "X0,x1"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"]


@st.composite
def points_files(draw) -> bytes:
    """A points file of 0 to 8 rows, clean about a third of the time so that many examples reach eigen."""
    dim = draw(st.integers(1, 3))
    header = [f"x{k}" for k in range(dim)] + draw(st.sampled_from([[], ["label"]]))
    table = [[draw(st.sampled_from(NUMBERS)) for _ in header] for _ in range(draw(st.integers(0, 8)))]
    if table:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            row = draw(st.sampled_from(table))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS) | st.text(max_size=3))
        if not draw(st.integers(0, 4)):
            ragged = draw(st.sampled_from(table))
            del ragged[draw(st.integers(0, len(ragged))) :]
    lines = [",".join(header) if draw(st.integers(0, 5)) else draw(st.sampled_from(ODD_HEADERS))]
    lines += [",".join(row) for row in table]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()
    if not draw(st.integers(0, 5)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("points_fuzz")


@settings(max_examples=200, deadline=None)
@given(data=points_files())
def test_load_points_csv_returns_points_or_raises_input_error(workdir, data):
    path = workdir / "points.csv"
    path.write_bytes(data)
    try:
        points = load_points_csv(path)
    except InputError:
        return
    assert isinstance(points, PointSet)


@settings(max_examples=100, deadline=None)
@given(data=points_files())
def test_eigen_on_any_points_file_exits_0_or_2(workdir, data):
    path = workdir / "points.csv"
    path.write_bytes(data)
    try:
        code = main(["eigen", "--input", str(path), "--eps", "0.5", "--out", str(workdir / "out")])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
