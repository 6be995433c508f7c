"""CSV readers and writers for points, matrices, and labels.

Floats are written as ``%.17g``, so every file round-trips bit-exactly
through text: ``-0.0`` is written ``-0``, infinities ``inf`` and ``-inf``,
and every NaN ``nan``.  A matrix file depends on the matrix's bits only, so
a rerun writes byte-identical files at a fixed BLAS thread count; runs at 1
and at 2 threads compute matrices that differ in the last bits.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager

import numpy as np

from .errors import InputError, ParameterError
from .graph import PointSet

_FMT = "%.17g"
# entries per block of rows in save_matrix_csv, and per tile (about 45 x 45) of its mirror route.  The
# block sets the writer's scratch, about 0.25 KiB per distinct value, which the allocator keeps resident
# after the write; at m=600 the JSD kernel's memory peak rose 2 MiB with 8192-entry blocks and 0.3 MiB
# with 2048.
_WRITE_BLOCK = 1 << 11
_INT64 = np.iinfo(np.int64)


@contextmanager
def open_for_writing(path):
    """The text file ``path`` opened for writing, as every artifact is; ``ParameterError`` if it cannot be."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from None
    with fh:
        yield fh


def save_table_csv(path, header, columns) -> None:
    """A header row, then row i holds entry i of each of the equal-length ``columns``.

    Float columns are written as ``_FMT``, integer columns as plain integers.
    """
    cells = [
        [_FMT % v for v in col.tolist()] if col.dtype.kind == "f" else [str(v) for v in col.tolist()]
        for col in map(np.asarray, columns)
    ]
    with open_for_writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def save_points_csv(path, points: PointSet) -> None:
    """Header x0,...,x{d-1}[,label]; one row per sample."""
    header = [f"x{k}" for k in range(points.dim)]
    columns = list(points.points.T)
    if points.truth is not None:
        header.append("label")
        columns.append(points.truth)
    save_table_csv(path, header, columns)


@contextmanager
def read_csv(path):
    """A ``csv.reader`` over the UTF-8 text file at ``path``.

    A file that is missing, unreadable or not UTF-8, or a row that the reader
    rejects (a cell over ``csv.field_size_limit()``, say), raises ``InputError``
    naming the file, and the line where the reader knows it.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            yield reader
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path}, line {reader.line_num}: {exc}") from None


def load_points_csv(path) -> PointSet:
    with read_csv(path) as reader:
        header = next(reader, None)
        if not header:
            raise InputError(f"{path} is empty")
        header = [c.strip() for c in header]
        has_label = header[-1] == "label"
        coord_cols = header[:-1] if has_label else header
        if coord_cols != [f"x{k}" for k in range(len(coord_cols))]:
            raise InputError(f"unexpected points header {header!r}")
        coords = []
        labels = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}, line {reader.line_num}: malformed points row {row!r}")
            try:
                coords.append([float(v) for v in row[: len(coord_cols)]])
                if has_label:
                    labels.append(_int64_cell(row[-1], path, reader.line_num))
            except ValueError:
                raise InputError(f"{path}, line {reader.line_num}: non-numeric cell in {row!r}") from None
    if not coords:
        raise InputError(f"{path} has no data rows")
    truth = np.asarray(labels, dtype=int) if has_label else None
    return PointSet(points=np.asarray(coords, dtype=float), truth=truth)


def _int64_cell(cell: str, path, line: int) -> int:
    """The integer in ``cell``; ``InputError`` naming the file and line if it lies outside int64."""
    value = int(cell)
    if not _INT64.min <= value <= _INT64.max:
        raise InputError(f"{path}, line {line}: integer {cell!r} is outside the int64 range")
    return value


def save_matrix_csv(path, matrix: np.ndarray, levels: int | None = None) -> None:
    """Plain numeric grid, row-major, no header.

    Each row is ``",".join(_FMT % v for v in row)`` plus a newline, and every
    value is formatted by lookup in a table of formatted values.  By default
    each table holds the distinct values of a block of about ``_WRITE_BLOCK``
    entries, found by ``np.unique`` and formatted once.  A square matrix that
    equals its transpose bit for bit (compared in blocks of rows, with no
    m x m temporary) is formatted only from the diagonal rightwards: the text
    of an entry left of the diagonal is the text of its mirror entry, which
    waits until its row is written (see ``_write_mirrored``).  Other matrices
    go out in blocks of whole rows.  A caller that knows every entry is
    k / ``levels`` for an integer k in [0, levels], as a consensus matrix of
    ``levels`` start nodes is, passes ``levels``: the levels + 1 values are
    formatted once for the whole file, each entry's k is recovered by
    rounding, with no sort, and the rows go out in blocks.  An entry that is
    not k / levels bit for bit, NaN included, raises ``ParameterError`` once
    the rows of the blocks before it are written.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    if arr.ndim != 2:
        raise InputError(f"matrix must be 1-D or 2-D, got shape {arr.shape}")
    if levels is not None:
        if not (isinstance(levels, (int, np.integer)) and levels >= 1):
            raise ParameterError(f"levels must be a positive integer, got {levels!r}")
        grid = np.arange(levels + 1) / levels
        table = _cell_table(grid)
    n = arr.shape[1]
    with open_for_writing(path) as fh:
        if n == 0:  # rows without cells are bare newlines
            fh.write("\n" * arr.shape[0])
            return
        if levels is None and _bitwise_symmetric(arr):
            _write_mirrored(fh, arr)
            return
        step = max(1, _WRITE_BLOCK // n)
        for lo in range(0, arr.shape[0], step):
            block = np.ascontiguousarray(arr[lo : lo + step])
            if levels is None:
                table, index = _distinct_cells(block)
            else:
                index = _grid_index(block, grid, levels)
            cells = table[index.reshape(-1)].tolist()
            # the last cell of each row trades its comma for the newline
            cells[n - 1 :: n] = [cell[:-1] + "\n" for cell in cells[n - 1 :: n]]
            fh.write("".join(cells))


def _bitwise_symmetric(arr: np.ndarray) -> bool:
    """Whether ``arr`` is square and equal to its transpose bit for bit, compared in blocks of rows."""
    m = arr.shape[0]
    if arr.shape[1] != m:
        return False
    bits = arr.view(np.int64)
    step = max(1, _WRITE_BLOCK // m)
    return all(np.array_equal(bits[lo : lo + step], bits[:, lo : lo + step].T) for lo in range(0, m, step))


def _write_mirrored(fh, arr: np.ndarray) -> None:
    """Write the bitwise symmetric ``arr``, formatting only the tiles on and right of the diagonal.

    The m x m grid is cut into n x n tiles with sides m // n or m // n + 1,
    n = ceil(m / sqrt(_WRITE_BLOCK)).  Band b (the rows of tiles (b, c))
    formats its tiles from the diagonal rightwards, and their text goes out
    row by row with the band's rows.  The text of a tile (b, c) right of the
    diagonal is also kept column by column: its column j is the text that
    row j repeats left of the diagonal, so it waits, as bytes, until band c
    is written.  The waiting text peaks at the middle band at about m^2 / 4
    cells.  The rows go to the file's binary buffer piece by piece, without
    a copy.
    """
    m = arr.shape[0]
    n = -(-m // max(1, math.isqrt(_WRITE_BLOCK)))
    edges = [m * k // n for k in range(n + 1)]
    out = fh.buffer
    # waiting[c]: the column-by-column text of each tile (b, c) written so far
    waiting = [[] for _ in range(n)]
    for b in range(n):
        rows = slice(edges[b], edges[b + 1])
        pieces = waiting[b]
        waiting[b] = None
        for c in range(b, n):
            table, index = _distinct_cells(arr[rows, edges[c] : edges[c + 1]])
            lengths = np.fromiter(map(len, table), dtype=np.intp, count=table.size)
            pieces.append(_tile_text(table, lengths, index))
            if c > b:
                waiting[c].append(_tile_text(table, lengths, index.T))
        (*pieces, (last, last_ends)) = pieces
        for i in range(rows.stop - rows.start):
            for text, ends in pieces:
                out.write(text[ends[i] : ends[i + 1]])
            # the row's last cell trades its comma for the newline
            out.write(last[last_ends[i] : last_ends[i + 1] - 1])
            out.write(b"\n")


def _tile_text(table: np.ndarray, lengths: np.ndarray, index: np.ndarray) -> tuple:
    """The cells ``table[index]`` row after row as ASCII bytes, and the offsets where each row's text starts and ends."""
    cells = index.reshape(-1)
    ends = np.cumsum(lengths[cells])[index.shape[1] - 1 :: index.shape[1]]
    return memoryview("".join(table[cells].tolist()).encode()), [0, *ends.tolist()]


def _distinct_cells(block: np.ndarray) -> tuple:
    """``_cell_table`` of the distinct values of ``block``, and each entry's index into it, in the shape of ``block``."""
    # distinct values by bits: -0.0 stays apart from 0.0, and every NaN and inf is kept
    keys, index = np.unique(block.view(np.int64), return_inverse=True)
    return _cell_table(keys.view(np.float64)), index.reshape(block.shape)


def _cell_table(values: np.ndarray) -> np.ndarray:
    """Object array of ``_FMT % v + ","`` for each of ``values``."""
    # one % formats every value, comma included; "\0" separates the entries
    return np.array(((_FMT + ",\0") * values.size % tuple(values.tolist())).split("\0"), dtype=object)


def _grid_index(block: np.ndarray, grid: np.ndarray, levels: int) -> np.ndarray:
    """k with ``grid[k]`` bit for bit equal to each entry of ``block``; ``ParameterError`` if there is none."""
    off_grid = ParameterError(f"matrix entries must be k / {levels} for integers k in [0, {levels}]")
    # a NaN minimum or maximum fails its comparison; entries in [0, 1] round to k in [0, levels]
    if not (block.min() >= 0.0 and block.max() <= 1.0):
        raise off_grid
    k = np.rint(block * levels).astype(np.intp)
    if (grid[k].view(np.int64) != block.view(np.int64)).any():
        raise off_grid
    return k


def load_matrix_csv(path) -> np.ndarray:
    """Read a grid written by ``save_matrix_csv``; blank lines are skipped."""
    rows = []
    with read_csv(path) as reader:
        for cells in reader:
            if not cells:
                continue
            try:
                row = [float(v) for v in cells]
            except ValueError:
                raise InputError(f"{path}, line {reader.line_num}: non-numeric cell in {cells!r}") from None
            if rows and len(row) != len(rows[0]):
                raise InputError(f"{path}, line {reader.line_num}: expected {len(rows[0])} cells, got {len(row)}")
            rows.append(row)
    if not rows:
        raise InputError(f"{path} has no data rows")
    return np.asarray(rows, dtype=float)


def save_labels_csv(path, labels) -> None:
    """Header node_index,label; one row per node."""
    lab = np.asarray(labels, dtype=int)
    save_table_csv(path, ["node_index", "label"], [np.arange(lab.size), lab])


def load_labels_csv(path) -> np.ndarray:
    """Labels by node; the node_index column must hold 0..m-1, each once, in any order."""
    with read_csv(path) as reader:
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["node_index", "label"]:
            raise InputError("labels CSV must start with header node_index,label")
        labels = {}
        for row in reader:
            if not row:
                continue
            try:
                idx, value = (_int64_cell(v, path, reader.line_num) for v in row)
            except ValueError:
                raise InputError(f"{path}, line {reader.line_num}: expected two integer cells, got {row!r}") from None
            if idx in labels:
                raise InputError(f"{path}, line {reader.line_num}: duplicate node_index {idx}")
            labels[idx] = value
    if sorted(labels) != list(range(len(labels))):
        raise InputError(f"{path}: node_index values must be 0..{len(labels) - 1}, each once")
    return np.array([labels[i] for i in range(len(labels))], dtype=int)
