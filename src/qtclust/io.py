"""CSV readers and writers for points, matrices, and labels.

Floats are written as ``%.17g``, so every file round-trips bit-exactly
through text: ``-0.0`` is written ``-0``, infinities ``inf`` and ``-inf``,
and every NaN ``nan``.  A matrix file depends on the matrix's bits only, so
a rerun writes byte-identical files at a fixed BLAS thread count; runs at 1
and at 2 threads compute matrices that differ in the last bits.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager

import numpy as np

from .errors import InputError, ParameterError
from .graph import PointSet

_FMT = "%.17g"
# entries per block of rows in save_matrix_csv.  The block sets the writer's scratch, about
# 0.25 KiB per distinct value, which the allocator keeps resident after the write; at m=600 the
# JSD kernel's memory peak rose 2 MiB with 8192-entry blocks and 0.3 MiB with 2048.
_WRITE_BLOCK = 1 << 11


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
                    labels.append(int(row[-1]))
            except ValueError:
                raise InputError(f"{path}, line {reader.line_num}: non-numeric cell in {row!r}") from None
    if not coords:
        raise InputError(f"{path} has no data rows")
    truth = np.asarray(labels, dtype=int) if has_label else None
    return PointSet(points=np.asarray(coords, dtype=float), truth=truth)


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    """Plain numeric grid, row-major, no header.

    Each row is ``",".join(_FMT % v for v in row)`` plus a newline.  The rows
    go out in blocks of about ``_WRITE_BLOCK`` entries; each distinct value
    of a block is formatted once and the rows are built by table lookup, so
    a consensus matrix (at most m' + 1 distinct values) costs little more
    than its bytes.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    if arr.ndim != 2:
        raise InputError(f"matrix must be 1-D or 2-D, got shape {arr.shape}")
    n = arr.shape[1]
    with open_for_writing(path) as fh:
        if n == 0:  # rows without cells are bare newlines
            fh.write("\n" * arr.shape[0])
            return
        step = max(1, _WRITE_BLOCK // n)
        for lo in range(0, arr.shape[0], step):
            block = np.ascontiguousarray(arr[lo : lo + step])
            # distinct values by bits: -0.0 stays apart from 0.0, and every NaN and inf is kept
            keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
            # one % formats each distinct value once, comma included; "\0" separates the entries
            table = ((_FMT + ",\0") * keys.size % tuple(keys.view(np.float64).tolist())).split("\0")
            cells = np.array(table, dtype=object)[inverse.reshape(-1)].tolist()
            # the last cell of each row trades its comma for the newline
            cells[n - 1 :: n] = [cell[:-1] + "\n" for cell in cells[n - 1 :: n]]
            fh.write("".join(cells))


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
                idx, value = (int(v) for v in row)
            except ValueError:
                raise InputError(f"{path}, line {reader.line_num}: expected two integer cells, got {row!r}") from None
            if idx in labels:
                raise InputError(f"{path}, line {reader.line_num}: duplicate node_index {idx}")
            labels[idx] = value
    if sorted(labels) != list(range(len(labels))):
        raise InputError(f"{path}: node_index values must be 0..{len(labels) - 1}, each once")
    return np.array([labels[i] for i in range(len(labels))], dtype=int)
