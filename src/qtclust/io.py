"""CSV readers and writers for points, matrices, and labels.

Floats are written with 17 significant digits so every file round-trips
bit-exactly through text.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import PointSet

_FMT = "%.17g"


def save_points_csv(path, points: PointSet) -> None:
    """Header x0,...,x{d-1}[,label]; one row per sample."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"x{k}" for k in range(points.dim)]
        if points.truth is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(points.m):
            row = [_FMT % v for v in points.points[i]]
            if points.truth is not None:
                row.append(str(int(points.truth[i])))
            writer.writerow(row)


def load_points_csv(path) -> PointSet:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
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
    """Plain numeric grid, row-major, no header."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    with Path(path).open("w", newline="") as fh:
        for row in arr:
            fh.write(",".join(_FMT % v for v in row))
            fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    rows = []
    with path.open(newline="") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise InputError(f"{path} has no data rows")
    return np.asarray(rows, dtype=float)


def save_labels_csv(path, labels) -> None:
    """Header node_index,label; one row per node."""
    lab = np.asarray(labels, dtype=int)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", "label"])
        for i, value in enumerate(lab):
            writer.writerow([i, int(value)])


def load_labels_csv(path) -> np.ndarray:
    """Labels by node; the node_index column must hold 0..m-1, each once, in any order."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
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
