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
from .graph import PointSet, _equal_rows

_FMT = "%.17g"
# entries per block of rows in save_matrix_csv.  The block sets the writer's scratch, about 0.5 KiB per
# entry (the formatter's float, index and byte arrays), which the allocator keeps resident after the write;
# the formatter's cost per entry falls with the block until that scratch outgrows the CPU's cache.
_WRITE_BLOCK = 1 << 12
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

    Each row is ``",".join(_FMT % v for v in row)`` plus a newline.  The rows
    go out in blocks of about ``_WRITE_BLOCK`` entries, each formatted at
    once by ``_csv_bytes`` and written with one call.  A caller that knows
    every entry is k / ``levels`` for an integer k in [0, levels], as a
    consensus matrix of ``levels`` start nodes is, passes ``levels``, and its
    rows go out by ``_write_levels``: the levels + 1 values are formatted
    once for the whole file, each entry's k is recovered by rounding, with
    no sort, and a row is checked and formatted only the first time its bits
    appear.  An entry that is not k / levels bit for bit, NaN included,
    raises ``ParameterError`` once the rows of the blocks before it are
    written.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    if arr.ndim != 2:
        raise InputError(f"matrix must be 1-D or 2-D, got shape {arr.shape}")
    if levels is not None and not (isinstance(levels, (int, np.integer)) and levels >= 1):
        raise ParameterError(f"levels must be a positive integer, got {levels!r}")
    n = arr.shape[1]
    with open_for_writing(path) as fh:
        if n == 0:  # rows without cells are bare newlines
            fh.write("\n" * arr.shape[0])
        elif levels is not None:
            _write_levels(fh, arr, levels)
        else:
            step = max(1, _WRITE_BLOCK // n)
            for lo in range(0, arr.shape[0], step):
                fh.buffer.write(_csv_bytes(arr[lo : lo + step]))


def _csv_bytes(block: np.ndarray) -> np.ndarray:
    """The CSV text of the 2-D ``block`` as uint8: ``_FMT % v`` per entry, "," between cells and "\\n" after each row.

    Zeros, infinities and NaNs take fixed strings.  An entry v with
    1e-280 <= |v| <= 1e280 is formatted without ``%``, as ``%.17g`` does:
    with X the decimal exponent of |v| and D the 17-digit integer
    |v| 10^(16-X) rounded half to even, the digits of D lose their trailing
    zeros and go out in fixed notation for -4 <= X < 17 and as
    ``d.ddde±XX`` otherwise.

    - X starts as floor(log10 |v|).  ``_scaled`` forms y = |v| 10^(16-X) as
      a rounded head plus a tail, within E of y; where head + tail lies
      outside [1e16, 1e17), X moves by one and y is formed again.
    - D is head + rint(tail).  The head is an even integer (it is above
      2^53), so rounding the tail half to even rounds y half to even.
    - This X and D are taken only where y - 1e16 and y's distance to the
      nearest tie (a half-integer) are at least the margin and
      1e17 - 1/2 - y is above it, which keeps D below 1e17.  Where
      10^(16-X) is a float (X in [-6, 16]) head + tail is y exactly and the
      margin is 0, so powers of ten and exact ties are decided too.
      Elsewhere the margin is ``_MARGIN``, far above E < 5e-15: head + p is
      |v| hi exactly (Dekker's product, 10^k = hi + lo + e), |p| <= 8 (half
      an ulp of a head below 1.4e17) and |v lo| <= 2^-53 y < 12, so rounding
      v lo costs at most 2^-50, adding it to p at most 2^-49, and e, below
      2^-106 10^k, at most 1.3e-15.

    Every other entry goes to ``%``: subnormals, magnitudes outside that
    range, y that the margin leaves undecided (about 2e-9 of uniform random
    values), and y within 1/2 below 1e17, whose 17 digits carry into the
    next decade.  Each cell is gathered byte by byte from its 36-byte source
    row by the template of its layout, digit count and sign in
    ``_TEMPLATES``, padded with NUL bytes that one compress removes.
    """
    v = np.ascontiguousarray(block).reshape(-1)
    mag = np.abs(v)
    regular = (mag >= 1e-280) & (mag <= 1e280)
    mag[~regular] = 1.0
    x = np.floor(np.log10(mag)).astype(np.intp)
    head, tail = _scaled(mag, x)
    # head + tail, not the rounded head alone, against the decade
    low = (head < 1e16) | ((head == 1e16) & (tail < 0.0))
    high = (head > 1e17) | ((head == 1e17) & (tail >= 0.0))
    shift = low.view(np.int8) - high.view(np.int8)
    moved = np.flatnonzero(shift)
    if moved.size:
        x[moved] -= shift[moved]
        head[moved], tail[moved] = _scaled(mag[moved], x[moved])
    margin = _POW_MARGIN.take(16 - _POW_MIN - x)
    whole = np.rint(tail)
    top = head.astype(np.int64)
    decided = (
        regular
        & ((top - _E16) + tail >= margin)
        & ((_E17 - top) - tail > 0.5 + margin)
        & (0.5 - np.abs(tail - whole) >= margin)
    )
    digits = top + whole.astype(np.int64)
    # numpy divides by a constant about twice as fast with // as with divmod; the remainders follow by subtraction
    upper = digits // 10**8
    lower = digits - upper * 10**8
    first = upper // 10**8
    upper -= first * 10**8
    high4, low4 = upper // 10**4, lower // 10**4
    groups = (first, high4, upper - high4 * 10**4, low4, lower - low4 * 10**4)
    # trailing zeros of D, from its last 4-digit group back
    zeros = _ZEROS4.take(groups[4]).astype(np.intp)
    pending = np.flatnonzero(groups[4] == 0)
    for group in groups[3::-1]:
        group = group[pending]
        zeros[pending] += _ZEROS4.take(group)
        pending = pending[group == 0]
    key = _LAYOUT.take(x - _POW_MIN) * 34 + (16 - zeros) * 2 + np.signbit(v)
    odd = np.flatnonzero(~decided)
    values = v[odd]
    # 22 for zero, 23 for infinity, 24 for NaN, 25 for %; np.select costs far more on the few such values of a block
    layout = 25 - 3 * (values == 0.0) - 2 * np.isinf(values) - np.isnan(values)
    key[odd] = layout * 34 + np.signbit(values)
    fallback = odd[layout == 25]
    cells = v.size
    n = block.shape[1]
    source = np.empty((cells, 9), dtype=np.uint32)
    for col, group in enumerate(groups):
        source[:, col] = _DIGITS4.take(group)
    source[:, 5:] = _SOURCE_TAIL
    source[:, 6] = _EXPONENTS.take(x - _POW_MIN)
    source[n - 1 :: n, 7] = _ROW_END
    # the offsets are added in int32 wherever they fit, which costs less than in intp
    offset = np.int32 if 36 * cells < 2**31 else np.intp
    index = _TEMPLATES.take(key, axis=0).astype(offset)
    index += np.arange(0, 36 * cells, 36, dtype=offset)[:, None]
    out = source.view(np.uint8).reshape(-1).take(index)
    ends = (fallback % n == n - 1).tolist()
    texts = [(_FMT % value + ("\n" if end else ",")).ljust(_CELL_WIDTH, "\0") for value, end in zip(v[fallback].tolist(), ends)]
    out[fallback] = np.frombuffer("".join(texts).encode(), dtype=np.uint8).reshape(-1, _CELL_WIDTH)
    return out[out != 0]


def _scaled(mag: np.ndarray, x: np.ndarray) -> tuple:
    """``mag * 10^(16 - x)`` as a rounded head and a tail; see ``_csv_bytes`` for the error bound."""
    i = 16 - _POW_MIN - x
    hi, hi_top, hi_low, lo = _POW_HI.take(i), _POW_HI_TOP.take(i), _POW_HI_LOW.take(i), _POW_LO.take(i)
    top, low = _split(mag)
    head = mag * hi
    # Dekker's product: head + (the first sum) is mag * hi exactly
    tail = ((top * hi_top - head) + top * hi_low + low * hi_top) + low * hi_low
    return head, tail + mag * lo


def _split(values: np.ndarray) -> tuple:
    """Dekker's split of each value into two floats of at most 26 significant bits that sum to it."""
    scaled = values * 134217729.0  # 2^27 + 1
    top = scaled - (scaled - values)
    return top, values - top


def _powers_of_ten() -> tuple:
    """10^k for k in [_POW_MIN, -_POW_MIN] as the float nearest it and the float nearest the rest.

    Both come from exact integers: ``int / int`` is correctly rounded, and
    ``as_integer_ratio`` gives the head's value exactly.
    """
    heads, tails = [], []
    for k in range(_POW_MIN, 1 - _POW_MIN):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head = num / den
        p, q = head.as_integer_ratio()
        heads.append(head)
        tails.append((num * q - p * den) / (den * q))
    return np.array(heads), np.array(tails)


def _cell_templates() -> np.ndarray:
    """The template of each key: for every output byte of a cell, its byte in the cell's source row.

    Key = layout * 34 + (digits - 1) * 2 + sign.  Layouts 0-16 are fixed
    notation with layout + 1 digits before the point, 17-20 are 0.ddd with
    layout - 17 zeros after the point, 21 is d.ddde±XX, and 22-25 are zero,
    infinity, NaN and a value for ``%``.  The source row holds D's digits
    at bytes 3-19, "-0.e" at 20-23, the exponent at 24-27, the separator and
    "inf" at 28-31 and "a" at 32; byte 33 is NUL.
    """
    digit = list(range(3, 20))
    minus, zero, dot, exp, sep, nul = 20, 21, 22, 23, 28, 33
    rows = bytearray()
    for layout in range(26):
        for count in range(1, 18):
            for negative in (False, True):
                sign = [minus] if negative else []
                if layout <= 16:
                    ip = layout + 1
                    body = digit[:ip] + ([dot] + digit[ip:count] if count > ip else [])
                elif layout <= 20:
                    body = [zero, dot] + [zero] * (layout - 17) + digit[:count]
                elif layout == 21:
                    body = digit[:1] + ([dot] + digit[1:count] if count > 1 else []) + [exp, 24, 25, 26, 27]
                elif layout == 22:
                    body = [zero]
                elif layout == 23:
                    body = [29, 30, 31]
                else:  # "nan" has no sign; the rows of layout 25 are written over
                    sign, body = [], [30, 32, 30]
                cell = sign + body + [sep]
                rows += bytes(cell + [nul] * (_CELL_WIDTH - len(cell)))
    return np.frombuffer(rows, dtype=np.uint8).reshape(-1, _CELL_WIDTH)


# bytes per cell, with its separator: "-4.9406564584124654e-324," is the longest
_CELL_WIDTH = 25
# 10^k for k in [_POW_MIN, -_POW_MIN]: head _POW_HI, split into _POW_HI_TOP + _POW_HI_LOW, and tail _POW_LO
_POW_MIN = -300
_POW_HI, _POW_LO = _powers_of_ten()
_POW_HI_TOP, _POW_HI_LOW = _split(_POW_HI)
# far above the scaled product's error bound; 0 where the product is exact
_MARGIN = 1e-9
_POW_MARGIN = np.where(_POW_LO == 0.0, 0.0, _MARGIN)
_E16, _E17 = 10**16, 10**17
# the four decimal digits of each g < 10^4, as ASCII in one uint32, and the number of them that trail as zeros
_DIGITS4 = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy().view(np.uint32).reshape(-1)
_ZEROS4 = sum(np.arange(10**4) % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
_EXPONENTS = np.frombuffer(b"".join(f"{e:+03d}".encode().ljust(4, b"\0") for e in range(_POW_MIN, 1 - _POW_MIN)), dtype=np.uint32)
# source bytes 20-35 of a cell (bytes 24-27, its exponent, are written per cell), and bytes 28-31 of a row's last cell
_SOURCE_TAIL = np.frombuffer(b"-0.e\0\0\0\0,infa\0\0\0", dtype=np.uint32)
_ROW_END = np.frombuffer(b"\ninf", dtype=np.uint32)[0]
_LAYOUT = np.array([e if 0 <= e <= 16 else 16 - e if -4 <= e < 0 else 21 for e in range(_POW_MIN, 1 - _POW_MIN)], dtype=np.intp)
_TEMPLATES = _cell_templates()


def _row_cells(table: np.ndarray, index: np.ndarray) -> list:
    """The cells ``table[index]`` row after row, the last cell of each row ending in a newline instead of a comma."""
    n = index.shape[1]
    cells = table[index.reshape(-1)].tolist()
    cells[n - 1 :: n] = [cell[:-1] + "\n" for cell in cells[n - 1 :: n]]
    return cells


def _write_levels(fh, arr: np.ndarray, levels: int) -> None:
    """Write ``arr``, every entry k / ``levels``, checking and formatting each distinct row once.

    ``graph._equal_rows`` points every row at an equal row at or before it,
    by bits.  A row that points at itself is checked (``_grid_index``) and
    formatted with the rows of its block that do the same; any other row
    repeats the text of the row it points at.  That text is kept, as bytes,
    only until the last row that repeats it is written.
    """
    grid = np.arange(levels + 1) / levels
    table = _cell_table(grid)
    m, n = arr.shape
    equal = _equal_rows(arr.view(np.int64))
    last = np.zeros(m, dtype=np.intp)
    np.maximum.at(last, equal, np.arange(m))
    kept = {}
    out = fh.buffer
    step = max(1, _WRITE_BLOCK // n)
    for lo in range(0, m, step):
        block = equal[lo : lo + step].tolist()
        new = [i for i, first in enumerate(block, lo) if first == i]
        if new:
            cells = _row_cells(table, _grid_index(arr[new], grid, levels))
            kept.update((i, "".join(cells[k * n : (k + 1) * n]).encode()) for k, i in enumerate(new))
        for i, first in enumerate(block, lo):
            out.write(kept[first] if last[first] > i else kept.pop(first))


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
