"""Run transport from many start nodes and summarize the label ensemble."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import _equal_rows, _readonly
from .labeling import labels_circle_clustering, labels_direct_difference
from .transport import phase_field

# scratch budget of one column block in run_qtc, majority_partition and
# consensus_matrix; the block width follows from m, so the scratch stays small
_BLOCK_BYTES = 4 << 20

LABEL_METHODS = ("circle", "diff")


@dataclass(frozen=True)
class PartitionTally:
    """Equivalence classes of ensemble columns and their vote weights."""

    classes: dict
    weights: dict


def canonical_relabel(labels: np.ndarray) -> np.ndarray:
    """Rename labels to 0,1,... in order of first appearance.

    Takes one label vector or a block with one vector per row, and returns
    the same shape, every row renamed on its own.  Sorting each row gathers
    equal labels into runs, and the smallest position in a run is that
    label's first appearance.  The runs of all rows sit in one flat array,
    row after row, so a single sort of the first appearances ranks the
    labels of every row at once.  Works for any integer labels.
    """
    lab = np.asarray(labels, dtype=int)
    if lab.ndim not in (1, 2):
        raise ParameterError("labels must be one vector or a block with one vector per row")
    block = np.atleast_2d(lab)
    rows, n = block.shape
    size = rows * n
    if size == 0:
        return np.zeros(lab.shape, dtype=np.intp)
    row_start = np.arange(0, size, n)
    order = np.argsort(block, axis=1)
    order += row_start[:, None]
    order = order.ravel()
    srt = block.ravel()[order]
    new_run = np.empty(size, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=new_run[1:])
    new_run[row_start] = True
    runs = np.flatnonzero(new_run)
    first = np.minimum.reduceat(order, runs)
    # sorting by first appearance keeps each row's runs in the same index
    # range, so a run's rank in its row is its sorted index minus the index
    # of the row's first run
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(runs.size) - np.searchsorted(runs, row_start)[runs // n]
    out = np.empty(size, dtype=np.intp)
    out[order] = np.repeat(rank, np.diff(runs, append=size))
    return out.reshape(lab.shape)


def _block_width(m: int) -> int:
    """Columns per block so that ~128 bytes per entry (gap cuts peak at ~58) fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (128 * max(m, 1)))


def partitions_equivalent(col_a: np.ndarray, col_b: np.ndarray, q: int) -> bool:
    """True iff the two label vectors agree up to a renaming of labels.

    Decided by the same rule the majority vote groups by: the columns are
    equivalent exactly when their canonical relabelings are equal.
    """
    a = np.asarray(col_a, dtype=int)
    b = np.asarray(col_b, dtype=int)
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError("label vectors must be one-dimensional and equally long")
    if a.size == 0:
        raise ParameterError("label vectors must not be empty")
    if q < 1 or min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= q:
        raise ParameterError(f"labels must lie in [0, {q})")
    canon = canonical_relabel(np.stack([a, b]))
    return np.array_equal(canon[0], canon[1])


def start_count(m: int, m_prime: int | None = None) -> int:
    """The number m' of start nodes of an ensemble on m nodes: ``m_prime``, else min(m, 100).

    ``ParameterError`` unless 1 <= m' <= m.
    """
    if m_prime is None:
        m_prime = min(m, 100)
    if not 1 <= m_prime <= m:
        raise ParameterError(f"m_prime must be between 1 and {m}, got {m_prime}")
    return m_prime


def run_qtc(
    m: int,
    amplitudes,
    q: int,
    m_prime: int | None = None,
    seed: int = 0,
    method: str = "circle",
) -> tuple[np.ndarray, np.ndarray]:
    """Label the m-node graph once per sampled start node: returns ``(omega, init_nodes)``.

    Start nodes are drawn uniformly without replacement.  Column k of the
    read-only m x m' array ``omega`` holds labels in [0, q) derived from the
    phase field of the wave function started at ``init_nodes[k]``.  The
    amplitude source ``amplitudes(init_nodes, width)``, called once, yields
    the m x k complex amplitudes of each block of at most ``width`` start
    nodes in turn (``transport.solve_source``, which solves a chunk of
    blocks at a time).  Each block takes one :func:`phase_field` call and
    one labeler call, with one phase field per row.  Fully deterministic for
    a fixed seed.
    """
    m_prime = start_count(m, m_prime)
    if method not in LABEL_METHODS:
        raise ParameterError(f"method must be one of {LABEL_METHODS}, got {method!r}")
    rng = np.random.default_rng(seed)
    init_nodes = rng.choice(m, size=m_prime, replace=False)
    col_seeds = rng.integers(0, 2**63 - 1, size=m_prime)
    omega = np.empty((m, m_prime), dtype=int)
    width = _block_width(m)
    for lo, block in zip(range(0, m_prime, width), amplitudes(init_nodes, width), strict=True):
        cols = slice(lo, lo + width)
        # one phase field per row, C-contiguous, so each row's sort reads contiguous memory
        phases = np.ascontiguousarray(phase_field(block.T))
        if method == "circle":
            omega[:, cols] = labels_circle_clustering(phases, q, col_seeds[cols]).T
        else:
            omega[:, cols] = labels_direct_difference(phases, q).T
    return _readonly(omega), _readonly(init_nodes)


def _label_matrix(omega, q: int) -> np.ndarray:
    """``omega`` as a non-empty m x m' int array of labels in [0, q); ``ParameterError`` otherwise."""
    cols = np.asarray(omega, dtype=int)
    if cols.ndim != 2 or cols.size == 0:
        raise ParameterError("omega must be an m x m' label matrix with at least one node and one column")
    if q < 1 or cols.min() < 0 or cols.max() >= q:
        raise ParameterError(f"labels must lie in [0, {q})")
    return cols


def majority_partition(omega: np.ndarray, q: int):
    """Group equivalent columns of the m x m' label matrix; return the heaviest partition plus tally.

    Columns are grouped by the bytes of their canonical relabeling, the rule
    :func:`partitions_equivalent` decides by, relabeled a block of columns at
    a time.  Returns the canonical relabeling of a column from the heaviest
    class and a PartitionTally keyed by each class's first (lowest) column
    index.  Weight ties go to the class with the lowest representative index.
    """
    cols = _label_matrix(omega, q)
    m, m_prime = cols.shape
    rep_of: dict[bytes, int] = {}
    members: dict[int, list[int]] = {}
    width = _block_width(m)
    for lo in range(0, m_prime, width):
        for k, row in enumerate(canonical_relabel(np.ascontiguousarray(cols[:, lo : lo + width].T)), lo):
            rep = rep_of.setdefault(row.tobytes(), k)
            members.setdefault(rep, []).append(k)
    weights = {rep: len(group) / m_prime for rep, group in members.items()}
    winner = max(members, key=lambda rep: (weights[rep], -rep))
    tally = PartitionTally(
        classes={rep: tuple(group) for rep, group in members.items()},
        weights=weights,
    )
    return canonical_relabel(cols[:, winner]), tally


def consensus_matrix(omega: np.ndarray, q: int) -> np.ndarray:
    """Fraction of initializations assigning each node pair the same label.

    Nodes whose rows of ``omega`` are equal (found by ``graph._equal_rows``,
    exactly: no key collision merges different rows) have equal rows of the
    result, so the pair counts are formed on one row per group, g rows in
    all, and then expanded to m x m.  With Y the one-hot encoding of those
    rows, q entries per column, the counts are Y Y^T.  Whole columns go into
    float32 blocks of Y and the product into row tiles, each bounded by
    ``_BLOCK_BYTES``.  A pair's count does not depend on how a column names
    its labels, so no column is relabeled.  An entry of a tile product sums
    at most one 1 per column of the block, and a block holds at most
    ``_BLOCK_BYTES // 4`` = 2^20 < 2^24 columns, so every partial sum is an
    integer that float32 holds exactly, in any summation order; adding the
    tiles into the float64 counts is exact too.  So the result equals the
    per-pair count divided by m' bit for bit.

    The counts are expanded in place in the result's memory, so no second
    m x m or g x m array is live.  The g x g counts fill its start and
    spread to g x m a block of rows at a time, from the last block back:
    counts row r ends by float (r + 1) g and spread row r starts at float
    r m >= r g, so a block overwrites only counts rows from its own first
    row on, which it or a later block has read already.  Groups are
    numbered by their first rows in ascending order, so node i's group is
    at most i: rows g and up take spread rows above row g, straight into
    place, and the first g rows are filled from the last block back in the
    same way.  Each block's temporary holds at most ``_BLOCK_BYTES``.
    """
    cols = _label_matrix(omega, q)
    m, m_prime = cols.shape
    firsts, group = np.unique(_equal_rows(cols), return_inverse=True)
    g = firsts.size
    step = max(1, _BLOCK_BYTES // (4 * g))  # entries per row of a Y block, rows per product tile
    width = max(1, step // q)  # columns per Y block
    rows = np.arange(g)[:, None]
    out = np.empty((m, m))
    counts = out.reshape(-1)[: g * g].reshape(g, g)
    counts[...] = 0.0
    for lo in range(0, m_prime, width):
        block = cols[firsts, lo : lo + width]
        y = np.zeros((g, q * block.shape[1]), dtype=np.float32)
        y[rows, block + q * np.arange(block.shape[1])] = 1.0
        for r in range(0, g, step):
            counts[r : r + step] += y[r : r + step] @ y.T
    counts /= m_prime
    tile = max(1, _BLOCK_BYTES // (8 * m))
    spread = out[:g]
    for lo in reversed(range(0, g, tile)):
        spread[lo : lo + tile] = np.take(counts[lo : lo + tile], group, axis=1)
    # "clip" never clips here; with the default mode np.take would buffer its whole output
    np.take(spread, group[g:], axis=0, out=out[g:], mode="clip")
    for lo in reversed(range(0, g, tile)):
        spread[lo : lo + tile] = spread[group[lo : min(lo + tile, g)]]
    return out
