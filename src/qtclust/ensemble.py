"""Run transport from many start nodes and summarize the label ensemble."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import _readonly
from .labeling import labels_circle_clustering, labels_direct_difference
from .spectral import EigenSystem
from .transport import laplace_amplitudes, phase_field

# scratch budget of one column block in run_qtc, majority_partition and
# consensus_matrix; the block width follows from m, so the scratch stays small
_BLOCK_BYTES = 4 << 20

LABEL_METHODS = ("circle", "diff")


@dataclass(frozen=True)
class LabelMatrix:
    """Per-initialization labels: column k labels every node from start node k."""

    omega: np.ndarray
    init_nodes: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=int)
        init = np.asarray(self.init_nodes, dtype=int)
        if om.ndim != 2 or init.shape != (om.shape[1],):
            raise ParameterError("omega must be m x m' with one init node per column")
        if om.size == 0:
            raise ParameterError("omega must have at least one node and one column")
        if np.unique(init).size != init.size:
            raise ParameterError("init nodes must be distinct")
        object.__setattr__(self, "omega", _readonly(om))
        object.__setattr__(self, "init_nodes", _readonly(init))

    @property
    def n_init(self) -> int:
        return self.omega.shape[1]


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
    """Columns per block so that ~128 bytes per entry (gap cuts take ~80) fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (128 * max(m, 1)))


def _canonical_blocks(cols: np.ndarray):
    """Yield the canonical relabelings of an m x n matrix's columns, one row per column, a block at a time."""
    width = _block_width(cols.shape[0])
    for lo in range(0, cols.shape[1], width):
        yield canonical_relabel(np.ascontiguousarray(cols[:, lo : lo + width].T))


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


def run_qtc(
    eig: EigenSystem,
    s: float,
    q: int,
    m_prime: int | None = None,
    seed: int = 0,
    method: str = "circle",
) -> LabelMatrix:
    """Label the graph once per sampled start node.

    Start nodes are drawn uniformly without replacement.  Column k holds the
    labels derived from the phase field of the wave function started at
    ``init_nodes[k]``.  Each block of start nodes takes one GEMM in
    :func:`laplace_amplitudes`, one :func:`phase_field` call and one labeler
    call, with one phase field per row.  Fully deterministic for a fixed
    seed.
    """
    m = eig.size
    if m_prime is None:
        m_prime = min(m, 100)
    if not 1 <= m_prime <= m:
        raise ParameterError(f"m_prime must be between 1 and {m}, got {m_prime}")
    if method not in LABEL_METHODS:
        raise ParameterError(f"method must be one of {LABEL_METHODS}, got {method!r}")
    rng = np.random.default_rng(seed)
    init_nodes = rng.choice(m, size=m_prime, replace=False)
    col_seeds = rng.integers(0, 2**63 - 1, size=m_prime)
    omega = np.empty((m, m_prime), dtype=int)
    width = _block_width(m)
    for lo in range(0, m_prime, width):
        cols = slice(lo, lo + width)
        # one phase field per row, C-contiguous, so each row's sort reads contiguous memory
        phases = np.ascontiguousarray(phase_field(laplace_amplitudes(eig, init_nodes[cols], s).T))
        if method == "circle":
            omega[:, cols] = labels_circle_clustering(phases, q, col_seeds[cols]).T
        else:
            omega[:, cols] = labels_direct_difference(phases, q).T
    return LabelMatrix(omega=omega, init_nodes=init_nodes)


def majority_partition(omega: LabelMatrix, q: int):
    """Group equivalent columns and return the heaviest partition plus tally.

    Columns are grouped by the bytes of their canonical relabeling, the rule
    :func:`partitions_equivalent` decides by.  Returns the canonical
    relabeling of a column from the heaviest class and a PartitionTally keyed
    by each class's first (lowest) column index.  Weight ties go to the class
    with the lowest representative index.
    """
    cols = omega.omega
    m_prime = omega.n_init
    if q < 1 or cols.min() < 0 or cols.max() >= q:
        raise ParameterError(f"labels must lie in [0, {q})")
    rep_of: dict[bytes, int] = {}
    members: dict[int, list[int]] = {}
    for k, row in enumerate(row for canon in _canonical_blocks(cols) for row in canon):
        rep = rep_of.setdefault(row.tobytes(), k)
        members.setdefault(rep, []).append(k)
    weights = {rep: len(group) / m_prime for rep, group in members.items()}
    winner = max(members, key=lambda rep: (weights[rep], -rep))
    tally = PartitionTally(
        classes={rep: tuple(group) for rep, group in members.items()},
        weights=weights,
    )
    return canonical_relabel(cols[:, winner]), tally


def consensus_matrix(omega: LabelMatrix) -> np.ndarray:
    """Fraction of initializations assigning each node pair the same label.

    With Y the one-hot encoding of the canonically relabeled columns, the
    pair counts are Y Y^T, summed over blocks of Y and row tiles of the
    product, each bounded by ``_BLOCK_BYTES``.  The counts are exact
    integers, so the result equals the per-pair count divided by m' bit for
    bit, for any integer labels.
    """
    cols = omega.omega
    m, m_prime = cols.shape
    step = max(1, _BLOCK_BYTES // (8 * max(m, 1)))  # labels per Y block, rows per product tile
    rows = np.arange(m)[:, None]
    counts = np.zeros((m, m))
    for canon in _canonical_blocks(cols):
        n_labels = canon.max(axis=1) + 1
        lo = 0
        while lo < len(canon):
            # widest run of columns whose one-hot block fits (at least one column)
            hi = lo + max(1, int(np.searchsorted(np.cumsum(n_labels[lo:]), step, side="right")))
            starts = np.cumsum(n_labels[lo:hi]) - n_labels[lo:hi]
            y = np.zeros((m, int(n_labels[lo:hi].sum())))
            y[rows, (canon[lo:hi] + starts[:, None]).T] = 1.0
            for r in range(0, m, step):
                counts[r : r + step] += y[r : r + step] @ y.T
            lo = hi
    counts /= m_prime
    return counts
