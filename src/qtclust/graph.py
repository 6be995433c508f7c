"""Similarity-graph stages: distances, quantile bandwidth, Gaussian adjacency, Laplacian."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IsolatedNodeError, ParameterError

SYMMETRY_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointSet:
    """m sample points in R^d with optional integer ground-truth labels."""

    points: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise InputError("points must form an m x d array with m >= 2 and d >= 1")
        if not np.isfinite(pts).all():
            raise InputError("points contain non-finite coordinates")
        object.__setattr__(self, "points", _readonly(pts))
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=int)
            if truth.shape != (pts.shape[0],):
                raise InputError("truth labels must have exactly one entry per point")
            object.__setattr__(self, "truth", _readonly(truth))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class GraphBundle:
    """The normalized Laplacian of one similarity network.

    ``hamiltonian`` is the symmetric degree-normalized Laplacian
    I - D^{-1/2} A D^{-1/2}; it generates the quantum walk and shares its
    spectrum with the random-walk normalization, and is the only m x m array
    kept.  ``proximity`` records the Gaussian bandwidth of the adjacency A
    (NaN when A came from elsewhere, e.g. a kernel matrix).
    """

    hamiltonian: np.ndarray
    proximity: float = math.nan

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", _readonly(np.asarray(self.hamiltonian, dtype=float)))


def pairwise_distances(points: PointSet | np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, bitwise identical to a per-pair norm loop.

    Row tiles run on ``_worker_count()`` threads (see :func:`_run_tiles`),
    with the same bits at any count.  ``InputError`` naming two points whose
    squared distance overflows: the first such pair in row order.
    """
    return _pairwise_distances(points)


def _pairwise_distances(points: PointSet | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`pairwise_distances` written into ``out``, a C-contiguous m x m float array, when given."""
    x = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("need at least two points in an m x d array")
    if not np.isfinite(x).all():
        raise InputError("points contain non-finite coordinates")
    m, d = x.shape
    if out is None:
        out = np.empty((m, m))
    # row tiles of about 1 MiB of output, or of (rows, m, d) scratch from 8 dimensions on.  The tile
    # moves the peak RSS through heap layout: on nonuniform sticks (m=900, d=2) a process that ran
    # the sticks benchmark peaked at 80.4-81.5 MiB, against 84.6-87.1 MiB with 16 MiB (rows, m, d)
    # blocks (10 runs each)
    step = max(1, _tile_rows(m) // (d if d >= 8 else 1))

    def tile(lo, scratch):
        squared = out[lo : lo + step]
        with np.errstate(over="ignore"):
            _sq_dist(x, x[lo : lo + step], out=squared, scratch=scratch[: squared.shape[0]])
        if np.isinf(squared.max()):
            i, j = np.argwhere(np.isinf(squared))[0]
            raise InputError(
                f"points {lo + i} and {j} are too far apart: their squared distance overflows "
                "(coordinate differences must stay below ~1.3e154)"
            )
        np.sqrt(squared, out=squared)

    _run_tiles(tile, range(0, m, step), (step, m, d) if d >= 8 else (step, m))
    return out


def _sq_dist(x: np.ndarray, centers: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Squared distances from centers (..., d) to the n points x (n, d), shape (..., n).

    Bit for bit ``((x - c) ** 2).sum(axis=-1)``.  numpy adds fewer than
    eight terms in order, so below eight dimensions the sum is accumulated
    one dimension at a time, an order of magnitude faster than reducing a
    short last axis; from eight on numpy sums pairwise, and so does this.
    ``out`` receives the result and ``scratch`` the differences, of shape
    (..., n) below eight dimensions and (..., n, d) from eight on; either is
    allocated when not given.
    """
    d = x.shape[1]
    if d >= 8:
        diff = np.subtract(x, centers[..., None, :], out=scratch)
        return np.sum(np.square(diff, out=diff), axis=-1, out=out)
    out = np.subtract(x[:, 0], centers[..., 0, None], out=out)
    np.square(out, out=out)
    for j in range(1, d):
        diff = np.subtract(x[:, j], centers[..., j, None], out=scratch)
        out += np.square(diff, out=diff)
    return out


def quantile_proximity(dist: np.ndarray, eps: float) -> float:
    """The eps-quantile (linear interpolation) of the positive pairwise distances."""
    return _quantile_proximity(dist, eps)


def _quantile_proximity(dist: np.ndarray, eps: float, scratch: np.ndarray | None = None) -> float:
    """:func:`quantile_proximity`, with the positive distances above the diagonal gathered into ``scratch``.

    ``scratch`` is a flat float array of at least m (m - 1) / 2 entries,
    allocated when not given, and is left partitioned.  The distances are
    gathered a row tile at a time in row order, so the quantile sees the
    array ``dist[triu & (dist > 0)]`` would give, bit for bit, with no
    m x m mask and no index array.
    """
    if not (isinstance(eps, (int, float)) and 0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie strictly between 0 and 1, got {eps!r}")
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError("distance matrix must be square")
    m = d.shape[0]
    if scratch is None:
        scratch = np.empty(m * (m - 1) // 2)
    count = 0
    step = _tile_rows(m)
    for lo in range(0, m - 1, step):
        # row lo + r of the tile keeps columns r and up of its part right of column lo
        block = d[lo : lo + step, lo + 1 :]
        keep = np.greater(block, 0.0)
        keep &= ~np.tri(*block.shape, -1, dtype=bool)
        positive = block[keep]
        scratch[count : count + positive.size] = positive
        count += positive.size
    if count == 0:
        raise InputError("all pairwise distances are zero; no proximity scale exists")
    return float(np.quantile(scratch[:count], eps, overwrite_input=True))


def gaussian_adjacency(dist: np.ndarray, r_eps: float) -> np.ndarray:
    """A_ij = exp(-(r_ij / r_eps)^2); unit diagonal, entries in (0, 1].

    A new m x m array, built a row tile at a time on ``_worker_count()``
    threads; ``dist`` is only read.
    """
    return _gaussian_adjacency(dist, r_eps)


def _gaussian_adjacency(dist: np.ndarray, r_eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`gaussian_adjacency` written into ``out`` when given; ``out`` may be ``dist`` itself."""
    if not (np.isfinite(r_eps) and r_eps > 0.0):
        raise ParameterError(f"proximity scale must be a positive finite number, got {r_eps!r}")
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2:
        raise InputError("distance matrix must be two-dimensional")
    a = np.empty(d.shape) if out is None else out
    step = _tile_rows(d.shape[1])

    def tile(lo, _):
        rows = a[lo : lo + step]
        np.divide(d[lo : lo + step], r_eps, out=rows)
        np.square(rows, out=rows)
        np.negative(rows, out=rows)
        np.exp(rows, out=rows)

    _run_tiles(tile, range(0, d.shape[0], step))
    return a


def laplacians(adjacency: np.ndarray, proximity: float = math.nan) -> GraphBundle:
    """The symmetric normalized Laplacian H of an adjacency matrix A.

    H annihilates the sqrt-degree vector, so a connected graph always has a
    zero mode proportional to sqrt(deg).  Neither the degrees nor the plain
    Laplacian D - A is kept; callers that need them build them from A.
    One pass over row tiles finds A's extremes and degrees, one over pairs
    of square tiles checks its symmetry, and one more builds H tile pair by
    tile pair, each on ``_worker_count()`` threads.  H equals
    (H' + H'^T) / 2 bit for bit, H' = I - D^-1/2 A D^-1/2 formed entry by
    entry, at any thread count.
    """
    return GraphBundle(hamiltonian=_laplacians(adjacency), proximity=float(proximity))


def _laplacians(adjacency: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The H of :func:`laplacians`, written into ``out``, an m x m float array apart from A, when given."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("adjacency must be square")
    m = a.shape[0]
    step = _tile_rows(m)
    lows = np.empty(-(-m // step))
    highs = np.empty_like(lows)
    degrees = np.empty(m)

    def scan(k, _):
        rows = a[k * step : (k + 1) * step]
        # a NaN makes both extremes NaN, an infinity one of them; either raises below
        lows[k], highs[k] = rows.min(), rows.max()
        with np.errstate(invalid="ignore"):
            np.sum(rows, axis=1, out=degrees[k * step : (k + 1) * step])

    _run_tiles(scan, range(lows.size))
    if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
        raise InputError("adjacency contains non-finite entries")
    _check_symmetric(a, SYMMETRY_TOL, "adjacency must be symmetric")
    if lows.min() < 0.0:
        raise InputError("adjacency entries must be nonnegative")
    if (degrees <= 0.0).any():
        bad = int(np.nonzero(degrees <= 0.0)[0][0])
        raise IsolatedNodeError(f"node {bad} has zero degree and cannot be normalized")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    hamiltonian = np.empty((m, m)) if out is None else out
    side = _tile_side(m)

    def build(pair, scratch):
        rows, cols = (slice(lo, lo + side) for lo in pair)
        # H' = I - D^-1/2 A D^-1/2 on both tiles of the pair; 0 - x keeps +0.0 where x is 0
        for r, c in ((rows, cols), (cols, rows)) if rows != cols else ((rows, cols),):
            h = hamiltonian[r, c]
            np.multiply(a[r, c], inv_sqrt[r, None], out=h)
            h *= inv_sqrt[None, c]
            np.subtract(0.0, h, out=h)
        if rows == cols:
            diagonal = np.arange(rows.start, min(rows.stop, m))
            hamiltonian[diagonal, diagonal] += 1.0
        upper = hamiltonian[rows, cols]
        mean = np.add(upper, hamiltonian[cols, rows].T, out=scratch[: upper.shape[0], : upper.shape[1]])
        mean /= 2.0
        upper[...] = mean
        hamiltonian[cols, rows] = mean.T

    _run_tiles(build, _tile_pairs(m, side), (side, side))
    return hamiltonian


def _tile_rows(m: int) -> int:
    """Rows per tile so that a tile of an m x m float matrix stays near 1 MiB."""
    return max(1, (1 << 20) // (8 * max(m, 1)))


def _tile_side(m: int) -> int:
    """Side of a square tile of an m x m float matrix that holds about as much as ``_tile_rows(m)`` rows."""
    return max(1, math.isqrt(_tile_rows(m) * m))


def _tile_pairs(m: int, side: int) -> list:
    """The starts (lo, lo2), lo <= lo2, of the pairs of square tiles (lo, lo2) and (lo2, lo) of an m x m matrix."""
    return [(lo, lo2) for lo in range(0, m, side) for lo2 in range(lo, m, side)]


def _check_symmetric(a: np.ndarray, tol: float, message: str) -> None:
    """Raise ``InputError(message)`` unless |a - a^T| <= tol, checked one pair of square tiles at a time on threads."""
    side = _tile_side(a.shape[0])

    def check(pair, scratch):
        rows, cols = (slice(lo, lo + side) for lo in pair)
        upper = a[rows, cols]
        diff = np.subtract(upper, a[cols, rows].T, out=scratch[: upper.shape[0], : upper.shape[1]])
        if np.abs(diff, out=diff).max() > tol:
            raise InputError(message)

    _run_tiles(check, _tile_pairs(a.shape[0], side), (side, side))


def _equal_rows(bits: np.ndarray) -> np.ndarray:
    """For each row of the two-dimensional int64 array ``bits``, the index of an equal row at or before it.

    Rows are keyed by their entries times fixed odd random weights, summed
    modulo 2^64.  Row i gets the first row with its key when the two are
    equal entry for entry, and i otherwise, so a key collision never pairs
    different rows; a row that gets itself is the first of its kind unless
    keys collided.  Keys and comparisons go a block of about 1 MiB of rows
    at a time, so no m x n array is allocated.
    """
    m, n = bits.shape
    weights = _key_weights(n)
    step = max(1, (1 << 17) // max(n, 1))
    keys = np.empty(m, dtype=np.uint64)
    for lo in range(0, m, step):
        np.matmul(bits[lo : lo + step].view(np.uint64), weights, out=keys[lo : lo + step])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    equal = first[inverse]
    for lo in range(0, m, step):
        block = equal[lo : lo + step]
        differs = (bits[lo : lo + step] != bits[block]).any(axis=1)
        block[differs] = np.arange(lo, lo + block.size)[differs]
    return equal


def _key_weights(n: int) -> np.ndarray:
    """The n odd uint64 weights of the row keys of ``_equal_rows``, the same on every call."""
    return np.random.default_rng(0).integers(0, 1 << 63, size=n, dtype=np.uint64) * 2 + 1


def _worker_count() -> int:
    """Threads for the tile loops: the CPUs this process may use, no more than a BLAS thread count set in the environment."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        count = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) >= 1:
            count = min(count, int(value))
    return max(1, count)


def _run_tiles(task, tiles, scratch_shape: tuple = (0,)) -> None:
    """Call ``task(tile, scratch)`` for every tile of ``tiles``, on ``_worker_count()`` threads.

    Worker k takes tiles k, k + n, k + 2n, ... in order, n workers in all,
    with its own float64 ``scratch`` array of ``scratch_shape``; the calling
    thread is worker 0.  The scratch is allocated here, by the caller,
    because glibc gives every thread its own heap arena and whatever a
    worker allocates there can stay resident.  Tasks must write disjoint
    parts of their outputs and allocate nothing large.  The caller's numpy
    error state does not reach the other threads, so a task sets the one it
    needs.  If
    tasks raise, every worker stops at its first failing tile, and once all
    have stopped the exception of the first failing tile in order is
    raised: the one a serial loop would raise.
    """
    tiles = list(tiles)
    n = max(1, min(_worker_count(), len(tiles)))
    scratch = np.empty((n, *scratch_shape))
    failures = []

    def work(k):
        for i in range(k, len(tiles), n):
            try:
                task(tiles[i], scratch[k])
            except Exception as exc:  # re-raised by the calling thread
                failures.append((i, exc))
                return

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, n)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
