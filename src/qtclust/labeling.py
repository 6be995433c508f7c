"""Turn one phase field, or a block of them, into q discrete labels: gap cuts or k-means on a circle."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .graph import _sq_dist

# budget of the (restarts, k, n) distance array of one Lloyd batch in kmeans
_BATCH_BYTES = 16 << 20
# kmeans restarts, and the Lloyd iteration cap and center-shift tolerance of each
_N_RESTARTS = 10
_MAX_ITER = 300
_TOL = 1e-6


class FragmentationWarning(UserWarning):
    """A cut landed on tied phases and split them by index order."""


def _fields(phases, q: int) -> np.ndarray:
    """``phases`` as rows: one finite field (1-D) or a block with one field per row (2-D)."""
    theta = np.asarray(phases, dtype=float)
    if theta.ndim not in (1, 2):
        raise ParameterError("phases must be one field or a block with one field per row")
    if not 1 <= q <= theta.shape[-1]:
        raise ParameterError(f"q must be between 1 and {theta.shape[-1]}, got {q}")
    if not np.isfinite(theta).all():
        raise ParameterError("phases must be finite")
    return np.atleast_2d(theta)


def labels_direct_difference(phases: np.ndarray, q: int) -> np.ndarray:
    """Label by cutting the sorted phases at the q-1 largest chord gaps.

    Takes one phase field or a block with one field per row and labels each
    row on its own, in the shape of ``phases``.  A row's phases are sorted
    ascending, mapped to unit vectors, and consecutive chord lengths are
    computed; the q-1 largest (ties broken toward the smaller sorted index)
    split the sorted order into q contiguous arcs.  Chord length is used
    instead of arc length because it damps small fluctuations relative to
    genuine jumps.  One ``FragmentationWarning`` per call names the number
    of rows cut on tied phases.

    No index sort is taken: the values are sorted, the cuts picked by a
    partial selection, and each phase compared with the value below each
    cut.  Equal phases that a cut splits are split by index order, the
    order a stable argsort would give them.
    """
    block = _fields(phases, q)
    if q == 1:
        return np.zeros(np.shape(phases), dtype=int)
    srt = np.sort(block, axis=1)
    dx, dy = np.diff(np.cos(srt), axis=1), np.diff(np.sin(srt), axis=1)
    gaps = np.sqrt(dx * dx + dy * dy)
    # the q-1 largest gaps: all above the (q-1)-th largest t, then the first gaps equal to t
    kth = gaps.shape[1] - (q - 1)
    t = np.partition(gaps, kth, axis=1)[:, kth, None]
    above = gaps > t
    at_t = gaps == t
    pick = above | (at_t & (at_t.cumsum(axis=1) <= (q - 1) - above.sum(axis=1, keepdims=True)))
    n_tied = int((t == 0.0).sum())
    if n_tied:
        message = f"{n_tied} phase field(s) cut on tied phases; labels split by index order"
        warnings.warn(message, FragmentationWarning, stacklevel=2)
    # each row's q-1 cut positions in ascending order: the cut after sorted position
    # pos, of value v = srt[pos], raises the label of every phase above v by one
    pos = np.nonzero(pick)[1].reshape(-1, q - 1)
    cut_at = np.take_along_axis(srt, pos, axis=1)
    tied = np.take_along_axis(srt, pos + 1, axis=1) == cut_at
    labels = np.zeros(block.shape, dtype=int)
    for c in range(q - 1):
        v = cut_at[:, c, None]
        labels += block > v
        # a tied cut also raises the phases equal to v beyond the first pos + 1 - #(srt < v),
        # in index order, as a stable sort would place them
        rows = np.flatnonzero(tied[:, c])
        if rows.size:
            equal = block[rows] == v[rows]
            below = pos[rows, c, None] + 1 - (srt[rows] < v[rows]).sum(axis=1, keepdims=True)
            labels[rows] += equal & (equal.cumsum(axis=1) > below)
    return labels.reshape(np.shape(phases))


def labels_circle_clustering(phases: np.ndarray, q: int, seed) -> np.ndarray:
    """Label by k-means on the phases embedded on the unit circle.

    Takes one phase field and an integer ``seed``, or a block with one field
    per row and one seed per row, and returns labels in the shape of ``phases``.
    """
    block = _fields(phases, q)
    if np.shape(seed) != np.shape(phases)[:-1]:
        raise ParameterError("need one seed per phase field")
    circle = np.stack([np.cos(block), np.sin(block)], axis=-1)
    labels = [kmeans(points, q, row_seed) for points, row_seed in zip(circle, np.reshape(seed, -1).tolist())]
    return np.array(labels, dtype=int).reshape(np.shape(phases))


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd k-means with k-means++ seeding, best of ``_N_RESTARTS`` by WCSS.

    Deterministic for a fixed seed.  A cluster emptied during iteration is
    re-seeded at the point farthest from its assigned centroid.  All
    seedings are drawn first, in the order sequential restarts would draw
    them, and the restarts then share batched Lloyd loops, as many per batch
    as fit ``_BATCH_BYTES`` (all ten at desk scale and small k).  Every
    floating-point step keeps the order of a restart run on its own, so the
    labels are bit for bit those of running the restarts one after another
    and keeping the first with the lowest WCSS.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ParameterError("points must form an n x d array")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be between 1 and {n}, got {k}")
    if not np.isfinite(x).all():
        raise ParameterError("points contain non-finite coordinates")
    x = np.ascontiguousarray(x)
    rng = np.random.default_rng(seed)
    centers = np.stack([_kmeans_pp(x, k, rng) for _ in range(_N_RESTARTS)])
    width = max(1, _BATCH_BYTES // (8 * k * n))
    batches = [_lloyd(x, centers[lo : lo + width], _MAX_ITER, _TOL) for lo in range(0, _N_RESTARTS, width)]
    labels, wcss = (np.concatenate(parts) for parts in zip(*batches))
    return labels[int(wcss.argmin())]


def _kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _sq_dist(x, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise ParameterError("squared distances between the points overflow")
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(rng.integers(n))
        centers[j] = x[idx]
        d2 = np.minimum(d2, _sq_dist(x, centers[j]))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int, tol: float):
    """Lloyd iterations of R restarts at once from start centers (R, k, d).

    Returns each restart's labels (R, n) and WCSS (R,) from the iteration
    where its centers first move by at most ``tol``, or from the last one.
    Restarts that have stopped drop out of the distance array (active, k, n).
    """
    n_r, k, _ = centers.shape
    n = x.shape[0]
    centers = centers.copy()
    labels = np.empty((n_r, n), dtype=np.intp)
    wcss = np.empty(n_r)
    active = np.arange(n_r)
    for it in range(max_iter):
        cur = centers[active]
        d2 = _sq_dist(x, cur)
        lab = _nearest(d2)
        counts, sums = _cluster_sums(x, lab, k)
        empty = np.flatnonzero((counts == 0).any(axis=1))
        if empty.size:
            for a in empty:
                _reseed_empty(x, cur[a], d2[a], lab[a])
            counts, sums = _cluster_sums(x, lab, k)
        new = cur.copy()
        filled = counts > 0
        new[filled] = sums[filled] / counts[filled][:, None]
        shift = np.sqrt(((new - cur) ** 2).sum(axis=-1)).max(axis=1)
        centers[active] = new
        done = (shift <= tol) | (it == max_iter - 1)
        if done.any():
            labels[active[done]] = lab[done]
            assigned = np.take_along_axis(d2[done], lab[done][:, None, :], axis=1)[:, 0]
            wcss[active[done]] = assigned.sum(axis=1)
            active = active[~done]
            if active.size == 0:
                break
    return labels, wcss


def _nearest(d2: np.ndarray) -> np.ndarray:
    """Nearest center of every point from distances (R, k, n): ``d2.argmin(axis=1)``.

    A strict comparison keeps the first of tied centers, as argmin does, and
    is several times faster than argmin over the short middle axis.
    """
    best = d2[:, 0].copy()
    labels = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, d2.shape[1]):
        np.putmask(labels, d2[:, c] < best, c)
        np.minimum(best, d2[:, c], out=best)
    return labels


def _reseed_empty(x: np.ndarray, centers: np.ndarray, d2: np.ndarray, labels: np.ndarray) -> None:
    """Move each empty cluster of one restart onto the farthest assigned point.

    Updates the restart's centers (k, d), distances (k, n) and labels (n,)
    in place, one cluster at a time in index order.
    """
    idx = np.arange(x.shape[0])
    for c in range(centers.shape[0]):
        if not (labels == c).any():
            far = int(d2[labels, idx].argmax())
            centers[c] = x[far]
            d2[c] = _sq_dist(x, centers[c])
            labels[:] = d2.argmin(axis=0)


def _cluster_sums(x: np.ndarray, labels: np.ndarray, k: int):
    """Member counts (R, k) and coordinate sums (R, k, d) of every restart's clusters.

    The sums are bit for bit ``x[labels[r] == c].sum(axis=0)``, so dividing
    by the counts gives that cluster's ``mean(axis=0)``.  numpy sums several
    columns row by row, in point order as ``bincount`` does, but a single
    column pairwise, so that case sums each cluster on its own.
    """
    n_r = labels.shape[0]
    d = x.shape[1]
    flat = (labels + k * np.arange(n_r)[:, None]).ravel()
    counts = np.bincount(flat, minlength=n_r * k).reshape(n_r, k)
    if d == 1:
        sums = np.array([[x[row == c].sum(axis=0) for c in range(k)] for row in labels])
    else:
        sums = np.stack(
            [np.bincount(flat, weights=np.tile(x[:, j], n_r), minlength=n_r * k) for j in range(d)],
            axis=-1,
        ).reshape(n_r, k, d)
    return counts, sums
