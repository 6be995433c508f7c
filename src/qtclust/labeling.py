"""Turn one phase field into q discrete labels: gap cuts or k-means on a circle."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError

# budget of the (restarts, k, n) distance array of one Lloyd batch in kmeans
_BATCH_BYTES = 16 << 20


class FragmentationWarning(UserWarning):
    """A cut landed on tied phases and split them by index order."""


def labels_direct_difference(phases: np.ndarray, q: int) -> np.ndarray:
    """Label by cutting the sorted phases at the q-1 largest chord gaps.

    Phases are sorted ascending, mapped to unit vectors, and consecutive
    chord lengths are computed; the q-1 largest (ties broken toward the
    smaller sorted index) split the sorted order into q contiguous arcs.
    Chord length is used instead of arc length because it damps small
    fluctuations relative to genuine jumps.
    """
    theta = np.asarray(phases, dtype=float)
    m = theta.size
    if not 1 <= q <= m:
        raise ParameterError(f"q must be between 1 and {m}, got {q}")
    if q == 1:
        return np.zeros(m, dtype=int)
    order = np.argsort(theta, kind="stable")
    srt = theta[order]
    unit = np.column_stack([np.cos(srt), np.sin(srt)])
    step = unit[1:] - unit[:-1]
    gaps = np.sqrt((step * step).sum(axis=1))
    pick = np.lexsort((np.arange(m - 1), -gaps))[: q - 1]
    if gaps[pick].min() == 0.0:
        warnings.warn(
            "cut placed on tied phases; labels split by index order",
            FragmentationWarning,
            stacklevel=2,
        )
    cuts = np.sort(pick)
    ranks = np.empty(m, dtype=int)
    ranks[order] = np.arange(m)
    return np.searchsorted(cuts, ranks, side="left").astype(int)


def labels_circle_clustering(phases: np.ndarray, q: int, seed: int) -> np.ndarray:
    """Label by running k-means on the phases embedded on the unit circle."""
    theta = np.asarray(phases, dtype=float)
    if not 1 <= q <= theta.size:
        raise ParameterError(f"q must be between 1 and {theta.size}, got {q}")
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    return kmeans(circle, q, seed)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> np.ndarray:
    """Lloyd k-means with k-means++ seeding, best of ``n_restarts`` by WCSS.

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
    if n_restarts < 1 or max_iter < 1:
        raise ParameterError("n_restarts and max_iter must be at least 1")
    if not np.isfinite(x).all():
        raise ParameterError("points contain non-finite coordinates")
    x = np.ascontiguousarray(x)
    rng = np.random.default_rng(seed)
    centers = np.stack([_kmeans_pp(x, k, rng) for _ in range(n_restarts)])
    width = max(1, _BATCH_BYTES // (8 * k * n))
    batches = [_lloyd(x, centers[lo : lo + width], max_iter, tol) for lo in range(0, n_restarts, width)]
    labels, wcss = (np.concatenate(parts) for parts in zip(*batches))
    return labels[int(wcss.argmin())]


def _sq_dist(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from centers (..., d) to the n points, shape (..., n).

    Bit for bit ``((x - c) ** 2).sum(axis=-1)``.  numpy adds fewer than
    eight terms in order, so below eight dimensions the sum is accumulated
    one dimension at a time, an order of magnitude faster than reducing a
    short last axis; from eight on numpy sums pairwise, and so does this.
    """
    d = x.shape[1]
    if d >= 8:
        return ((x - centers[..., None, :]) ** 2).sum(axis=-1)
    out = (x[:, 0] - centers[..., 0, None]) ** 2
    for j in range(1, d):
        out += (x[:, j] - centers[..., j, None]) ** 2
    return out


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
