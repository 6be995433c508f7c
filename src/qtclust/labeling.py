"""Turn one phase field, or a block of them, into q discrete labels: gap cuts or k-means on a circle."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .graph import _sq_dist

# budget of the (restarts, k, n) distance array of one Lloyd batch in kmeans; an eighth of it
# bounds the step arrays of one chunk of (row, restart) pairs in circle labeling
_BATCH_BYTES = 16 << 20
# restarts of kmeans and circle labeling, and the Lloyd iteration cap and center-shift tolerance of each
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
    Each row is clustered as ``kmeans`` clusters its points (cos, sin) with
    the row's seed: the same k-means++ seedings and restarts, and the first
    restart with the lowest WCSS.  While the q(q-1) + 1 arcs between center
    bisectors number at most a quarter of a row's m points, every (row,
    restart) pair of the block runs in one Lloyd loop on sorted phases
    (``_circle_lloyd``) and ``_best_restart`` labels each row from its final
    centers; the labels are those of ``kmeans`` except where a phase lies
    within rounding of a bisector.  With more arcs a step over the points
    costs less, and each row runs ``kmeans``.
    """
    block = _fields(phases, q)
    if np.shape(seed) != np.shape(phases)[:-1]:
        raise ParameterError("need one seed per phase field")
    circle = np.stack([np.cos(block), np.sin(block)], axis=-1)
    seeds = np.reshape(seed, -1).tolist()
    if 4 * (q * (q - 1) + 1) > block.shape[1]:
        labels = [kmeans(points, q, row_seed) for points, row_seed in zip(circle, seeds)]
    else:
        rngs = [np.random.default_rng(row_seed) for row_seed in seeds]
        start = np.array([[_kmeans_pp(x, q, rng) for _ in range(_N_RESTARTS)] for x, rng in zip(circle, rngs)])
        final = _circle_lloyd(circle, start, _MAX_ITER, _TOL)
        labels = [_best_restart(points, centers) for points, centers in zip(circle, final)]
    return np.array(labels, dtype=int).reshape(np.shape(phases))


def _best_restart(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Labels of the first restart with the lowest WCSS, from the restarts' final centers (R, k, 2).

    Labels and WCSS come from the exact distances, the WCSS summed in point
    order, as in ``_lloyd``, so the choice does not depend on how a
    restart's clusters are named.
    """
    d2 = _sq_dist(points, centers)
    labels = _nearest(d2)
    wcss = np.take_along_axis(d2, labels[:, None], axis=1)[:, 0].sum(axis=1)
    return labels[int(wcss.argmin())]


def _circle_lloyd(circle: np.ndarray, centers: np.ndarray, max_iter: int, tol: float) -> np.ndarray:
    """Lloyd iterations of R restarts on each of F rows of points on the unit circle.

    ``circle`` holds the rows' points (F, m, 2) and ``centers`` the start
    centers (F, R, k, 2).  Returns each restart's centers from the iteration
    where they first move by at most ``tol``, or from the last one: the
    centers whose nearest-center labels end that restart, as in ``_lloyd``.

    Each row is sorted by angle once.  A step then costs O(k^3 + k^2 log m)
    per restart: ``_arcs`` cuts the circle at the k(k-1) bisector roots and
    labels the k(k-1) + 1 arcs between them by the nearest of the k centers
    at their midpoints, one ``searchsorted`` finds the cuts among the sorted
    points of every row, and ``_run_sums`` takes the clusters' counts and
    sums from prefix sums.  Arc labels differ from the exact nearest center
    only for points within rounding of a cut.  A restart left with an empty
    cluster takes that step as ``_lloyd`` does: exact distances and labels,
    ``_reseed_empty``, and sums in point order.  The pairs run in chunks
    whose step arrays fit an eighth of ``_BATCH_BYTES``.
    """
    n_rows, n_r, k, _ = centers.shape
    m = circle.shape[1]
    row = np.repeat(np.arange(n_rows), n_r)
    angle = np.arctan2(circle[..., 1], circle[..., 0])
    order = np.argsort(angle, axis=1)
    prefix = np.zeros((n_rows, m + 1, 2))
    np.cumsum(np.take_along_axis(circle, order[..., None], axis=1), axis=1, out=prefix[:, 1:])
    prefix = prefix.reshape(-1, 2)
    # the sorted angles keyed (row, angle): one search serves every row, and complex numbers
    # order lexicographically, so angles compare exactly, as in a search within the row
    keys = np.empty(n_rows * m, dtype=complex)
    keys.real = np.repeat(np.arange(n_rows), m)
    keys.imag = np.take_along_axis(angle, order, axis=1).ravel()
    centers = centers.reshape(-1, k, 2).copy()
    final = np.empty_like(centers)
    # pairs per chunk: a step holds about 16 k + 200 bytes per arc of a pair (the distances of
    # _arcs, the cuts, the search and the run sums), and a chunk's pairs fit an eighth of
    # _BATCH_BYTES, which keeps the peak at that of kmeans row by row
    width = max(1, _BATCH_BYTES // 8 // ((16 * k + 200) * (k * (k - 1) + 1)))
    for lo in range(0, centers.shape[0], width):
        active = np.arange(lo, min(lo + width, centers.shape[0]))
        for it in range(max_iter):
            cur = centers[active]
            own = row[active]
            cuts, arc_labels = _arcs(cur)
            query = np.empty(cuts.shape, dtype=complex)
            query.real = own[:, None]
            query.imag = cuts
            bounds = np.empty((own.size, cuts.shape[1] + 2), dtype=np.intp)
            bounds[:, 0] = 0
            bounds[:, 1:-1] = np.searchsorted(keys, query) - m * own[:, None]
            bounds[:, -1] = m
            counts, sums = _run_sums(prefix, own * (m + 1), bounds, arc_labels, k)
            for a in np.flatnonzero((counts == 0).any(axis=1)):
                points = circle[own[a]]
                d2 = _sq_dist(points, cur[a])
                lab = _nearest(d2[None])[0]
                _reseed_empty(points, cur[a], d2, lab)
                (counts[a],), (sums[a],) = _cluster_sums(points, lab[None], k)
            new = cur.copy()
            filled = counts > 0
            new[filled] = sums[filled] / counts[filled][:, None]
            shift = np.sqrt(((new - cur) ** 2).sum(axis=-1)).max(axis=1)
            centers[active] = new
            done = (shift <= tol) | (it == max_iter - 1)
            final[active[done]] = cur[done]
            active = active[~done]
            if active.size == 0:
                break
    return final.reshape(n_rows, n_r, k, 2)


def _arcs(centers: np.ndarray):
    """Where each center is the nearest on the unit circle: cuts (P, r) and arc labels (P, r + 1).

    Center i is nearer than center j where cos(theta - phi) > rho, with phi
    the direction of c_i - c_j and rho = (|c_i|^2 - |c_j|^2) / (2 |c_i - c_j|),
    computed as the projection of (c_i + c_j) / 2 on that direction.  So the
    cuts of a pair are phi -+ arccos(rho); a pair with |rho| >= 1, or with
    coincident centers, has none, and its two cuts sit at -pi.  The
    r = k(k-1) sorted cuts in [-pi, pi) split [-pi, pi] into r + 1
    intervals, and each interval takes the first nearest center at its
    midpoint.
    """
    n_p, k, _ = centers.shape
    i, j = np.triu_indices(k, 1)
    diff = centers[:, i] - centers[:, j]
    half = (centers[:, i] + centers[:, j]) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (diff * half).sum(axis=-1) / np.hypot(diff[..., 0], diff[..., 1])
    crossing = np.abs(rho) < 1.0  # False for the NaN of coincident centers
    phi = np.arctan2(diff[..., 1], diff[..., 0])
    alpha = np.arccos(np.where(crossing, rho, 0.0))
    cuts = np.where(np.tile(crossing, 2), np.concatenate([phi - alpha, phi + alpha], axis=1), -np.pi)
    cuts = np.where(cuts < -np.pi, cuts + 2 * np.pi, np.where(cuts >= np.pi, cuts - 2 * np.pi, cuts))
    cuts.sort(axis=1)
    edges = np.empty((n_p, cuts.shape[1] + 2))
    edges[:, 0] = -np.pi
    edges[:, 1:-1] = cuts
    edges[:, -1] = np.pi
    mid = (edges[:, :-1] + edges[:, 1:]) / 2
    # the squared distances (P, k, r + 1) summed one coordinate at a time, as _sq_dist does
    d2 = np.cos(mid)[:, None] - centers[..., 0, None]
    dy = np.sin(mid)[:, None] - centers[..., 1, None]
    d2 *= d2
    dy *= dy
    d2 += dy
    return cuts, _nearest(d2)


def _run_sums(prefix: np.ndarray, base: np.ndarray, bounds: np.ndarray, labels: np.ndarray, k: int):
    """Member counts (P, k) and coordinate sums (P, k, 2) of the clusters of sorted points.

    Restart p's interval j holds its row's sorted points ``bounds[p, j]`` to
    ``bounds[p, j + 1]`` and has label ``labels[p, j]``; the row's prefix
    sums start at row ``base[p]`` of ``prefix``.  The nonempty intervals of
    one label with no other nonempty interval between them form a run, and
    a cluster adds the prefix-sum differences of its runs in sorted order.
    So its sum depends only on which points it holds: not on where the
    intervals were cut, nor on the cluster's name.
    """
    n_p, n_i = labels.shape
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    filled = hi > lo
    # the label of the last nonempty interval before each interval, -1 if none
    last = np.maximum.accumulate(np.where(filled, np.arange(n_i), -1), axis=1)
    before = np.where(last >= 0, np.take_along_axis(labels, np.maximum(last, 0), axis=1), -1)
    start = filled.copy()
    start[:, 1:] &= labels[:, 1:] != before[:, :-1]
    # a run ends where the next one starts, or at the last point
    begin = np.where(start, lo, bounds[:, -1:])
    end = np.empty_like(lo)
    end[:, :-1] = np.minimum.accumulate(begin[:, :0:-1], axis=1)[:, ::-1]
    end[:, -1] = bounds[:, -1]
    base = base[:, None]
    value = np.where(start[..., None], prefix[base + end] - prefix[base + lo], 0.0)
    flat = (labels + k * np.arange(n_p)[:, None]).ravel()
    counts = np.bincount(flat, weights=np.where(start, end - lo, 0).ravel(), minlength=n_p * k)
    sums = [np.bincount(flat, weights=value[..., c].ravel(), minlength=n_p * k) for c in range(2)]
    return counts.astype(int).reshape(n_p, k), np.stack(sums, axis=-1).reshape(n_p, k, 2)


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd k-means with k-means++ seeding, best of ``_N_RESTARTS`` by WCSS.

    The spectral baseline (``spectral_cluster``) runs it, and circle
    labeling does for fields with more than m/4 arcs; below that circle
    labeling gets the same labels from its own loop on sorted phases.
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
