"""Similarity-graph stages: distances, quantile bandwidth, Gaussian adjacency, Laplacian."""

from __future__ import annotations

import math
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
    """Degrees and the normalized Laplacian of one similarity network.

    ``hamiltonian`` is the symmetric degree-normalized Laplacian
    I - D^{-1/2} A D^{-1/2}; it generates the quantum walk and shares its
    spectrum with the random-walk normalization, and is the only m x m array
    kept.  ``proximity`` records the Gaussian bandwidth of the adjacency A
    (NaN when A came from elsewhere, e.g. a kernel matrix).
    """

    degrees: np.ndarray
    hamiltonian: np.ndarray
    proximity: float = math.nan

    def __post_init__(self):
        for name in ("degrees", "hamiltonian"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))


def pairwise_distances(points: PointSet | np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, bitwise identical to a per-pair norm loop."""
    x = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("need at least two points in an m x d array")
    if not np.isfinite(x).all():
        raise InputError("points contain non-finite coordinates")
    m, d = x.shape
    out = np.empty((m, m))
    # chunk rows so the (rows, m, d) scratch block stays small; a 1 MiB block
    # made a process's peak RSS swing ~6 MiB with the input at m=900 (heap layout)
    step = max(1, (16 << 20) // max(1, 8 * m * d))
    for lo in range(0, m, step):
        diff = x[lo : lo + step, None, :] - x[None, :, :]
        out[lo : lo + step] = np.sqrt((diff * diff).sum(axis=-1))
    return out


def quantile_proximity(dist: np.ndarray, eps: float) -> float:
    """The eps-quantile (linear interpolation) of the positive pairwise distances."""
    if not (isinstance(eps, (int, float)) and 0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie strictly between 0 and 1, got {eps!r}")
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError("distance matrix must be square")
    m = d.shape[0]
    # positive entries above the diagonal: a boolean mask takes m^2 bytes, triangle index arrays 8 m^2
    mask = d > 0.0
    mask &= np.arange(m)[:, None] < np.arange(m)[None, :]
    positive = d[mask]
    if positive.size == 0:
        raise InputError("all pairwise distances are zero; no proximity scale exists")
    return float(np.quantile(positive, eps, overwrite_input=True))


def gaussian_adjacency(dist: np.ndarray, r_eps: float) -> np.ndarray:
    """A_ij = exp(-(r_ij / r_eps)^2); unit diagonal, entries in (0, 1]."""
    if not (np.isfinite(r_eps) and r_eps > 0.0):
        raise ParameterError(f"proximity scale must be a positive finite number, got {r_eps!r}")
    a = np.asarray(dist, dtype=float) / r_eps
    np.square(a, out=a)
    np.negative(a, out=a)
    return np.exp(a, out=a)


def laplacians(adjacency: np.ndarray, proximity: float = math.nan) -> GraphBundle:
    """Degrees and the symmetric normalized Laplacian H of an adjacency matrix.

    H annihilates the sqrt-degree vector, so a connected graph always has a
    zero mode proportional to sqrt(deg).  The plain Laplacian D - A is not
    formed; callers that need it build it from ``degrees`` and A.
    """
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("adjacency must be square")
    if not np.isfinite(a).all():
        raise InputError("adjacency contains non-finite entries")
    _check_symmetric(a, SYMMETRY_TOL, "adjacency must be symmetric")
    m = a.shape[0]
    if a.min() < 0.0:
        raise InputError("adjacency entries must be nonnegative")
    degrees = a.sum(axis=1)
    if (degrees <= 0.0).any():
        bad = int(np.nonzero(degrees <= 0.0)[0][0])
        raise IsolatedNodeError(f"node {bad} has zero degree and cannot be normalized")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # H = I - D^-1/2 A D^-1/2 in one m x m array; 0 - x keeps +0.0 where x is 0
    hamiltonian = a * inv_sqrt[:, None]
    hamiltonian *= inv_sqrt[None, :]
    np.subtract(0.0, hamiltonian, out=hamiltonian)
    hamiltonian.flat[:: m + 1] += 1.0
    _symmetrize(hamiltonian)
    return GraphBundle(degrees=degrees, hamiltonian=hamiltonian, proximity=float(proximity))


def _tile_rows(m: int) -> int:
    """Rows per tile so that a tile of an m x m float matrix stays near 1 MiB."""
    return max(1, (1 << 20) // (8 * max(m, 1)))


def _check_symmetric(a: np.ndarray, tol: float, message: str) -> None:
    """Raise ``InputError(message)`` unless |a - a^T| <= tol, checked one tile of rows at a time."""
    step = _tile_rows(a.shape[0])
    for lo in range(0, a.shape[0], step):
        if np.abs(a[lo : lo + step] - a[:, lo : lo + step].T).max() > tol:
            raise InputError(message)


def _symmetrize(h: np.ndarray) -> None:
    """Replace h by (h + h^T) / 2 in place, one pair of square tiles at a time."""
    m = h.shape[0]
    step = max(1, math.isqrt(_tile_rows(m) * m))
    for lo in range(0, m, step):
        for lo2 in range(lo, m, step):
            rows, cols = slice(lo, lo + step), slice(lo2, lo2 + step)
            mean = (h[rows, cols] + h[cols, rows].T) / 2.0
            h[rows, cols] = mean
            h[cols, rows] = mean.T
