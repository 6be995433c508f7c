"""Synthetic benchmark generators, time-series ingestion, and cluster scoring."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ParameterError
from .graph import PointSet
from .io import read_csv

# unit-edge regular tetrahedron; any leading subset keeps pairwise distance 1
_TETRA_VERTICES = (
    np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )
    / math.sqrt(8.0)
)

# desk scale: the most float64 coordinates a generator makes, 10^7 points in the plane
_MAX_COORDINATES = 2 * 10**7


def _per_component_counts(count, n_components: int, name: str, dim: int) -> np.ndarray:
    """One count per component: ``count`` for each, or one entry of ``count`` each.

    ``ParameterError`` naming ``name`` for a count outside int64, or for
    counts whose points, ``dim`` coordinates each, would exceed
    ``_MAX_COORDINATES``, before any point is drawn.
    """
    try:
        if np.isscalar(count):
            counts = np.full(n_components, int(count), dtype=int)
        else:
            counts = np.asarray(count, dtype=int)
    except OverflowError:
        raise ParameterError(f"{name} must fit in int64, got {count!r}") from None
    if counts.shape != (n_components,):
        raise ParameterError(f"need one count per component, got {counts.shape}")
    if (counts < 1).any():
        raise ParameterError("every component needs at least one point")
    total = sum(counts.tolist())
    if total * dim > _MAX_COORDINATES:
        raise ParameterError(f"{name} must give at most {_MAX_COORDINATES // dim} points in all, got {total}")
    return counts


def _finite_points(blocks, **scales) -> np.ndarray:
    """Stack blocks computed with overflow ignored; ``ParameterError`` naming ``scales`` if a coordinate overflowed."""
    points = np.vstack(blocks)
    if not np.isfinite(points).all():
        named = ", ".join(f"{name}={value!r}" for name, value in scales.items())
        raise ParameterError(f"point coordinates overflow at {named}")
    return points


def gen_gaussian_clouds(centers, sigma: float, n_per, seed: int = 0) -> PointSet:
    """Isotropic Gaussian clouds around the given centers."""
    ctr = np.atleast_2d(np.asarray(centers, dtype=float))
    if ctr.shape[0] < 1:
        raise ParameterError("need at least one center")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ParameterError(f"sigma must be positive and finite, got {sigma!r}")
    if not np.isfinite(ctr).all():
        raise ParameterError(f"centers must be finite, got {ctr.tolist()!r}")
    counts = _per_component_counts(n_per, ctr.shape[0], "n_per", ctr.shape[1])
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        blocks = [c + sigma * rng.standard_normal((n, ctr.shape[1])) for c, n in zip(ctr, counts)]
    truth = np.repeat(np.arange(ctr.shape[0]), counts)
    return PointSet(points=_finite_points(blocks, sigma=sigma), truth=truth)


def gen_sticks(
    n_sticks: int,
    length: float = 1.0,
    gap: float = 0.2,
    n_per=60,
    density_profile: str = "uniform",
    jitter: float = 0.01,
    seed: int = 0,
) -> PointSet:
    """Parallel line segments with transverse jitter.

    ``uniform`` spreads points evenly along each stick.  ``nonuniform``
    concentrates them quadratically toward one end (alternating ends from
    stick to stick), producing strong density variation along each cluster.
    """
    # every stick gets a point
    if not 2 <= n_sticks <= _MAX_COORDINATES // 2:
        raise ParameterError(f"n_sticks must be at least 2 and at most {_MAX_COORDINATES // 2}, got {n_sticks!r}")
    if density_profile not in ("uniform", "nonuniform"):
        raise ParameterError(f"unknown density profile {density_profile!r}")
    for name, value in (("length", length), ("gap", gap), ("jitter", jitter)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if length <= 0.0 or gap <= 0.0 or jitter < 0.0:
        raise ParameterError("length and gap must be positive, jitter nonnegative")
    counts = _per_component_counts(n_per, n_sticks, "n_per", 2)
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(n_sticks):
        u = rng.uniform(0.0, 1.0, counts[k])
        if density_profile == "nonuniform":
            u = u * u
            if k % 2 == 1:
                u = 1.0 - u
        x = u * length
        with np.errstate(over="ignore"):
            y = k * gap + jitter * rng.standard_normal(counts[k])
        blocks.append(np.column_stack([x, y]))
    truth = np.repeat(np.arange(n_sticks), counts)
    return PointSet(points=_finite_points(blocks, gap=gap, jitter=jitter), truth=truth)


def gen_annuli(radii, width: float, counts, seed: int = 0) -> PointSet:
    """Concentric rings: radius uniform within each band, angle uniform."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ParameterError("radii must be a one-dimensional sequence")
    if not (np.isfinite(r).all() and np.isfinite(width)):
        raise ParameterError("radii and width must be finite")
    if not width > 0.0:
        raise ParameterError("width must be positive")
    if r[0] - width / 2.0 <= 0.0:
        raise ParameterError("innermost band must stay at positive radius")
    if r.size > 1 and (np.diff(r) <= width).any():
        raise ParameterError("rings overlap: consecutive radii must differ by more than width")
    n_ring = _per_component_counts(counts, r.size, "counts", 2)
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(r.size):
        rad = rng.uniform(r[k] - width / 2.0, r[k] + width / 2.0, n_ring[k])
        ang = rng.uniform(0.0, 2.0 * math.pi, n_ring[k])
        blocks.append(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))
    truth = np.repeat(np.arange(r.size), n_ring)
    return PointSet(points=np.vstack(blocks), truth=truth)


def radius_proportional_counts(radii, base: int) -> np.ndarray:
    """Ring sample counts growing linearly with radius (constant arc density)."""
    r = np.asarray(radii, dtype=float)
    if base < 1:
        raise ParameterError("base count must be at least 1")
    if r.ndim != 1 or r.size < 1 or not (np.isfinite(r).all() and (r > 0.0).all()):
        raise ParameterError(f"radii must be a sequence of positive finite numbers, got {radii!r}")
    with np.errstate(over="ignore"):
        counts = np.rint(base * r / r[0])
    if not (counts < 2.0**63).all():
        raise ParameterError(f"ring counts overflow at radii={radii!r}, base_count={base!r}")
    return np.maximum(1, counts.astype(int))


def gen_tetrahedron(q: int = 4, sigma: float = 0.1, n_per=100, seed: int = 0) -> PointSet:
    """q Gaussian clusters in R^3 at the vertices of a unit-edge tetrahedron."""
    if q not in (2, 3, 4):
        raise ParameterError(f"q must be 2, 3, or 4, got {q}")
    return gen_gaussian_clouds(_TETRA_VERTICES[:q], sigma, n_per, seed)


def load_timeseries(path) -> tuple[PointSet, list[str]]:
    """Two price series -> 2-D points of log-returns relative to day one.

    Expects the header ``date,price_a,price_b``.  Row order is temporal
    order; the parsed dates are returned alongside the points.
    """
    dates: list[str] = []
    prices: list[tuple[float, float]] = []
    with read_csv(path) as reader:
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["date", "price_a", "price_b"]:
            raise InputError("time-series CSV must start with header date,price_a,price_b")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise InputError(f"{path}, line {reader.line_num}: malformed time-series row {row!r}")
            try:
                prices.append((float(row[1]), float(row[2])))
            except ValueError:
                raise InputError(f"{path}, line {reader.line_num}: non-numeric price in {row!r}") from None
            dates.append(row[0])
    if len(prices) < 2:
        raise InputError("need at least two rows of prices")
    arr = np.asarray(prices, dtype=float)
    if (arr <= 0.0).any():
        raise InputError("prices must be strictly positive")
    points = np.log(arr) - np.log(arr[0])
    return PointSet(points=points), dates


def ari(labels, truth) -> float:
    """Adjusted Rand index between two labelings; 1.0 means identical partitions."""
    a = np.asarray(labels, dtype=int)
    b = np.asarray(truth, dtype=int)
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError("label vectors must be one-dimensional and equally long")
    n = a.size
    if n < 2:
        raise ParameterError("need at least two samples")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return (x * (x - 1) / 2.0).sum()

    index = comb2(table)
    row_sum = comb2(table.sum(axis=1))
    col_sum = comb2(table.sum(axis=0))
    total = n * (n - 1) / 2.0
    expected = row_sum * col_sum / total
    denom = (row_sum + col_sum) / 2.0 - expected
    if denom == 0.0:
        return 1.0
    return float((index - expected) / denom)
