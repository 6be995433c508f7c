"""Spectral-clustering baseline and alternative quantum similarity kernels."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NumericError, ParameterError
from .graph import _readonly
from .labeling import kmeans
from .spectral import EigenSystem
from .transport import _check_s

NORMALIZATIONS = ("none", "approach1", "approach2")
DEGENERACY_TOL = 1e-9

LN2 = math.log(2.0)
# float64 entries in the largest scratch array of one jsd_matrix tile (1 MiB)
_TILE_ENTRIES = 1 << 17


def _normalize_features(features: np.ndarray, normalization: str) -> np.ndarray:
    if normalization == "none":
        return features
    if normalization == "approach1":
        norms = np.sqrt((features * features).sum(axis=1))
        zero = norms < 1e-12
        if zero.any():
            warnings.warn(
                f"{int(zero.sum())} embedding row(s) have zero norm and were left at zero",
                RuntimeWarning,
                stacklevel=3,
            )
            norms[zero] = 1.0
        return features / norms[:, None]
    if normalization == "approach2":
        ground = features[:, 0]
        if (np.abs(ground) < 1e-12).any():
            raise NumericError(
                "ground-state entries too close to zero for approach2 renormalization"
            )
        return features / ground[:, None]
    raise ParameterError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")


def spectral_embedding(eig: EigenSystem, q: int, normalization: str = "none") -> np.ndarray:
    """Read-only m x q features: rows of the first q eigenvectors, optionally renormalized per node.

    ``approach1`` rescales every row to unit length; ``approach2`` divides
    each row by its ground-state entry (making column 0 identically one).
    Both flatten intra-cluster density variations that otherwise distort
    embedding distances.
    """
    if normalization not in NORMALIZATIONS:
        raise ParameterError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")
    if not 1 <= q <= eig.size:
        raise ParameterError(f"q must be between 1 and {eig.size}, got {q}")
    features = eig.modes[:, :q].copy()
    return _readonly(_normalize_features(features, normalization))


def spectral_cluster(
    eig: EigenSystem,
    q: int,
    seed: int = 0,
    normalization: str = "approach1",
) -> np.ndarray:
    """Spectral clustering: k-means on the renormalized low-energy embedding."""
    return kmeans(spectral_embedding(eig, q, normalization), q, seed)


def embedding_distance(features: np.ndarray, i: int, j: int) -> float:
    """Euclidean distance between the feature rows of nodes i and j."""
    n = features.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError(f"indices must be in [0, {n})")
    diff = features[i] - features[j]
    return float(np.sqrt((diff * diff).sum()))


def two_cluster_outlier_distances(alpha: float, beta: float, gamma: float, h: float) -> dict:
    """Embedding distances for two cluster peaks plus one outlier node.

    Three nodes: i at the peak of the first cluster, j at the peak of the
    second, and an outlier k carrying a fraction gamma of the first peak's
    orbital weight h.  The ground and first excited features are mixed by
    (alpha, beta) with alpha^2 + beta^2 = 1.  Returns, per normalization,
    the tuple (D_ij, D_ik, D_jk).
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ParameterError("alpha and beta must be positive")
    if abs(alpha * alpha + beta * beta - 1.0) > 1e-9:
        raise ParameterError("alpha^2 + beta^2 must equal 1")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError("gamma must lie in (0, 1]")
    if not h > 0.0:
        raise ParameterError("h must be positive")
    base = np.array(
        [
            [alpha * h, beta * h],
            [beta * h, -alpha * h],
            [gamma * alpha * h, gamma * beta * h],
        ]
    )
    out = {}
    for kind in NORMALIZATIONS:
        features = _normalize_features(base.copy(), kind)
        out[kind] = (
            embedding_distance(features, 0, 1),
            embedding_distance(features, 0, 2),
            embedding_distance(features, 1, 2),
        )
    return out


def _degenerate_groups(energies: np.ndarray, tol: float) -> list:
    """Split an ascending spectrum into groups of numerically equal energies."""
    jumps = np.diff(energies) > tol * np.maximum(1.0, np.abs(energies[1:]))
    return np.split(np.arange(energies.size), np.flatnonzero(jumps) + 1)


def transition_kernel(eig: EigenSystem) -> np.ndarray:
    """Long-time average of the squared transition amplitude of the walk.

    Oscillating cross terms average out except within degenerate energy
    groups, leaving sums of squared group projector elements.  Rows sum to
    one, so each row is the stationary visiting distribution of a walk
    started at that node.

    Conditioning: energies within ``DEGENERACY_TOL`` form a group; two just
    farther apart (gap g) count as distinct, but ``eigh`` fixes their modes
    only to about 1e-16 / g, so entries are fixed only to ~1e-15 / g.
    Permuting the nodes of H moved P by 4.2e-8 at g = 3.3e-9.
    """
    groups = _degenerate_groups(eig.energies, DEGENERACY_TOL)
    m = eig.size
    out = np.zeros((m, m))
    singles = [g[0] for g in groups if g.size == 1]
    if singles:
        w = eig.modes[:, singles] ** 2
        out += w @ w.T
    for g in groups:
        if g.size > 1:
            chi = eig.modes[:, g] @ eig.modes[:, g].T
            out += chi * chi
    out = (out + out.T) / 2.0
    return out


def laplace_similarity(eig: EigenSystem, s: float) -> np.ndarray:
    """Normalized inner products of damped wave functions started at each node.

    S_ij = |<psi_i(s), psi_j(s)>| / sqrt(<psi_i, psi_i><psi_j, psi_j>) with
    spectral weights 1/(s^2 + E_n^2); unit diagonal, entries in [0, 1].
    """
    _check_s(s)
    weights = 1.0 / (s * s + eig.energies**2)
    inner = (eig.modes * weights) @ eig.modes.T
    inner = (inner + inner.T) / 2.0
    diag = np.diag(inner)
    out = np.abs(inner) / np.sqrt(np.outer(diag, diag))
    np.fill_diagonal(out, 1.0)
    return np.minimum(out, 1.0)


def jsd_matrix(eig: EigenSystem) -> np.ndarray:
    """Jensen-Shannon divergence between time-averaged walk density operators.

    The averaged density operator of a walk started at node i is
    block-diagonal over degenerate energy groups, with each block the rank-1
    projection of the start state; entropies therefore reduce to per-group
    2x2 Gram eigenvalues.  For a group of one energy the Gram step collapses
    to the classical mixture entropy -x log x with x = (w_i + w_j) / 2 and
    w = modes**2, summed over all such energies at once; only groups of two
    or more energies keep the Gram step, their cross terms taken tile by
    tile.  Symmetric, zero diagonal, bounded by ln 2.

    Only the upper triangle is computed, in square tiles of at most
    ``_TILE_ENTRIES`` / (number of groups) node pairs, one pair at the least,
    so that each tile's scratch arrays (rows x cols x groups of one kind)
    hold at most ``_TILE_ENTRIES`` values; each tile is mirrored into the
    lower triangle.  Cost grows cubically with the node count.

    Conditioning is that of :func:`transition_kernel`: entries are fixed
    only to ~1e-15 / g, g the smallest gap between ungrouped energies.
    Permuting the nodes of H moved the JSD by 1.2e-7 at g = 3.3e-9.
    """
    groups = _degenerate_groups(eig.energies, DEGENERACY_TOL)
    m = eig.size
    modes = eig.modes
    # C order, so each tile's sum over energies runs along a contiguous axis
    weights = np.square(modes[:, [g[0] for g in groups if g.size == 1]], order="C")
    # groups are runs of consecutive energies, so each block is a view of modes
    blocks = [modes[:, g[0] : g[-1] + 1] for g in groups if g.size > 1]
    block_weights = np.array([np.einsum("ij,ij->i", b, b) for b in blocks]).reshape(len(blocks), m)
    # -S_i / 2 for each node's own entropy S_i = -sum of w log w over its group weights w
    half_self = _xlogx(weights).sum(axis=1) + _xlogx(block_weights).sum(axis=0)
    half_self *= 0.5
    weights *= 0.5  # so that w_i / 2 + w_j / 2 is the mixture weight x of each tile
    n_single = weights.shape[1]
    side = min(m, max(1, math.isqrt(_TILE_ENTRIES // len(groups))))
    # two reused buffers: freshly allocated tile arrays would fault in their pages on every tile
    mix = np.empty(side * side * n_single)
    # x is 0 only where both weights are; the log skips it and keeps a finite earlier value, so x log x is 0
    logs = np.zeros_like(mix)
    has_zeros = not weights.all()
    out = np.empty((m, m))
    for r0 in range(0, m, side):
        rows = slice(r0, min(r0 + side, m))
        for c0 in range(r0, m, side):
            cols = slice(c0, min(c0 + side, m))
            shape = (rows.stop - r0, cols.stop - c0, n_single)
            x = np.add(weights[rows, None, :], weights[None, cols, :], out=mix[: math.prod(shape)].reshape(shape))
            log_x = np.log(x, out=logs[: x.size].reshape(shape), where=x > 0.0 if has_zeros else True)
            log_x *= x
            tile = log_x.sum(axis=2)
            if blocks:
                cross = np.stack([b[rows] @ b[cols].T for b in blocks])
                tile += _gram_xlogx(cross, block_weights[:, rows, None], block_weights[:, None, cols]).sum(axis=0)
            # tile holds -S(mix); D = S(mix) - (S_i + S_j) / 2
            tile -= half_self[rows, None]
            tile -= half_self[None, cols]
            np.negative(tile, out=tile)
            np.clip(tile, 0.0, LN2, out=tile)
            if c0 == r0:
                tile = np.triu(tile, 1)
                tile += tile.T
            out[rows, cols] = tile
            out[cols, rows] = tile.T
    return out


def _gram_xlogx(cross: np.ndarray, w_rows: np.ndarray, w_cols: np.ndarray) -> np.ndarray:
    """x log x summed over the two eigenvalues of each Gram block ((w_i, c), (c, w_j)) / 2.

    The eigenvalues are mean +- radius with mean = (w_i + w_j) / 4 and
    radius = sqrt(((w_i - w_j) / 2)**2 + c**2) / 2; ``cross`` (c) is
    overwritten.
    """
    diff = np.subtract(w_rows, w_cols)
    diff *= 0.5
    diff *= diff
    cross *= cross
    cross += diff
    np.sqrt(cross, out=cross)
    cross *= 0.5
    mean = np.add(w_rows, w_cols)
    mean *= 0.25
    low = np.subtract(mean, cross, out=diff)
    np.maximum(low, 0.0, out=low)
    mean += cross
    total = _xlogx(mean)
    total += _xlogx(low)
    return total


def _xlogx(values: np.ndarray) -> np.ndarray:
    """values * log(values), with 0 where values is 0; no log of zero is taken."""
    out = np.zeros_like(values)
    np.log(values, out=out, where=values > 0.0)
    out *= values
    return out
