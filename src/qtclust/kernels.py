"""Spectral-clustering baseline and alternative quantum similarity kernels."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NumericError, ParameterError
from .graph import _readonly
from .labeling import kmeans
from .spectral import EigenSystem

NORMALIZATIONS = ("none", "approach1", "approach2")
DEGENERACY_TOL = 1e-9

LN2 = math.log(2.0)


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
    if not (np.isfinite(s) and s > 0.0):
        raise ParameterError("s must be a positive finite number")
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
    2x2 Gram eigenvalues.  Symmetric, zero diagonal, bounded by ln 2.
    Cost grows cubically with the node count.
    """
    groups = _degenerate_groups(eig.energies, DEGENERACY_TOL)
    m = eig.size
    mix_entropy = np.zeros((m, m))
    self_entropy = np.zeros(m)
    for g in groups:
        block = eig.modes[:, g]
        weight = (block * block).sum(axis=1)
        self_entropy -= _xlogx(weight)
        cross = block @ block.T
        mean = (weight[:, None] + weight[None, :]) / 4.0
        radius = 0.5 * np.sqrt(((weight[:, None] - weight[None, :]) * 0.5) ** 2 + cross * cross)
        mix_entropy -= _xlogx(mean + radius) + _xlogx(np.maximum(mean - radius, 0.0))
    out = mix_entropy - 0.5 * (self_entropy[:, None] + self_entropy[None, :])
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return np.clip(out, 0.0, LN2)


def _xlogx(values: np.ndarray) -> np.ndarray:
    safe = np.where(values > 0.0, values, 1.0)
    return values * np.log(safe)
