"""End-to-end pipelines gluing the graph, spectral, transport, and ensemble stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import LabelMatrix, PartitionTally, consensus_matrix, majority_partition, run_qtc
from .errors import ParameterError
from .graph import GraphBundle, PointSet, gaussian_adjacency, laplacians, pairwise_distances, quantile_proximity
from .spectral import GapReport, eigendecompose, gap_stats
from .transport import LaplaceParams, select_s

SUMMARIES = ("majority", "consensus", "both")


@dataclass(frozen=True)
class QTCResult:
    """What one clustering run produced, with its bandwidth ``r_eps``; H and the modes are not kept."""

    labels: np.ndarray | None
    tally: PartitionTally | None
    consensus: np.ndarray | None
    omega: LabelMatrix
    r_eps: float
    gaps: GapReport
    s: float


def build_graph(
    points: PointSet, eps: float | None = None, r_eps: float | None = None, dist: np.ndarray | None = None
) -> GraphBundle:
    """Similarity graph: distances, bandwidth, Gaussian adjacency, normalized Laplacian.

    The bandwidth is ``r_eps``, else the ``eps``-quantile of the distances.
    ``dist``, the distance matrix of ``points``, is reused when given.
    """
    if r_eps is None and eps is None:
        raise ParameterError("either eps or r_eps is required")
    if dist is None:
        dist = pairwise_distances(points)
    if r_eps is None:
        r_eps = quantile_proximity(dist, eps)
    adjacency = gaussian_adjacency(dist, r_eps)
    del dist  # a distance matrix computed here is freed before H is built
    return laplacians(adjacency, proximity=r_eps)


def qtc(
    points: PointSet,
    eps: float,
    q: int,
    laplace: LaplaceParams = LaplaceParams(),
    m_prime: int | None = None,
    label_method: str = "circle",
    seed: int = 0,
    summary: str = "both",
) -> QTCResult:
    """Full quantum transport clustering of a point set."""
    if summary not in SUMMARIES:
        raise ParameterError(f"summary must be one of {SUMMARIES}, got {summary!r}")
    graph = build_graph(points, eps)
    eig = eigendecompose(graph.hamiltonian)
    gaps = gap_stats(eig, max(q, 2))
    s = select_s(gaps, laplace)
    omega = run_qtc(eig, s, q, m_prime=m_prime, seed=seed, method=label_method)
    labels = tally = consensus = None
    if summary in ("majority", "both"):
        labels, tally = majority_partition(omega, q)
    if summary in ("consensus", "both"):
        consensus = consensus_matrix(omega)
    return QTCResult(
        labels=labels,
        tally=tally,
        consensus=consensus,
        omega=omega,
        r_eps=graph.proximity,
        gaps=gaps,
        s=s,
    )

