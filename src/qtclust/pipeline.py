"""End-to-end pipelines gluing the graph, spectral, transport, and ensemble stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import PartitionTally, consensus_matrix, majority_partition, run_qtc, start_count
from .errors import ParameterError
from .graph import GraphBundle, PointSet, gaussian_adjacency, laplacians, pairwise_distances, quantile_proximity
from .spectral import GapReport, eigendecompose, gap_stats, low_energies
from .transport import LaplaceParams, select_s, solve_source, spectral_source

SUMMARIES = ("majority", "consensus", "both")


@dataclass(frozen=True)
class QTCResult:
    """What one clustering run produced, with its start nodes and bandwidth ``r_eps``; H and the modes are not kept."""

    labels: np.ndarray | None
    tally: PartitionTally | None
    consensus: np.ndarray | None
    init_nodes: np.ndarray
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


def takes_solve_route(m: int, m_prime: int) -> bool:
    """Whether an ensemble of ``m_prime`` start nodes on ``m`` nodes takes the solve route (6 m' <= m)."""
    # peak bytes: eigh ~40 m^2 (H, numpy's copy of H, the modes, syevd's workspace); the solve
    # ~32 m^2 + 48 m m' (A, numpy's copy of A, the right-hand side, its work copy, the output)
    return 6 * m_prime <= m


def amplitude_source(graph: GraphBundle, q: int, laplace: LaplaceParams, m_prime: int):
    """Gap report, damping rate and amplitude source of a graph for ``m_prime`` start nodes.

    Returns ``(gaps, s, amplitudes)``, with ``amplitudes`` an amplitude source
    for :func:`run_qtc`; the gap rule reads the band of max(q, 2) modes.  On
    the solve route (:func:`takes_solve_route`) no eigenvector is computed:
    e_0..e_q come from :func:`low_energies` and the amplitudes from one
    complex LU of sI + iH, built here, so the caller can free H before the
    solve.  Otherwise H is decomposed and the amplitudes summed over its modes.
    """
    h = graph.hamiltonian
    m = h.shape[0]
    q = max(q, 2)
    if takes_solve_route(m, m_prime):
        gaps = gap_stats(low_energies(h, min(q + 1, m)), q)
        s = select_s(gaps, laplace)
        return gaps, s, solve_source(h, s)
    eig = eigendecompose(h)
    gaps = gap_stats(eig.energies, q)
    s = select_s(gaps, laplace)
    return gaps, s, spectral_source(eig, s)


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
    """Full quantum transport clustering of a point set (see :func:`amplitude_source` for its two routes)."""
    if summary not in SUMMARIES:
        raise ParameterError(f"summary must be one of {SUMMARIES}, got {summary!r}")
    m_prime = start_count(points.m, m_prime)
    graph = build_graph(points, eps)
    r_eps = graph.proximity
    gaps, s, amplitudes = amplitude_source(graph, q, laplace, m_prime)
    if takes_solve_route(points.m, m_prime):
        # H goes before the solve, which runs in run_qtc.  The spectral route keeps H and the modes
        # until qtc returns: freeing them earlier lets glibc put the later m x m arrays on the heap,
        # which raised the peak RSS of an every-node ensemble (m' = m = 900) by 6 MiB
        del graph
    omega, init_nodes = run_qtc(points.m, amplitudes, q, m_prime=m_prime, seed=seed, method=label_method)
    labels = tally = consensus = None
    if summary in ("majority", "both"):
        labels, tally = majority_partition(omega, q)
    if summary in ("consensus", "both"):
        consensus = consensus_matrix(omega, q)
    return QTCResult(
        labels=labels,
        tally=tally,
        consensus=consensus,
        init_nodes=init_nodes,
        r_eps=r_eps,
        gaps=gaps,
        s=s,
    )
