"""End-to-end pipelines gluing the graph, spectral, transport, and ensemble stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import PartitionTally, consensus_matrix, majority_partition, run_qtc, start_count
from .errors import ParameterError
from .graph import (
    GraphBundle,
    PointSet,
    _gaussian_adjacency,
    _laplacians,
    _pairwise_distances,
    _quantile_proximity,
    gaussian_adjacency,
    laplacians,
    pairwise_distances,
    quantile_proximity,
)
from .spectral import GapReport, _low_energies, _symmetric_matrix, gap_stats
from .transport import LaplaceParams, _buffer_holding, _halves, _solve_source, select_s

SUMMARIES = ("majority", "consensus", "both")


@dataclass(frozen=True)
class QTCResult:
    """What one clustering run produced, with its start nodes and bandwidth ``r_eps``.

    A overwrites H in one buffer; neither H nor the factors of sI + iH are kept.
    """

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


def transport_source(hamiltonian: np.ndarray, q: int, laplace: LaplaceParams):
    """Gap report, damping rate and amplitude source of a Hamiltonian H, with no eigenvector computed.

    Returns ``(gaps, s, amplitudes)``.  e_0..e_q, q = max(q, 2), come from
    block Lanczos (:func:`low_energies`), so ``gaps.low_count`` is at most
    q; s comes from the gap rule (:func:`select_s`); and ``amplitudes``, an
    amplitude source for :func:`run_qtc`, solves A psi = e_j by one in-place
    block LDL^T of the complex symmetric A = sI + iH (:func:`solve_source`).
    H is checked once here, for both the energies and the solve, and copied
    into one complex buffer, where A overwrites H; the source keeps that
    buffer and not the caller's H.  A single start node j is the one-column
    case: ``next(amplitudes(np.array([j]), 1))[:, 0]``.
    """
    return _transport(_buffer_holding(_symmetric_matrix(hamiltonian)), q, laplace)


def amplitude_source(points: PointSet, eps: float, q: int, laplace: LaplaceParams):
    """Bandwidth, gap report, damping rate and amplitude source of a point set.

    Returns ``(r_eps, gaps, s, amplitudes)``, the bandwidth and the graph of
    :func:`build_graph` with ``eps`` and the rest of :func:`transport_source`,
    with the same bits, but A overwrites H in one buffer: one complex m x m
    array goes from the distances to the LDL^T factors.  Its first float
    half holds the distances, then the adjacency in place; its second half
    is the quantile's scratch, then holds H, which Lanczos and the gap rule
    read and the amplitude source expands into A = sI + iH.  The graph
    stages build H exactly symmetric and finite, so it is not checked again.
    """
    a = np.empty((points.m, points.m), dtype=complex)
    work, h = _halves(a)
    _pairwise_distances(points, out=work)
    r_eps = _quantile_proximity(work, eps, scratch=h.reshape(-1))
    _gaussian_adjacency(work, r_eps, out=work)
    _laplacians(work, out=h)
    return (r_eps, *_transport(a, q, laplace))


def _transport(a: np.ndarray, q: int, laplace: LaplaceParams):
    """:func:`transport_source` of the buffer ``a`` whose second half (``transport._halves``) holds a checked H."""
    h = _halves(a)[1]
    q = max(q, 2)
    gaps = gap_stats(_low_energies(h, min(q + 1, len(h))), q)
    s = select_s(gaps, laplace)
    return gaps, s, _solve_source(a, s)


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
    """Full quantum transport clustering of a point set; the amplitudes come from :func:`amplitude_source`."""
    if summary not in SUMMARIES:
        raise ParameterError(f"summary must be one of {SUMMARIES}, got {summary!r}")
    m_prime = start_count(points.m, m_prime)
    r_eps, gaps, s, amplitudes = amplitude_source(points, eps, q, laplace)
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
