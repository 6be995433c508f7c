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
    """What one clustering run produced, with its start nodes and bandwidth ``r_eps``.

    H is freed before the ensemble runs; neither H nor the modes are kept.
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


def takes_solve_route(m: int, m_prime: int) -> bool:
    """Whether an ensemble of ``m_prime`` start nodes on ``m`` nodes takes the solve route (6 m' <= m)."""
    # peak bytes: eigh ~40 m^2 (H, numpy's copy of H, the modes, syevd's workspace); the solve
    # 24 m^2 while A is built from H, then 16 m^2 + 16 m m' (A factored in place, the right-hand
    # side solved in place).  The rule dates from an LU at 32 m^2 + 48 m m' and is kept, so every
    # input takes the route it took then
    return 6 * m_prime <= m


def amplitude_source(points: PointSet, eps: float, q: int, laplace: LaplaceParams, m_prime: int):
    """Bandwidth, gap report, damping rate and amplitude source of a point set for ``m_prime`` start nodes.

    Returns ``(r_eps, gaps, s, amplitudes)``, with ``amplitudes`` an amplitude
    source for :func:`run_qtc`.  The graph is built here (:func:`build_graph`
    with ``eps``), so H is freed when this returns, on both routes.  Both
    routes take the gap report and s from e_0..e_q, q = max(q, 2), so
    ``gaps.low_count`` is at most q.  On the solve route
    (:func:`takes_solve_route`) no eigenvector is computed: e_0..e_q come from
    :func:`low_energies` and the amplitudes from one in-place block LDL^T of
    the complex symmetric A = sI + iH (:func:`solve_source`), which the
    source keeps until its one call has solved for them.  Otherwise H is
    decomposed and the amplitudes summed over its modes, which the source
    keeps.
    """
    graph = build_graph(points, eps)
    h = graph.hamiltonian
    q = max(q, 2)
    solve = takes_solve_route(points.m, m_prime)
    if solve:
        energies = low_energies(h, min(q + 1, points.m))
    else:
        eig = eigendecompose(h)
        energies = eig.energies[: q + 1]
    gaps = gap_stats(energies, q)
    s = select_s(gaps, laplace)
    return graph.proximity, gaps, s, solve_source(h, s) if solve else spectral_source(eig, s)


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
    r_eps, gaps, s, amplitudes = amplitude_source(points, eps, q, laplace, m_prime)
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
