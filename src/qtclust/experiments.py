"""Reproducible validation experiments: phase theory, outliers, spectra, sweeps."""

from __future__ import annotations

import numpy as np

from .datasets import ari, gen_gaussian_clouds, gen_tetrahedron
from .ensemble import majority_partition, run_qtc
from .errors import DegenerateGapError, ParameterError
from .graph import PointSet, pairwise_distances
from .kernels import spectral_cluster
from .pipeline import build_graph, transport_source
from .spectral import eigendecompose, gap_stats
from .theory import born_expansion, cluster_orbitals, predicted_phases, resolvent_exact, tight_binding
from .transport import LaplaceParams, phase_field, solve_source

# both phase experiments damp at 1.2 times the first spectral gap
FIRST_GAP_S = LaplaceParams(rule="first_gap", multiplier=1.2)
# the share of lowest-amplitude nodes left out of the two-cloud phase error
DROP_FRACTION = 0.05
# outlier positions alpha and points per cloud of the outlier sweep
OUTLIER_ALPHAS = tuple(np.linspace(0.0, 1.0, 21).tolist())
OUTLIER_N_PER = 50
# cluster counts of the spectrum-count experiment
CLUSTER_COUNTS = (2, 3, 4)


def circular_difference(a, b):
    """Signed phase difference wrapped into (-pi, pi]."""
    d = np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(d == -np.pi, np.pi, d)


def two_cloud_experiment(
    seed: int = 0,
    sigma: float = 0.1,
    ell_over_sigma: float = 3.0,
    n_per: int = 100,
    partition: str = "truth",
) -> dict:
    """Transport phases of two Gaussian clouds against the projected-resolvent theory.

    Builds the two-cloud set at separation ``ell_over_sigma * sigma`` with
    bandwidth ``sigma``, starts transport at the node nearest the left
    center, and compares every node's phase with the prediction for its
    cluster.  The ``DROP_FRACTION`` of nodes with the smallest amplitudes is
    excluded from the error statistic.
    Also reports how fast the tunneling expansion approaches the exact
    resolvent.
    """
    if partition not in ("truth", "qtc"):
        raise ParameterError(f"partition must be 'truth' or 'qtc', got {partition!r}")
    ell = ell_over_sigma * sigma
    if not np.isfinite(ell):
        raise ParameterError(f"the cloud offset overflows at sigma={sigma!r}, ell_over_sigma={ell_over_sigma!r}")
    points = gen_gaussian_clouds([(-ell, 0.0), (ell, 0.0)], sigma, n_per, seed)
    graph = build_graph(points, r_eps=sigma)
    _, s, source = transport_source(graph.hamiltonian, 2, FIRST_GAP_S)

    init_node = int(np.argmin(np.linalg.norm(points.points - [-ell, 0.0], axis=1)))
    if partition == "truth":
        part = points.truth
    else:
        omega, _ = run_qtc(points.m, source, 2, seed=seed)
        part, _ = majority_partition(omega, 2)
        source = solve_source(graph.hamiltonian, s)  # the ensemble used up the first source
    amplitudes = next(source(np.array([init_node]), 1))[:, 0]
    phases = phase_field(amplitudes)
    orbitals = cluster_orbitals(graph.hamiltonian, part)
    tb = tight_binding(graph.hamiltonian, orbitals)
    exact = resolvent_exact(tb, s)
    theta = predicted_phases(exact)
    born = {order: born_expansion(tb, s, order) for order in (1, 2, 3)}
    born_errors = {order: float(np.abs(born[order] - exact).max()) for order in born}

    init_cluster = int(part[init_node])
    predicted_per_node = theta[part, init_cluster]
    n_drop = int(round(DROP_FRACTION * points.m))
    keep = np.argsort(np.abs(amplitudes))[n_drop:]
    errors = np.abs(circular_difference(phases[keep], predicted_per_node[keep]))
    return {
        "r_eps": sigma,
        "s": s,
        "init_node": init_node,
        "empirical_phases": phases,
        "exact_theory": theta,
        "born_phases": {order: predicted_phases(g) for order, g in born.items()},
        "born_errors": born_errors,
        "max_phase_error": float(errors.max()),
    }


def outlier_sweep(
    seed: int = 0,
    sigma: float = 0.1,
    ell: float = 0.4,
    eps: float = 0.11,
) -> list[dict]:
    """Phase of a single movable point interpolating between two clusters.

    The outlier sits at ((2 alpha - 1) ell, 0): on the left center at
    alpha = 0 and on the right center at alpha = 1.  Transport starts from a
    node deep in the left cluster; each row reports the mean phase of both
    clusters and the outlier's phase.  The default eps puts the bandwidth at
    roughly one cluster width, keeping the inter-cluster gap above the
    zero-mode clamp for every outlier position.
    """
    clouds = gen_gaussian_clouds([(-ell, 0.0), (ell, 0.0)], sigma, OUTLIER_N_PER, seed)
    init_node = int(np.argmin(np.linalg.norm(clouds.points - [-ell, 0.0], axis=1)))
    rows = []
    for alpha in OUTLIER_ALPHAS:
        coords = np.vstack([clouds.points, [((2.0 * alpha - 1.0) * ell, 0.0)]])
        truth = np.concatenate([clouds.truth, [2]])
        graph = build_graph(PointSet(points=coords, truth=truth), eps)
        _, _, source = transport_source(graph.hamiltonian, 2, FIRST_GAP_S)
        phases = phase_field(next(source(np.array([init_node]), 1))[:, 0])
        rows.append(
            {
                "alpha_out": float(alpha),
                "phase_left_mean": float(phases[truth == 0].mean()),
                "phase_right_mean": float(phases[truth == 1].mean()),
                "phase_outlier": float(phases[-1]),
            }
        )
    return rows


def spectrum_count_experiment(
    seed: int = 0,
    sigma: float = 0.1,
    eps: float = 0.1,
    n_per: int = 100,
) -> dict:
    """Low-energy mode counting on well-separated tetrahedron-vertex clusters."""
    out = {}
    for q in CLUSTER_COUNTS:
        graph = build_graph(gen_tetrahedron(q=q, sigma=sigma, n_per=n_per, seed=seed), eps)
        eig = eigendecompose(graph.hamiltonian)
        gaps = gap_stats(eig.energies, q)
        out[int(q)] = {
            "low_count": gaps.low_count,
            "gap_ratio": gaps.next_ratio,
            "energies": eig.energies[:6].tolist(),
            "r_eps": graph.proximity,
        }
    return out


def eps_sweep(
    points: PointSet,
    q: int,
    eps_grid,
    seed: int = 0,
    laplace: LaplaceParams = LaplaceParams(),
    m_prime: int | None = None,
    label_method: str = "circle",
) -> list[dict]:
    """Accuracy of transport clustering versus spectral clustering across bandwidths.

    The transport rows take their amplitudes as :func:`pipeline.qtc` does
    (:func:`transport_source`); the spectral baseline decomposes H.
    Bandwidths at which the graph decomposes into numerically exact
    components have no spectral gap to damp against; those rows carry NaN
    for the transport score instead of aborting the sweep.
    """
    if points.truth is None:
        raise ParameterError("eps sweep needs ground-truth labels to score against")
    dist = pairwise_distances(points)
    rows = []
    for eps in np.asarray(eps_grid, dtype=float):
        graph = build_graph(points, float(eps), dist=dist)
        try:
            _, _, source = transport_source(graph.hamiltonian, q, laplace)
            omega, _ = run_qtc(points.m, source, q, m_prime=m_prime, seed=seed, method=label_method)
            labels, _ = majority_partition(omega, q)
            ari_qtc = ari(labels, points.truth)
        except DegenerateGapError:
            ari_qtc = float("nan")
        spectral_labels = spectral_cluster(eigendecompose(graph.hamiltonian), q, seed=seed)
        rows.append({"eps": float(eps), "ari_qtc": ari_qtc, "ari_spectral": ari(spectral_labels, points.truth)})
    return rows
