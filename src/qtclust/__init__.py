"""Quantum transport clustering on similarity networks.

Points become a Gaussian similarity graph; the symmetric degree-normalized
Laplacian drives a damped quantum walk whose Laplace-transformed phases are
nearly constant inside communities.  An ensemble over start nodes votes the
phases into labels, and a tight-binding projection supplies closed-form
phase predictions to validate against.
"""

from .datasets import (
    ari,
    gen_annuli,
    gen_gaussian_clouds,
    gen_sticks,
    gen_tetrahedron,
    load_timeseries,
    radius_proportional_counts,
)
from .ensemble import (
    PartitionTally,
    canonical_relabel,
    consensus_matrix,
    majority_partition,
    partitions_equivalent,
    run_qtc,
)
from .errors import (
    DegenerateGapError,
    InputError,
    InvalidBlockError,
    IsolatedNodeError,
    NumericError,
    ParameterError,
    QTClustError,
)
from .graph import (
    GraphBundle,
    PointSet,
    gaussian_adjacency,
    laplacians,
    pairwise_distances,
    quantile_proximity,
)
from .kernels import (
    embedding_distance,
    jsd_matrix,
    laplace_similarity,
    spectral_cluster,
    spectral_embedding,
    transition_kernel,
    two_cluster_outlier_distances,
)
from .labeling import (
    FragmentationWarning,
    kmeans,
    labels_circle_clustering,
    labels_direct_difference,
)
from .pipeline import QTCResult, amplitude_source, build_graph, qtc
from .spectral import EigenSystem, GapReport, count_low_energy, eigendecompose, gap_stats, low_energies
from .theory import (
    InstantonParams,
    born_expansion,
    cluster_orbitals,
    instanton_phases,
    predicted_phases,
    resolvent_exact,
    tight_binding,
    two_level_phases,
)
from .transport import LaplaceParams, laplace_amplitudes, phase_field, select_s, solve_source, spectral_source

__version__ = "0.1.0"

__all__ = [
    "amplitude_source",
    "ari",
    "born_expansion",
    "build_graph",
    "canonical_relabel",
    "cluster_orbitals",
    "consensus_matrix",
    "count_low_energy",
    "DegenerateGapError",
    "EigenSystem",
    "eigendecompose",
    "embedding_distance",
    "FragmentationWarning",
    "GapReport",
    "gap_stats",
    "gaussian_adjacency",
    "gen_annuli",
    "gen_gaussian_clouds",
    "gen_sticks",
    "gen_tetrahedron",
    "GraphBundle",
    "InputError",
    "InstantonParams",
    "instanton_phases",
    "InvalidBlockError",
    "IsolatedNodeError",
    "jsd_matrix",
    "kmeans",
    "labels_circle_clustering",
    "labels_direct_difference",
    "laplace_amplitudes",
    "laplace_similarity",
    "LaplaceParams",
    "laplacians",
    "load_timeseries",
    "low_energies",
    "majority_partition",
    "NumericError",
    "pairwise_distances",
    "ParameterError",
    "PartitionTally",
    "partitions_equivalent",
    "phase_field",
    "PointSet",
    "predicted_phases",
    "QTClustError",
    "QTCResult",
    "qtc",
    "quantile_proximity",
    "radius_proportional_counts",
    "resolvent_exact",
    "run_qtc",
    "select_s",
    "solve_source",
    "spectral_cluster",
    "spectral_embedding",
    "spectral_source",
    "tight_binding",
    "transition_kernel",
    "two_cluster_outlier_distances",
    "two_level_phases",
]
