import numpy as np
import pytest

from qtclust import PointSet, eigendecompose, build_graph


def random_geometric_graph(seed, m, d=2, eps=None):
    """A Gaussian similarity graph on random points, plus its eigensystem."""
    rng = np.random.default_rng(seed)
    points = PointSet(rng.normal(size=(m, d)))
    if eps is None:
        eps = float(rng.uniform(0.15, 0.5))
    graph = build_graph(points, eps)
    return graph, eigendecompose(graph.hamiltonian)


@pytest.fixture
def two_node_eig():
    """Single-edge graph: energies (0, 2), symmetric/antisymmetric modes."""
    return eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
