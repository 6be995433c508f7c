import numpy as np
import pytest

from qtclust import PointSet, eigendecompose, build_graph, partitions_equivalent


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


def pairwise_grouping(omega_arr, q):
    """Classes by exhaustive pairwise equivalence, keyed by the first member."""
    groups = []
    for k in range(omega_arr.shape[1]):
        for g in groups:
            if partitions_equivalent(omega_arr[:, g[0]], omega_arr[:, k], q):
                g.append(k)
                break
        else:
            groups.append([k])
    return {g[0]: tuple(g) for g in groups}


# floats whose text form is easy to get wrong: signed zero and NaN, NaN payloads, subnormals, 1e22
FLOAT_SPECIALS = [
    0.0,
    -0.0,
    np.inf,
    -np.inf,
    np.nan,
    float(np.copysign(np.nan, -1.0)),
    float(np.array([0x7FF8000000000001]).view(np.float64)[0]),
    5e-324,
    -2.2250738585072014e-308,
    1e22,
    0.1,
]


def matrix_csv_oracle(matrix):
    """The bytes of a matrix CSV, formatted one entry at a time."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in arr).encode()
