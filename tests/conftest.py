import contextlib
import itertools
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from qtclust import PointSet, cli, eigendecompose, build_graph
from qtclust.kernels import DEGENERACY_TOL, LN2, _degenerate_groups

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # CI runs with HYPOTHESIS_PROFILE=ci: fixed example draws, and a failure prints the blob that replays it
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_points(seed, m, d=2, eps=None, pieces=1):
    """Random normal points and a bandwidth quantile eps, the input of ``random_geometric_graph``.

    With ``pieces`` > 1 the points fall into that many groups 1e3 apart (every
    group needs two points), and the default eps picks a distance within a
    group, so the graph has at least ``pieces`` components.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(m, d))
    if eps is None:
        eps = float(rng.uniform(0.15, 0.5))
        if pieces > 1:
            sizes = np.bincount(np.arange(m) % pieces)
            within = int((sizes * (sizes - 1) // 2).sum())
            # np.quantile interpolates at eps (n - 1) in the sorted distances, whose first `within` are in groups
            eps *= (within - 1) / (m * (m - 1) // 2 - 1)
    points[:, 0] += 1e3 * (np.arange(m) % pieces)
    return PointSet(points), eps


def random_geometric_graph(seed, m, d=2, eps=None, pieces=1):
    """A Gaussian similarity graph on ``random_points``, plus its eigensystem."""
    graph = build_graph(*random_points(seed, m, d, eps, pieces))
    return graph, eigendecompose(graph.hamiltonian)


@pytest.fixture
def hamiltonian_refs(monkeypatch):
    """Weak references to the H of every graph that ``cli`` builds with ``build_graph``, in call order."""
    refs = []

    def build_graph_spy(*args, **kwargs):
        graph = build_graph(*args, **kwargs)
        refs.append(weakref.ref(graph.hamiltonian))
        return graph

    monkeypatch.setattr(cli, "build_graph", build_graph_spy)
    return refs


@contextlib.contextmanager
def traced_peak():
    """Trace the allocations of the block; yields ``peak()``, the traced peak in bytes above the block's start.

    numpy reports its array buffers to tracemalloc, so the peak counts
    every array the block holds at once.  ``peak()`` may be called inside
    the block, for the peak so far, and keeps its last value after it.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    last = [0]

    def peak():
        if tracemalloc.is_tracing():
            last[0] = tracemalloc.get_traced_memory()[1] - start
        return last[0]

    try:
        yield peak
    finally:
        peak()
        tracemalloc.stop()


@pytest.fixture
def two_node_eig():
    """Single-edge graph: energies (0, 2), symmetric/antisymmetric modes."""
    return eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def laplace_amplitudes(eig, init_nodes, s):
    """Laplace-space amplitudes by the spectral sum, one column per start node: the spectral oracle of ``solve_source``.

    Column k is sum_n modes[:, n] modes[j, n] / (s + i E_n) with
    j = init_nodes[k], the solution of (s I + i H) psi = e_j.  The complex
    weights are laid out as interleaved real and imaginary columns, so one
    real GEMM of ``modes`` against them yields the complex result.
    """
    weights = eig.modes[np.asarray(init_nodes), :] / (s + 1j * eig.energies)
    return (eig.modes @ np.ascontiguousarray(weights.T).view(float)).view(complex)


def spectral_source(eig, s):
    """An amplitude source for ``run_qtc`` that sums each block over the modes (:func:`laplace_amplitudes`)."""

    def blocks(init_nodes, width):
        for lo in range(0, len(init_nodes), width):
            yield laplace_amplitudes(eig, init_nodes[lo : lo + width], s)

    return blocks


def laplace_amplitudes_oracle(eig, init_nodes, s):
    """Each spectral sum sum_n modes[i, n] modes[j, n] / (s + i E_n) added exactly by ``math.fsum``.

    The reference for :func:`laplace_amplitudes`: entry (i, k) is the
    amplitude at node i of the wave started at j = init_nodes[k].
    """
    weights = eig.modes[np.asarray(init_nodes), :] / (s + 1j * eig.energies)
    out = np.empty((eig.size, weights.shape[0]), dtype=complex)
    for i, row in enumerate(eig.modes):
        for k, w in enumerate(weights):
            out[i, k] = complex(math.fsum((row * w.real).tolist()), math.fsum((row * w.imag).tolist()))
    return out


def solve_source_oracle(hamiltonian, s, init_nodes):
    """(s I + i H)^-1 E, one unit column of E per start node, by LAPACK's pivoted LU: the reference for ``transport.solve_source``."""
    m = hamiltonian.shape[0]
    return np.linalg.solve(s * np.eye(m) + 1j * hamiltonian, np.eye(m)[:, init_nodes])


def jsd_matrix_oracle(eig):
    """The JSD kernel group by group over full m x m arrays: the reference for ``kernels.jsd_matrix``.

    Every energy group, one energy or many, takes the 2x2 Gram step: the
    mixture of the start states' projections onto the group has eigenvalues
    mean +- radius.
    """
    m = eig.size
    mix_entropy = np.zeros((m, m))
    self_entropy = np.zeros(m)
    for g in _degenerate_groups(eig.energies, DEGENERACY_TOL):
        block = eig.modes[:, g]
        weight = (block * block).sum(axis=1)
        self_entropy -= _xlogx_oracle(weight)
        cross = block @ block.T
        mean = (weight[:, None] + weight[None, :]) / 4.0
        radius = 0.5 * np.sqrt(((weight[:, None] - weight[None, :]) * 0.5) ** 2 + cross * cross)
        mix_entropy -= _xlogx_oracle(mean + radius) + _xlogx_oracle(np.maximum(mean - radius, 0.0))
    out = mix_entropy - 0.5 * (self_entropy[:, None] + self_entropy[None, :])
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return np.clip(out, 0.0, LN2)


def _xlogx_oracle(values):
    safe = np.where(values > 0.0, values, 1.0)
    return values * np.log(safe)


def permutation_equivalent(a, b, q):
    """True iff some permutation of the labels 0..q-1 maps column a onto b."""
    return any(all(perm[x] == y for x, y in zip(a, b)) for perm in itertools.permutations(range(q)))


def fingerprint_equivalent(a, b):
    """The paper's sqrt-prime fingerprint test of label-renaming equivalence.

    sqrt(2) and sqrt(3) are linearly independent over the rationals, so the
    fingerprints xi_i = a_i sqrt(2) + b_i sqrt(3) of integer label pairs are
    distinct exactly when the pairs are.  The columns are equivalent when the
    number of distinct fingerprints equals the number of labels each uses.
    """
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    xi = np.sort(a * math.sqrt(2.0) + b * math.sqrt(3.0))
    distinct = 1 + int(np.count_nonzero(np.diff(xi) > 1e-6))
    return distinct == np.unique(a).size == np.unique(b).size


def consensus_oracle(omega_arr):
    """Per-pair share of columns giving two nodes the same label: the reference for ``ensemble.consensus_matrix``.

    Compares every pair of rows label by label, with no one-hot product.
    """
    omega_arr = np.asarray(omega_arr)
    return (omega_arr[:, None, :] == omega_arr[None, :, :]).sum(axis=-1) / omega_arr.shape[1]


def pairwise_grouping(omega_arr):
    """Classes by exhaustive pairwise fingerprint equivalence, keyed by the first member."""
    groups = []
    for k in range(omega_arr.shape[1]):
        for g in groups:
            if fingerprint_equivalent(omega_arr[:, g[0]], omega_arr[:, k]):
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


def direct_difference_oracle(phases, q):
    """Gap-cut labels of one phase field, and whether a cut fell on a zero gap.

    The reference for each row of ``labeling.labels_direct_difference``: the
    q-1 largest chord gaps are picked by ``lexsort``, ties toward the smaller
    sorted index, and each node's label counts the cuts before its rank.
    """
    theta = np.asarray(phases, dtype=float)
    m = theta.size
    if q == 1:
        return np.zeros(m, dtype=int), False
    order = np.argsort(theta, kind="stable")
    srt = theta[order]
    unit = np.column_stack([np.cos(srt), np.sin(srt)])
    step = unit[1:] - unit[:-1]
    gaps = np.sqrt((step * step).sum(axis=1))
    pick = np.lexsort((np.arange(m - 1), -gaps))[: q - 1]
    cuts = np.sort(pick)
    ranks = np.empty(m, dtype=int)
    ranks[order] = np.arange(m)
    return np.searchsorted(cuts, ranks, side="left").astype(int), bool(gaps[pick].min() == 0.0)


def kmeans_oracle(points, k, seed, n_restarts=10, max_iter=300, tol=1e-6):
    """k-means restarts run one after another: the reference for ``labeling.kmeans``.

    Each restart draws its k-means++ seeding and runs its own Lloyd loop;
    the first restart with the lowest final WCSS wins.
    """
    x = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    best_labels = None
    best_wcss = np.inf
    for _ in range(n_restarts):
        centers = kmeans_pp_oracle(x, k, rng)
        labels, _, history = lloyd_oracle(x, centers, max_iter, tol)
        if history[-1] < best_wcss:
            best_wcss = history[-1]
            best_labels = labels
    return best_labels


def kmeans_pp_oracle(x, k, rng):
    """k-means++ seeding of one restart."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(rng.integers(n))
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd_oracle(x, centers, max_iter, tol):
    """Lloyd iterations of one restart; returns (labels, centers, per-iteration WCSS)."""
    k = centers.shape[0]
    centers = centers.copy()
    history = []
    labels = np.zeros(x.shape[0], dtype=int)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for c in range(k):
            if not (labels == c).any():
                assigned = d2[np.arange(x.shape[0]), labels]
                far = int(assigned.argmax())
                centers[c] = x[far]
                d2[:, c] = ((x - centers[c]) ** 2).sum(axis=1)
                labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(x.shape[0]), labels].sum()))
        new_centers = centers.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                new_centers[c] = x[members].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift <= tol:
            break
    return labels, centers, history
