"""Property test of the one-buffer route of ``amplitude_source`` against the graph bundle and ``transport_source``."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtclust import LaplaceParams, QTClustError, amplitude_source, build_graph, graph, transport, transport_source

from conftest import random_points


def _outcome(route, points, eps, q, laplace, init, width, factored):
    """The bits of ``(r_eps, gaps, s, amplitudes)`` of one route, or the type and text of its error."""
    try:
        r_eps, gaps, s, source = route(points, eps, q, laplace)
        amplitudes = np.hstack(list(source(init, width)))
    except QTClustError as exc:
        return type(exc), str(exc)
    energies = (gaps.first_gap, gaps.avg_gap, gaps.next_ratio, r_eps, s)
    return np.array(energies).tobytes(), gaps.low_count, amplitudes.tobytes(), factored[-1].tobytes()


def _two_arrays(points, eps, q, laplace):
    """The route with H and A apart: ``build_graph`` keeps H, and ``transport_source`` copies it."""
    bundle = build_graph(points, eps)
    return (bundle.proximity, *transport_source(bundle.hamiltonian, q, laplace))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 30),
    tile_rows=st.integers(1, 32),
    q=st.integers(2, 4),
    explicit_s=st.booleans(),
)
@example(seed=0, m=2, tile_rows=1, q=2, explicit_s=False)
@example(seed=1, m=3, tile_rows=2, q=3, explicit_s=False)
@example(seed=2, m=3, tile_rows=5, q=2, explicit_s=True)
@example(seed=3, m=29, tile_rows=4, q=3, explicit_s=False)
def test_one_buffer_route_equals_the_two_array_route_bit_for_bit(seed, m, tile_rows, q, explicit_s):
    # tiles of one row up to past m: m below, equal to and not a multiple of the tile, so the expansion of H
    # into A overlaps its source rows in one tile, in the last tiles or in none
    points, eps = random_points(seed, m)
    q = min(q, m)
    laplace = LaplaceParams(rule="explicit", multiplier=0.3) if explicit_s else LaplaceParams()
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    width = int(rng.integers(1, init.size + 1))
    outcomes = []
    for route in (amplitude_source, _two_arrays):
        factored = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_tile_rows", lambda m: tile_rows)
            patch.setattr(transport, "_tile_rows", lambda m: tile_rows)
            real_factor = transport._ldlt_in_place
            patch.setattr(transport, "_ldlt_in_place", lambda a: (factored.append(a.copy()), real_factor(a)))
            outcomes.append(_outcome(route, points, eps, q, laplace, init, width, factored))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0][0], bytes):
        # the factored matrix is A = s I + i H with the bits of the two-array formula h * 1j
        s = np.frombuffer(outcomes[0][0])[-1]
        a = build_graph(points, eps).hamiltonian * 1j
        a.flat[:: m + 1] += s
        assert outcomes[0][3] == a.tobytes()
