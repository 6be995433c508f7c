"""Spans around the package's layer functions, recorded from outside the package.

Each wrapper is installed on the name in the module that calls it (for
example ``qtclust.ensemble.laplace_wavefunction``), so the package code is
unchanged and runs exactly as it does untraced.  Spans are kept in memory
and handed to the caller at the end; nothing is written while an operation
runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import warnings
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); the layer is the span name before the dot.
TARGETS = (
    ("qtclust.pipeline", "pairwise_distances", "graph.distances"),
    ("qtclust.pipeline", "quantile_proximity", "graph.bandwidth"),
    ("qtclust.pipeline", "gaussian_adjacency", "graph.adjacency"),
    ("qtclust.pipeline", "laplacians", "graph.laplacian"),
    ("qtclust.pipeline", "eigendecompose", "spectral.eigh"),
    ("qtclust.cli", "eigendecompose", "spectral.eigh"),
    ("qtclust.ensemble", "laplace_wavefunction", "transport.wave"),
    ("qtclust.ensemble", "labels_circle_clustering", "labeling.circle"),
    ("qtclust.ensemble", "labels_direct_difference", "labeling.diff"),
    ("qtclust.kernels", "kmeans", "labeling.kmeans"),
    ("qtclust.pipeline", "run_qtc", "ensemble.run_qtc"),
    ("qtclust.pipeline", "majority_partition", "ensemble.majority"),
    ("qtclust.pipeline", "consensus_matrix", "ensemble.consensus"),
    ("qtclust.cli", "transition_kernel", "kernels.P"),
    ("qtclust.cli", "laplace_similarity", "kernels.S"),
    ("qtclust.cli", "jsd_matrix", "kernels.jsd"),
    ("qtclust.cli", "spectral_cluster", "kernels.spectral_cluster"),
    ("qtclust.io", "load_points_csv", "io.points_read"),
    ("qtclust.io", "save_matrix_csv", "io.matrix_write"),
    ("qtclust.io", "save_labels_csv", "io.labels_write"),
)

# functions called too often for a span each: only their calls are counted
COUNTED = (("qtclust.ensemble", "partitions_equivalent", "ensemble.equiv_calls"),)

ROOT = "cli.op"


def _bundle_bytes(args, kwargs, result):
    return {"bytes": sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))}


def _wave_size(args, kwargs, result):
    return {"m": int(args[0].size)}


def _vote(args, kwargs, result):
    tally = result[1]
    return {"classes": len(tally.classes), "top_vote": max(tally.weights.values())}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "graph.laplacian": _bundle_bytes,
    "transport.wave": _wave_size,
    "ensemble.majority": _vote,
    "io.matrix_write": _written_bytes,
}


class Tracer:
    """Records one root span per operation and a child span per layer call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._counts: Counter = Counter()
        self._saved: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "layer": name.split(".", 1)[0],
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    def _count(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        self.missing = []
        for table, make in ((TARGETS, self._wrap), (COUNTED, self._count)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original, name))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; counts calls and warnings raised inside it."""
        self._op = op_id
        self._counts.clear()
        root = self._open(ROOT)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield root
        finally:
            self._close(root)
            self._op = None
        root["attrs"] = dict(self._counts)
        root["attrs"]["underflow_warnings"] = sum(
            issubclass(w.category, RuntimeWarning) and "underflow" in str(w.message) for w in caught
        )
        root["attrs"]["fragmentation_warnings"] = sum(
            w.category.__name__ == "FragmentationWarning" for w in caught
        )
