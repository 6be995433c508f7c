"""The benchmark's workloads: generated inputs and the CLI commands of one operation.

One operation is one or more in-process ``qtclust.cli.main([...])`` calls on
a points CSV the benchmark generated from its seed, so it costs what the
same commands cost a user, CSV reading and writing included.  Each workload
also has a small size, used for the untimed warm-up operation and for the
smoke mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

CLOUD_CENTERS = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.9))


def _clouds(datasets, seed: int, n: int):
    return datasets.gen_gaussian_clouds(CLOUD_CENTERS, 0.2, n, seed)


def _sticks(datasets, seed: int, n: int):
    return datasets.gen_sticks(
        3, length=1.0, gap=0.2, n_per=n, density_profile="nonuniform", jitter=0.01, seed=seed
    )


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload and the commands one operation runs on them.

    ``generate(datasets, seed, size)`` returns a PointSet; ``size`` is the
    generator's per-component count (``full`` when timed, ``small`` for the
    warm-up and smoke runs).  ``commands(m)`` gives ``(subdir, argv)``
    pairs; the benchmark appends ``--input`` and ``--out <op dir>/<subdir>``.
    ``ari_floor`` is the lowest ARI a full-size operation may report before
    its output counts as failed.  An untraced run times at least ``min_ops``
    operations, however short ``--seconds`` is.
    """

    name: str
    why: str
    generate: Callable
    full: int
    small: int
    commands: Callable
    ari_floor: float
    min_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clouds-m3000",
            why="Desk-scale ceiling (3000 points, m'=100, circle labeling, majority and consensus): "
            "graph, eigh, transport, labeling, consensus and CSV output all take a share.",
            generate=_clouds,
            full=1000,
            small=40,
            commands=lambda m: [
                ("cluster", ["cluster", "--eps", "0.05", "--q", "3", "--m-prime", "100"]),
            ],
            # the vote's winner is the three-cloud partition (ARI ~0.95) on some
            # seeds and a partition merging two clouds (ARI ~0.55) on others
            ari_floor=0.45,
            min_ops=2,
        ),
        Workload(
            name="sticks-diff-full",
            why="Every node is a start node and labels come from gap cuts: the pairwise majority "
            "vote over ~300 classes dominates and k-means is bypassed.",
            generate=_sticks,
            full=300,
            small=30,
            commands=lambda m: [
                (
                    "cluster",
                    ["cluster", "--eps", "0.055", "--q", "3", "--m-prime", str(m), "--label-method", "diff"],
                ),
            ],
            # every generator seed from 0 to 62 passed this floor
            ari_floor=0.95,
            min_ops=3,
        ),
        Workload(
            name="kernels-m600",
            why="The only workload that runs the P, S and JSD kernels (JSD dominates) and the spectral "
            "baseline; it bypasses transport, circle and diff labeling, and the ensemble.",
            generate=_clouds,
            full=200,
            small=30,
            commands=lambda m: [
                ("P", ["kernel", "--kind", "P", "--eps", "0.05"]),
                ("S", ["kernel", "--kind", "S", "--eps", "0.05"]),
                ("jsd", ["kernel", "--kind", "jsd", "--eps", "0.05"]),
                ("spectral", ["spectral", "--eps", "0.05", "--q", "3"]),
            ],
            # spectral baseline ARI: 0.94 to 0.99 across 40 generator seeds
            ari_floor=0.85,
            min_ops=3,
        ),
    )
}
