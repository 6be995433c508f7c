"""One benchmark process: generate a workload's inputs, then run and time its operations.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment.  Input ``i`` is generated with seed ``INPUTS * seed + i``.  Writes ``result.json`` (timestamps, per-operation records,
peak RSS, environment) and, when tracing, ``spans.jsonl`` into ``--out``.
Operation outputs stay in ``--out`` for ``run.py`` to check.

Modes:
  setup    stop after the inputs are written (a set-up time sample)
  measure  run one small-size warm-up operation, then start operations
           until ``--min-ops`` have run and ``--seconds`` have passed,
           traced when ``--traced`` is given
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

# Operations cycle through this many inputs generated from the seed, so one
# input whose cost is unusual (the sticks vote can have half its usual
# classes) moves a run's median operation time less.
INPUTS = 3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--small", action="store_true")
    return p.parse_args(argv)


def _blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy has no dict mode; the name is informational only
        return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(args.root).resolve()
    out = Path(args.out)
    sys.path.insert(0, str(root / "src"))

    import numpy as np

    import qtclust
    from qtclust import cli, datasets, io
    from workloads import WORKLOADS

    if not Path(qtclust.__file__).resolve().is_relative_to(root / "src"):
        print(f"qtclust imported from {qtclust.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload]
    size = wl.small if args.small else wl.full
    inputs = []
    for i in range(INPUTS):
        points = wl.generate(datasets, INPUTS * args.seed + i, size)
        inputs.append(out / f"points{i}.csv")
        io.save_points_csv(inputs[-1], points)
    warm = wl.generate(datasets, args.seed, wl.small)
    io.save_points_csv(out / "warm.csv", warm)
    result = {"t_setup_end": time.monotonic(), "m": points.m, "ops": []}
    if args.mode == "setup":
        (out / "result.json").write_text(json.dumps(result))
        return 0

    def run_op(commands, csv_path: Path, op_dir: Path) -> list[int]:
        codes = []
        for sub, argv in commands:
            try:
                codes.append(cli.main(argv + ["--input", str(csv_path), "--out", str(op_dir / sub)]))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                codes.append(exc.code if isinstance(exc.code, int) else 1)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                codes.append(-1)
        return codes

    run_op(wl.commands(warm.m), out / "warm.csv", out / "warm")
    result["t_first_op"] = time.monotonic()

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
    commands = wl.commands(points.m)
    start = time.perf_counter()
    while True:
        op_id = len(result["ops"])
        op_dir = out / f"op{op_id}"
        t0 = time.perf_counter()
        source = op_id % INPUTS
        if tracer is None:
            codes = run_op(commands, inputs[source], op_dir)
        else:
            with tracer.installed(), tracer.operation(op_id):
                codes = run_op(commands, inputs[source], op_dir)
        t1 = time.perf_counter()
        result["ops"].append(
            {"id": op_id, "input": source, "seconds": t1 - t0, "codes": codes, "dir": op_dir.name}
        )
        if len(result["ops"]) >= args.min_ops and t1 - start >= args.seconds:
            break

    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = {
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    if tracer is not None:
        result["untraced_targets"] = tracer.missing
        with (out / "spans.jsonl").open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
