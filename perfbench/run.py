"""Benchmark of the qtclust command line, run from the root of a checkout.

    python3 perfbench/run.py --workload clouds-m3000 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace both --smoke --seconds 0.5

Each workload runs in worker processes of its own (``worker.py``) with BLAS
pinned to 2 threads.  ``--trace 0`` reports the end-to-end metrics of
untraced operations; ``--trace 1`` reports per-layer metrics from a traced
run, plus the same traced run repeated at 1 BLAS thread; ``--trace both``
does both.  Every metric is printed by name with its unit, then the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every operation's
output is checked outside the timed region.  Full results and the raw spans
are written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import TARGETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

THREADS = 2
SETUP_SAMPLES = 4  # set-up-only processes, on top of the measuring one
DEADLINE_S = 170.0
LN2 = math.log(2.0)
MIB = float(1 << 20)

END_TO_END = (
    ("op_s", "s", "median wall time of one untraced operation"),
    ("setup_s", "s", "median over processes: start to first timed operation, warm-up excluded"),
    ("peak_rss_mb", "MiB", "high-water RSS of the process that ran the untraced operations"),
)

LAYERS = ("graph", "spectral", "transport", "labeling", "ensemble", "kernels", "io", "cli")

# name, unit, how it is obtained; every value is a mean per traced operation
PER_LAYER = (
    ("graph.distances_s", "s", "measured"),
    ("graph.bandwidth_s", "s", "measured"),
    ("graph.adjacency_s", "s", "measured"),
    ("graph.laplacian_s", "s", "measured"),
    ("graph.bundle_mb", "MiB", "computed: nbytes of the largest GraphBundle's arrays"),
    ("spectral.eigh_s", "s", "measured"),
    ("spectral.eigh_calls", "count", "measured"),
    ("transport.wave_s", "s", "measured"),
    ("transport.wave_calls", "count", "measured"),
    ("transport.gflop_s", "GFLOP/s", "computed: 8*m^2 per call / transport.wave_s"),
    ("transport.underflow_warnings", "count", "measured"),
    ("labeling.circle_s", "s", "measured"),
    ("labeling.circle_calls", "count", "measured"),
    ("labeling.diff_s", "s", "measured"),
    ("labeling.kmeans_s", "s", "measured: spectral baseline k-means"),
    ("labeling.fragmentation_warnings", "count", "measured"),
    ("ensemble.run_qtc_s", "s", "measured"),
    ("ensemble.run_qtc_self_s", "s", "measured: run_qtc minus its transport and labeling spans"),
    ("ensemble.majority_s", "s", "measured"),
    ("ensemble.equiv_calls", "count", "measured"),
    ("ensemble.classes", "count", "measured: mean per majority vote"),
    ("ensemble.top_vote", "fraction", "measured: winning weight, mean per majority vote"),
    ("ensemble.consensus_s", "s", "measured"),
    ("kernels.P_s", "s", "measured"),
    ("kernels.S_s", "s", "measured"),
    ("kernels.jsd_s", "s", "measured"),
    ("kernels.spectral_cluster_s", "s", "measured"),
    ("io.points_read_s", "s", "measured"),
    ("io.matrix_write_s", "s", "measured"),
    ("io.matrix_write_mb", "MiB", "measured: size of the files written"),
    ("io.labels_write_s", "s", "measured"),
    *((f"{layer}.self_s", "s", "measured: span time minus child spans") for layer in LAYERS),
    ("quality.ari", "ARI", "measured on the output: majority labels, or spectral labels for kernels-m600"),
    ("trace.op_s", "s", "measured: traced operation"),
    ("trace.untraced_op_s", "s", "measured: untraced operation, same count and inputs"),
    ("trace.overhead_s", "s", "computed: trace.op_s minus trace.untraced_op_s"),
    ("t1.op_s", "s", "measured: traced operation at 1 BLAS thread"),
    *((f"t1.{layer}.self_s", "s", "measured at 1 BLAS thread") for layer in LAYERS),
)

SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))  # each reported as "<span>_s"
CALL_COUNTS = ("spectral.eigh", "transport.wave", "labeling.circle")  # reported as "<span>_calls"
ROOT_COUNTS = {
    "ensemble.equiv_calls": "ensemble.equiv_calls",
    "transport.underflow_warnings": "underflow_warnings",
    "labeling.fragmentation_warnings": "fragmentation_warnings",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class CheckFailed(Exception):
    """An operation's output is missing or wrong."""


# ---------------------------------------------------------------- workers


def spawn(worker_args: list[str], threads: int, run_dir: Path, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; return its result and spawn time."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--out", str(run_dir), *worker_args]
    with (run_dir / "worker.log").open("w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:  # never leave a worker running
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker {' '.join(worker_args)} ran past the deadline") from None
            raise
    result_path = run_dir / "result.json"
    if code != 0 or not result_path.exists():
        tail = (run_dir / "worker.log").read_text()[-2000:]
        raise BenchError(f"worker exited with {code}:\n{tail}")
    return json.loads(result_path.read_text()), t_spawn


# ----------------------------------------------------------------- checks


def _need(path: Path) -> Path:
    if not path.is_file():
        raise CheckFailed(f"missing {path.name}")
    return path


def read_matrix(path: Path, m: int) -> np.ndarray:
    a = np.loadtxt(_need(path), delimiter=",", ndmin=2)
    if a.shape != (m, m):
        raise CheckFailed(f"{path.name}: expected {m}x{m}, got {a.shape[0]}x{a.shape[1]}")
    return a


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _symmetric(a: np.ndarray, name: str) -> None:
    _require(np.abs(a - a.T).max() <= 1e-12, f"{name} is not symmetric")


def check_labels(path: Path, m: int, q: int) -> None:
    lines = _need(path).read_text().split()
    _require(lines[0] == "node_index,label" and len(lines) == m + 1, f"{path.name}: bad header or row count")
    labels = np.array([int(line.split(",")[1]) for line in lines[1:]])
    _require(labels.min() >= 0 and labels.max() < q, f"{path.name}: labels outside [0, {q})")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_command(out: Path, argv: list[str], m: int) -> dict:
    """Validate one command's artifacts; return the quality numbers it reports."""
    _need(out / "run.json")
    kind = argv[0]
    if kind == "cluster":
        q = int(_flag(argv, "--q"))
        check_labels(out / "labels.csv", m, q)
        c = read_matrix(out / "consensus.csv", m)
        _symmetric(c, "consensus")
        _require(bool((np.diag(c) == 1.0).all()), "consensus diagonal is not 1")
        _require(c.min() >= 0.0 and c.max() <= 1.0, "consensus entries outside [0, 1]")
        report = json.loads(_need(out / "report.json").read_text())
        weights = list(report["weights"].values())
        _require(abs(sum(weights) - 1.0) <= 1e-9, "vote weights do not sum to 1")
        return {"ari": report["ari_vs_truth"], "top_vote": max(weights)}
    if kind == "kernel":
        k = _flag(argv, "--kind")
        a = read_matrix(out / f"kernel_{k}.csv", m)
        _symmetric(a, f"kernel {k}")
        if k == "P":
            _require(np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9, "P rows do not sum to 1")
            _require(a.min() >= 0.0, "P has negative entries")
        elif k == "S":
            _require(bool((np.diag(a) == 1.0).all()), "S diagonal is not 1")
            _require(a.min() >= 0.0 and a.max() <= 1.0, "S entries outside [0, 1]")
        else:
            _require(bool((np.diag(a) == 0.0).all()), "JSD diagonal is not 0")
            _require(a.min() >= 0.0 and a.max() <= LN2, "JSD entries outside [0, ln 2]")
        return {}
    if kind == "spectral":
        check_labels(out / "labels.csv", m, int(_flag(argv, "--q")))
        return {"ari": json.loads(_need(out / "report.json").read_text())["ari_vs_truth"]}
    raise CheckFailed(f"no check for command {kind!r}")


def digest(op_dir: Path) -> str:
    """Hash of every artifact of one operation; run.json minus its --input and --out paths."""
    h = hashlib.sha256()
    for path in sorted(p for p in op_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run.json":
            run = json.loads(data)
            run["config"].pop("input", None)
            run["config"].pop("out", None)
            data = json.dumps(run, sort_keys=True).encode()
        h.update(str(path.relative_to(op_dir)).encode() + b"\0" + data)
    return h.hexdigest()


def check_ops(wl, result: dict, run_dir: Path, small: bool) -> list[dict]:
    """Check every operation of one worker; mark failures in place."""
    m = result["m"]
    commands = wl.commands(m)
    reference = {}
    for op in result["ops"]:
        op_dir = run_dir / op["dir"]
        op["quality"] = {}
        try:
            _require(all(code == 0 for code in op["codes"]), f"exit codes {op['codes']}")
            for sub, argv in commands:
                op["quality"].update(check_command(op_dir / sub, argv, m))
            if not small:
                ari = op["quality"]["ari"]
                _require(ari >= wl.ari_floor, f"ARI {ari:.4f} below the floor {wl.ari_floor}")
            op["digest"] = digest(op_dir)
            first = reference.setdefault(op["input"], op["digest"])
            _require(op["digest"] == first, "outputs differ from an earlier operation's on the same input")
            op["ok"] = True
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            op["ok"] = False
            op["error"] = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(op_dir, ignore_errors=True)
    return result["ops"]


# ------------------------------------------------------------------ spans


def load_spans(run_dir: Path) -> dict[int, list[dict]]:
    by_op = defaultdict(list)
    with (run_dir / "spans.jsonl").open() as fh:
        for line in fh:
            span = json.loads(line)
            by_op[span["op"]].append(span)
    return by_op


def breakdown(spans: list[dict]) -> dict:
    """Per-op busy time, calls, self time per layer and counters from one op's spans."""
    children = defaultdict(list)
    root = None
    for s in spans:
        if s["parent"] is None:
            if root is not None:
                raise CheckFailed("more than one root span in an operation")
            root = s
        else:
            children[s["parent"]].append(s)
    if root is None:
        raise CheckFailed("operation has no root span")
    busy = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    span_self = defaultdict(float)
    for s in spans:
        kids = sorted(children[s["id"]], key=lambda c: c["start"])
        prev_end = s["start"]
        for c in kids:
            if c["start"] < prev_end or c["end"] > s["end"]:
                raise CheckFailed(f"span {c['name']} overlaps a sibling or leaves its parent {s['name']}")
            prev_end = c["end"]
        self_time = (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in kids)
        layer_self[s["layer"]] += self_time
        span_self[s["name"]] += self_time
        busy[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    total = root["end"] - root["start"]
    if abs(sum(layer_self.values()) - total) > 1e-6 * max(total, 1.0):
        raise CheckFailed("layer self times do not add up to the operation time")
    attrs = defaultdict(list)
    for s in spans:
        for key, value in s["attrs"].items():
            attrs[(s["name"], key)].append(value)
    return {
        "total": total,
        "busy": busy,
        "calls": calls,
        "layer_self": layer_self,
        "span_self": span_self,
        "root": root["attrs"],
        "attrs": attrs,
    }


def layer_metrics(b: dict) -> dict[str, float]:
    out = {f"{span}_s": b["busy"].get(span, 0.0) for span in SPANS}
    out.update({f"{span}_calls": float(b["calls"].get(span, 0)) for span in CALL_COUNTS})
    out.update({name: float(b["root"].get(key, 0)) for name, key in ROOT_COUNTS.items()})
    out.update({f"{layer}.self_s": b["layer_self"].get(layer, 0.0) for layer in LAYERS})
    out["ensemble.run_qtc_self_s"] = b["span_self"].get("ensemble.run_qtc", 0.0)
    bundles = b["attrs"].get(("graph.laplacian", "bytes"), [])
    out["graph.bundle_mb"] = max(bundles, default=0) / MIB
    sizes = b["attrs"].get(("transport.wave", "m"), [])
    wave_s = out["transport.wave_s"]
    out["transport.gflop_s"] = sum(8.0 * m * m for m in sizes) / wave_s / 1e9 if wave_s > 0 else 0.0
    out["io.matrix_write_mb"] = sum(b["attrs"].get(("io.matrix_write", "bytes"), [])) / MIB
    classes = b["attrs"].get(("ensemble.majority", "classes"), [])
    votes = b["attrs"].get(("ensemble.majority", "top_vote"), [])
    out["ensemble.classes"] = statistics.fmean(classes) if classes else 0.0
    out["ensemble.top_vote"] = statistics.fmean(votes) if votes else 0.0
    out["trace.op_s"] = b["total"]
    return out


def traced_breakdowns(run_dir: Path) -> list[dict]:
    return [breakdown(spans) for _, spans in sorted(load_spans(run_dir).items())]


# ----------------------------------------------------------------- output


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:14.6f} {unit:9s} {note}")


# ------------------------------------------------------------ the workload


def run_untraced(wl, seed: int, seconds: float, small: bool, run_dir: Path, deadline: float) -> dict:
    """End-to-end metrics: set-up samples, then untraced operations in one process."""
    common = ["--workload", wl.name, "--seed", str(seed)] + (["--small"] if small else [])
    setups = []
    for i in range(SETUP_SAMPLES):
        res, t_spawn = spawn(common + ["--mode", "setup"], THREADS, run_dir / f"setup{i}", deadline)
        setups.append(res["t_setup_end"] - t_spawn)
    measure_dir = run_dir / "measure"
    measure = ["--mode", "measure", "--seconds", str(seconds), "--min-ops", str(wl.min_ops)]
    res, t_spawn = spawn(common + measure, THREADS, measure_dir, deadline)
    setups.append(res["t_setup_end"] - t_spawn)
    ops = check_ops(wl, res, measure_dir, small)
    times = [op["seconds"] for op in ops]
    metrics = {
        "op_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
    }
    return {"metrics": metrics, "ops": ops, "env": res["env"], "setup_samples": setups,
            "warmup_s": res["t_first_op"] - res["t_setup_end"]}


def run_traced(wl, seed: int, seconds: float, small: bool, run_dir: Path, deadline: float, spans_prefix: Path) -> dict:
    """Per-layer metrics: untraced, traced, and traced at 1 BLAS thread, one process each.

    Each process runs the same number of operations, as many as the untraced
    one starts in half of ``seconds``, after the same small warm-up; so the
    three differ only in tracing and thread count.
    """
    common = ["--workload", wl.name, "--seed", str(seed), "--mode", "measure"] + (["--small"] if small else [])
    plain, _ = spawn(common + ["--seconds", str(seconds / 2)], THREADS, run_dir / "untraced", deadline)
    same_count = ["--traced", "--min-ops", str(len(plain["ops"]))]
    traced2, _ = spawn(common + same_count, THREADS, run_dir / "traced2", deadline)
    traced1, _ = spawn(common + same_count, 1, run_dir / "traced1", deadline)
    problems = []
    try:
        per_op2 = [layer_metrics(b) for b in traced_breakdowns(run_dir / "traced2")]
        per_op1 = [layer_metrics(b) for b in traced_breakdowns(run_dir / "traced1")]
    except (CheckFailed, KeyError) as exc:
        raise BenchError(f"spans are inconsistent: {exc}") from None
    for threads, name in ((THREADS, "traced2"), (1, "traced1")):
        shutil.copy(run_dir / name / "spans.jsonl", f"{spans_prefix}-threads{threads}.spans.jsonl")
    ops = {name: check_ops(wl, res, run_dir / name, small)
           for name, res in (("untraced", plain), ("traced2", traced2), ("traced1", traced1))}
    digests = {name: {(op["input"], op.get("digest")) for op in group} for name, group in ops.items()}
    if digests["traced2"] != digests["untraced"]:
        problems.append("traced outputs differ from untraced outputs")

    metrics = {name: statistics.fmean(op[name] for op in per_op2) for name in per_op2[0]}
    untraced_s = statistics.fmean(op["seconds"] for op in ops["untraced"])
    metrics["trace.untraced_op_s"] = untraced_s
    metrics["trace.overhead_s"] = statistics.fmean(op["seconds"] for op in ops["traced2"]) - untraced_s
    aris = [op["quality"]["ari"] for op in ops["traced2"] if "ari" in op["quality"]]
    metrics["quality.ari"] = aris[0] if aris else 0.0
    metrics["t1.op_s"] = statistics.fmean(op["trace.op_s"] for op in per_op1)
    for layer in LAYERS:
        metrics[f"t1.{layer}.self_s"] = statistics.fmean(op[f"{layer}.self_s"] for op in per_op1)
    return {
        "metrics": metrics,
        "ops": [op for group in ops.values() for op in group],
        "env": traced2["env"],
        "problems": problems,
        "outputs_equal_across_threads": digests["traced1"] == digests["traced2"],
        "untraced_targets": traced2.get("untraced_targets", []),
        "self_sum_s": sum(metrics[f"{layer}.self_s"] for layer in LAYERS),
    }


def run_workload(wl, seed: int, seconds: float, trace: str, small: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / "runs" / f"{wl.name}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    parts = {}
    try:
        if trace in ("0", "both"):
            parts["0"] = run_untraced(wl, seed, seconds, small, run_dir / "untraced", deadline)
        if trace in ("1", "both"):
            spans_prefix = results_dir / f"{wl.name}-seed{seed}"
            parts["1"] = run_traced(wl, seed, seconds, small, run_dir / "traced", deadline, spans_prefix)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ops = [op for part in parts.values() for op in part["ops"]]
    failed = sum(not op["ok"] for op in ops)
    problems = [p for part in parts.values() for p in part.get("problems", [])]
    env = next(iter(parts.values()))["env"]
    env["git"] = git_revision()
    summary = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "small": small,
        "env": env,
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "parts": parts,
    }
    name = f"{wl.name}-seed{seed}-trace{trace}{'-smoke' if small else ''}.json"
    (results_dir / name).write_text(json.dumps(summary, indent=1, default=str))
    return summary


def report(summary: dict) -> dict:
    """Print every metric of one workload by name with its unit; return the JSON metrics."""
    env = summary["env"]
    print(f"# workload {summary['workload']} seed={summary['seed']} seconds={summary['seconds']}"
          f"{' (smoke sizes)' if summary['small'] else ''}")
    print(f"# why: {summary['why']}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    if "0" in summary["parts"]:
        part = summary["parts"]["0"]
        n = len(part["ops"])
        for name, unit, note in END_TO_END:
            value = part["metrics"][name]
            detail = {"op_s": f"median of {n} ops", "setup_s": f"median of {len(part['setup_samples'])}"}
            emit(name, value, unit, detail.get(name, note))
            metrics[name] = {"value": value, "unit": unit}
        quality = part["ops"][0]["quality"] if part["ops"] else {}
        for key, unit in (("ari", "ARI"), ("top_vote", "fraction")):
            if key in quality:
                emit(key, quality[key], unit, "from the first timed operation's output (not bounded)")
        failed = sum(not op["ok"] for op in part["ops"])
        emit("failed_frac", failed / max(n, 1), "fraction", f"{failed} of {n} ops failed a check")
    if "1" in summary["parts"]:
        part = summary["parts"]["1"]
        for name, unit, how in PER_LAYER:
            value = part["metrics"][name]
            emit(name, value, unit, how)
            metrics[name] = {"value": value, "unit": unit}
        print(f"# layer self times sum to {part['self_sum_s']:.6f} s; traced op {part['metrics']['trace.op_s']:.6f} s")
        print(f"# outputs at 1 and 2 BLAS threads identical: {part['outputs_equal_across_threads']}")
        if part["untraced_targets"]:
            print(f"# not traced (missing): {', '.join(part['untraced_targets'])}")
    for op in summary["parts"].get("0", {}).get("ops", []) + summary["parts"].get("1", {}).get("ops", []):
        if not op["ok"]:
            print(f"# op {op['id']} failed: {op['error']}")
    for problem in summary["problems"]:
        print(f"# problem: {problem}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, no ARI floors")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qtclust" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a qtclust checkout (no src/qtclust)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            summary = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, args.smoke)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        found = report(summary)
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        correct = correct and summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
