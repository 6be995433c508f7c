"""Command-line entry point: reproducible pipelines over CSV/JSON artifacts."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, io
from .datasets import (
    ari,
    gen_annuli,
    gen_gaussian_clouds,
    gen_sticks,
    gen_tetrahedron,
    radius_proportional_counts,
)
from .ensemble import LABEL_METHODS
from .errors import InputError, NumericError, ParameterError
from .kernels import NORMALIZATIONS, jsd_matrix, laplace_similarity, spectral_cluster, transition_kernel
from .pipeline import SUMMARIES, amplitude_source, build_graph, qtc
from .spectral import count_low_energy, eigendecompose, gap_stats
from .transport import S_RULES, LaplaceParams, phase_field, select_s

SCHEMA = "qtclust/1"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    with io.open_for_writing(path) as fh:
        fh.write(json.dumps(payload, indent=2, default=_json_default, sort_keys=True) + "\n")


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def _out_dir(args) -> Path:
    return _make_dir(Path(args.out))


def _write_run_json(out: Path, args, derived: dict) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    _write_json(out / "run.json", {"command": args.command, "config": resolved, "derived": derived})


def _graph_eig(args):
    """The input points, the bandwidth of their similarity graph and its eigensystem; H is freed on return."""
    points = io.load_points_csv(args.input)
    graph = build_graph(points, args.eps)
    return points, graph.proximity, eigendecompose(graph.hamiltonian)


def _laplace_params(args) -> LaplaceParams:
    return LaplaceParams(rule=args.s_rule, multiplier=args.s_mult)


def _seed(text: str) -> int:
    """A seed for numpy's generators, which take only non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _positive_int(text: str) -> int:
    """A count such as the cluster number q, which must be at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_floats(text: str, option: str, kind=float) -> list:
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ParameterError(f"{option} expects a comma-separated list of {kind.__name__} values, got {text!r}")
    return values


def _parse_counts(text: str, option: str):
    values = _parse_floats(text, option, kind=int)
    return values[0] if len(values) == 1 else values


def _parse_centers(text: str) -> list[list[float]]:
    centers = [_parse_floats(part, "--centers") for part in text.split(";") if part.strip()]
    if len({len(c) for c in centers}) > 1:
        raise ParameterError(f"--centers expects coordinate tuples of one length, got {text!r}")
    return centers


# the options each generator kind reads, with their defaults; gen declares them all without a default
_STICKS = {"n_sticks": 3, "length": 1.0, "gap": 0.2, "jitter": 0.01, "n_per": "100"}
_GEN_OPTIONS = {
    "gaussian-clouds": {"centers": None, "sigma": 0.1, "n_per": "100"},
    "sticks-uniform": _STICKS,
    "sticks-nonuniform": _STICKS,
    "annuli": {"radii": "0.4,0.8,1.2,1.6,2.0", "width": 0.1, "counts": None, "base_count": 40},
    "tetrahedron": {"q": 4, "sigma": 0.1, "n_per": "100"},
}


def cmd_gen(args) -> None:
    kind = args.kind
    own = _GEN_OPTIONS[kind]
    foreign = sorted({name for options in _GEN_OPTIONS.values() for name in options if hasattr(args, name)} - set(own))
    if foreign:
        flags = ", ".join("--" + name.replace("_", "-") for name in foreign)
        raise ParameterError(f"--kind {kind} does not take {flags}")
    for name, default in own.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    n_per = _parse_counts(args.n_per, "--n-per") if "n_per" in own else None
    if kind == "gaussian-clouds":
        if not args.centers:
            raise ParameterError("--centers is required for gaussian-clouds")
        points = gen_gaussian_clouds(_parse_centers(args.centers), args.sigma, n_per, args.seed)
    elif kind in ("sticks-uniform", "sticks-nonuniform"):
        profile = "uniform" if kind == "sticks-uniform" else "nonuniform"
        points = gen_sticks(
            args.n_sticks,
            length=args.length,
            gap=args.gap,
            n_per=n_per,
            density_profile=profile,
            jitter=args.jitter,
            seed=args.seed,
        )
    elif kind == "annuli":
        radii = _parse_floats(args.radii, "--radii")
        if args.counts is None:
            counts = radius_proportional_counts(radii, args.base_count)
        else:
            counts = _parse_counts(args.counts, "--counts")
        points = gen_annuli(radii, args.width, counts, args.seed)
    else:  # tetrahedron
        points = gen_tetrahedron(q=args.q, sigma=args.sigma, n_per=n_per, seed=args.seed)
    target = Path(args.out)
    if target.suffix == ".csv":
        _make_dir(target.parent)
    else:
        target = _make_dir(target) / "points.csv"
    io.save_points_csv(target, points)
    print(f"wrote {target} ({points.m} points, d={points.dim})")


def cmd_eigen(args) -> None:
    _, r_eps, eig = _graph_eig(args)
    out = _out_dir(args)
    q = args.q if args.q else max(2, count_low_energy(eig.energies))
    gaps = gap_stats(eig.energies, min(q, eig.size))
    payload = {
        "energies": eig.energies,
        "low_count": gaps.low_count,
        "first_gap": gaps.first_gap,
        "avg_gap": gaps.avg_gap,
        "r_eps": r_eps,
    }
    _write_json(out / "eigen.json", payload)
    _write_run_json(out, args, {"r_eps": r_eps, "q": q})
    print(f"wrote {out / 'eigen.json'}")


def cmd_phases(args) -> None:
    points = io.load_points_csv(args.input)
    # one start node: the solve route from 6 nodes up
    r_eps, _, s, source = amplitude_source(points, args.eps, args.q or 2, _laplace_params(args), 1)
    out = _out_dir(args)
    amplitudes = next(source(np.array([args.init_node]), 1))[:, 0]
    path = out / "phases.csv"
    io.save_table_csv(
        path,
        ["node_index", "phase", "amplitude_re", "amplitude_im"],
        [np.arange(points.m), phase_field(amplitudes), amplitudes.real, amplitudes.imag],
    )
    _write_run_json(out, args, {"s": s, "r_eps": r_eps})
    print(f"wrote {path}")


def cmd_cluster(args) -> None:
    points = io.load_points_csv(args.input)
    result = qtc(
        points,
        args.eps,
        args.q,
        laplace=_laplace_params(args),
        m_prime=args.m_prime,
        label_method=args.label_method,
        seed=args.seed,
        summary=args.summary,
    )
    out = _out_dir(args)
    report = {
        "q": args.q,
        "m_prime": result.init_nodes.size,
        "s": result.s,
        "method": args.label_method,
        "r_eps": result.r_eps,
    }
    if result.labels is not None:
        io.save_labels_csv(out / "labels.csv", result.labels)
        report["weights"] = {str(k): v for k, v in result.tally.weights.items()}
        if points.truth is not None:
            report["ari_vs_truth"] = ari(result.labels, points.truth)
    if result.consensus is not None:
        io.save_matrix_csv(out / "consensus.csv", result.consensus, levels=result.init_nodes.size)
    _write_json(out / "report.json", report)
    _write_run_json(out, args, {"s": result.s, "r_eps": result.r_eps, "init_nodes": result.init_nodes})
    print(f"wrote {out / 'report.json'}")


def cmd_spectral(args) -> None:
    points, r_eps, eig = _graph_eig(args)
    out = _out_dir(args)
    labels = spectral_cluster(eig, args.q, seed=args.seed, normalization=args.normalization)
    io.save_labels_csv(out / "labels.csv", labels)
    report = {"q": args.q, "normalization": args.normalization, "seed": args.seed}
    if points.truth is not None:
        report["ari_vs_truth"] = ari(labels, points.truth)
    _write_json(out / "report.json", report)
    _write_run_json(out, args, {"r_eps": r_eps})
    print(f"wrote {out / 'labels.csv'}")


def cmd_kernel(args) -> None:
    # only the S kernel has a damping rate: P and jsd reject the s options and leave them out of run.json
    if args.kind == "S":
        args.s_rule = getattr(args, "s_rule", LaplaceParams.rule)
        args.s_mult = getattr(args, "s_mult", LaplaceParams.multiplier)
    elif hasattr(args, "s_rule") or hasattr(args, "s_mult"):
        raise ParameterError("--s-rule and --s-mult apply to --kind S only")
    _, r_eps, eig = _graph_eig(args)
    out = _out_dir(args)
    if args.kind == "P":
        matrix = transition_kernel(eig)
    elif args.kind == "S":
        matrix = laplace_similarity(eig, select_s(gap_stats(eig.energies, 2), _laplace_params(args)))
    else:
        matrix = jsd_matrix(eig)
    path = out / f"kernel_{args.kind}.csv"
    io.save_matrix_csv(path, matrix)
    _write_run_json(out, args, {"r_eps": r_eps})
    print(f"wrote {path}")


def _experiment_done(out: Path, args, derived: dict) -> None:
    _write_run_json(out, args, derived)
    print(f"experiment {args.name} artifacts in {out}")


def cmd_two_cloud(args) -> None:
    out = _out_dir(args)
    result = experiments.two_cloud_experiment(
        seed=args.seed,
        sigma=args.sigma,
        ell_over_sigma=args.ell_sigma,
        n_per=_parse_counts(args.n_per, "--n-per"),
        partition=args.partition,
    )
    payload = {
        "s": result["s"],
        "r_eps": result["r_eps"],
        "init_node": result["init_node"],
        "empirical_phases": result["empirical_phases"],
        "exact_theory": result["exact_theory"],
        "born_1": result["born_phases"][1],
        "born_2": result["born_phases"][2],
        "born_3": result["born_phases"][3],
        "born_errors": {str(k): v for k, v in result["born_errors"].items()},
        "max_phase_error": result["max_phase_error"],
    }
    _write_json(out / "two_cloud.json", payload)
    _experiment_done(out, args, {"s": result["s"], "init_node": result["init_node"]})


def cmd_outlier_sweep(args) -> None:
    out = _out_dir(args)
    rows = experiments.outlier_sweep(seed=args.seed, sigma=args.sigma, ell=args.ell, eps=args.eps)
    keys = ["alpha_out", "phase_left_mean", "phase_right_mean", "phase_outlier"]
    io.save_table_csv(out / "outlier_sweep.csv", keys, [[row[k] for row in rows] for k in keys])
    _experiment_done(out, args, {"n_alphas": len(rows)})


def cmd_spectrum_count(args) -> None:
    out = _out_dir(args)
    n_per = _parse_counts(args.n_per, "--n-per")
    result = experiments.spectrum_count_experiment(seed=args.seed, sigma=args.sigma, eps=args.eps, n_per=n_per)
    _write_json(out / "spectrum_count.json", {"counts": {str(k): v for k, v in result.items()}})
    _experiment_done(out, args, {"low_counts": {str(k): v["low_count"] for k, v in result.items()}})


def cmd_eps_sweep(args) -> None:
    out = _out_dir(args)
    rows = experiments.eps_sweep(
        io.load_points_csv(args.input),
        args.q,
        _parse_floats(args.eps_grid, "--eps-grid"),
        seed=args.seed,
        laplace=_laplace_params(args),
        m_prime=args.m_prime,
        label_method=args.label_method,
    )
    keys = ["eps", "ari_qtc", "ari_spectral"]
    io.save_table_csv(out / "eps_sweep.csv", keys, [[row[k] for row in rows] for k in keys])
    _experiment_done(out, args, {"n_eps": len(rows)})


# Options that several commands read, each declared here once.  A command that gives one of
# them its own default (``_command``'s keyword arguments) makes it optional there.
_SHARED_OPTIONS = {
    "--seed": {"type": _seed, "default": 0},
    "--out": {"default": "qtclust-out", "help": "output directory"},
    "--input": {"required": True, "help": "points CSV"},
    "--eps": {"type": float, "required": True, "help": "quantile fraction for the bandwidth"},
    "--q": {"type": _positive_int, "required": True, "help": "number of clusters"},
    "--s-rule": {"choices": S_RULES, "default": LaplaceParams.rule},
    "--s-mult": {"type": float, "default": LaplaceParams.multiplier},
    "--m-prime": {"type": int, "default": None},
    "--label-method": {"choices": LABEL_METHODS, "default": "circle"},
    "--sigma": {"type": float, "default": 0.1},
    "--n-per": {"default": "100", "help": "points per component (int or comma list)"},
}


def _command(subparsers, name: str, func, help_text: str, flags, **defaults) -> argparse.ArgumentParser:
    """A sub-command that declares the shared options in ``flags`` and no others.

    Abbreviations are off, so an option the command does not declare exits 2
    instead of being taken for a longer one (``--eps`` for ``--eps-grid``).
    """
    p = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
    for flag in flags:
        spec = dict(_SHARED_OPTIONS[flag])
        dest = flag[2:].replace("-", "_")
        if dest in defaults:
            spec.update(default=defaults[dest], required=False)
        p.add_argument(flag, **spec)
    p.set_defaults(func=func)
    return p


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtclust", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    graph = ("--input", "--eps", "--out")
    s_options = ("--s-rule", "--s-mult")
    label_options = ("--m-prime", "--label-method")

    # cmd_gen gives each kind's options their defaults and rejects those of other kinds
    unset = {name: argparse.SUPPRESS for name in ("sigma", "n_per", "q")}
    gen = _command(sub, "gen", cmd_gen, "generate a synthetic point set", ("--seed", "--sigma", "--n-per", "--q"), **unset)
    gen.add_argument("--kind", required=True, choices=tuple(_GEN_OPTIONS))
    gen.add_argument("--out", default="points.csv", help="points CSV path or output directory")
    gen.add_argument("--centers", default=argparse.SUPPRESS, help="semicolon-separated coordinate tuples, e.g. '0,0;1,0'")
    gen.add_argument("--n-sticks", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--length", type=float, default=argparse.SUPPRESS)
    gen.add_argument("--gap", type=float, default=argparse.SUPPRESS)
    gen.add_argument("--jitter", type=float, default=argparse.SUPPRESS)
    gen.add_argument("--radii", default=argparse.SUPPRESS)
    gen.add_argument("--width", type=float, default=argparse.SUPPRESS)
    gen.add_argument("--counts", default=argparse.SUPPRESS, help="per-ring counts (comma list); default scales with radius")
    gen.add_argument("--base-count", type=int, default=argparse.SUPPRESS)

    _command(sub, "eigen", cmd_eigen, "spectrum and gap diagnostics", graph + ("--q",), q=None)
    phases = _command(sub, "phases", cmd_phases, "phase field of one start node", graph + ("--q",) + s_options, q=None)
    phases.add_argument("--init-node", type=int, required=True)
    ensemble = graph + ("--seed", "--q") + s_options + label_options
    cluster = _command(sub, "cluster", cmd_cluster, "full transport clustering run", ensemble)
    cluster.add_argument("--summary", choices=SUMMARIES, default="both")
    spectral = _command(sub, "spectral", cmd_spectral, "spectral clustering baseline", graph + ("--seed", "--q"))
    spectral.add_argument("--normalization", choices=NORMALIZATIONS, default="approach1")
    unset_s = {"s_rule": argparse.SUPPRESS, "s_mult": argparse.SUPPRESS}  # cmd_kernel resolves them for S only
    kernel = _command(sub, "kernel", cmd_kernel, "quantum similarity kernel matrices", graph + s_options, **unset_s)
    kernel.add_argument("--kind", required=True, choices=("P", "S", "jsd"))

    experiment = sub.add_parser("experiment", help="reproducible validation experiments", allow_abbrev=False)
    named = experiment.add_subparsers(dest="name", required=True)
    seeded = ("--seed", "--out")
    two_cloud = _command(
        named, "two-cloud", cmd_two_cloud, "two-cloud phases against theory", seeded + ("--sigma", "--n-per")
    )
    two_cloud.add_argument("--ell-sigma", type=float, default=3.0)
    two_cloud.add_argument("--partition", choices=("truth", "qtc"), default="truth")
    outlier = _command(
        named, "outlier-sweep", cmd_outlier_sweep, "phase of a moving outlier", seeded + ("--sigma", "--eps"), eps=0.11
    )
    outlier.add_argument("--ell", type=float, default=0.4)
    spectrum = seeded + ("--sigma", "--eps", "--n-per")
    _command(named, "spectrum-count", cmd_spectrum_count, "low-energy mode count per cluster count", spectrum, eps=0.1)
    sweep = seeded + ("--input", "--q") + s_options + label_options
    eps_sweep = _command(named, "eps-sweep", cmd_eps_sweep, "QTC and spectral ARI across bandwidths", sweep, q=3)
    eps_sweep.add_argument("--eps-grid", required=True, help="comma-separated quantile fractions")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (InputError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
