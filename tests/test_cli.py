import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtclust.cli import main
from qtclust.io import load_labels_csv, load_matrix_csv, load_points_csv

import qtclust
from qtclust import (
    InputError,
    LaplaceParams,
    PointSet,
    build_graph,
    eigendecompose,
    gap_stats,
    gen_annuli,
    gen_gaussian_clouds,
    gen_sticks,
    gen_tetrahedron,
    jsd_matrix,
    laplace_similarity,
    load_timeseries,
    pipeline,
    select_s,
    transition_kernel,
)
from qtclust.io import save_points_csv

from conftest import laplace_amplitudes, matrix_csv_oracle, spectral_source


@pytest.fixture
def clouds_csv(tmp_path):
    pts = gen_gaussian_clouds([(0.0, 0.0), (0.6, 0.0), (0.3, 0.52)], 0.1, 40, seed=0)
    path = tmp_path / "points.csv"
    save_points_csv(path, pts)
    return path


def test_gen_writes_points(tmp_path):
    out = tmp_path / "gen" / "points.csv"
    code = main(["gen", "--kind", "tetrahedron", "--q", "3", "--n-per", "10", "--out", str(out)])
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "x0,x1,x2,label"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["--kind", "annuli", "--centers", "0,0"], "--centers"),
        (["--kind", "annuli", "--n-per", "5"], "--n-per"),
        (["--kind", "tetrahedron", "--radii", "1", "--n-sticks", "2"], "--n-sticks, --radii"),
        (["--kind", "sticks-uniform", "--sigma", "0.2"], "--sigma"),
        (["--kind", "sticks-nonuniform", "--q", "3"], "--q"),
        (["--kind", "gaussian-clouds", "--centers", "0,0", "--width", "0.1", "--base-count", "5"], "--base-count, --width"),
    ],
)
def test_gen_rejects_options_of_other_kinds(tmp_path, capsys, argv, flags):
    out = tmp_path / "points.csv"
    assert main(["gen", *argv, "--out", str(out)]) == 2
    assert f"does not take {flags}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("sticks-uniform", lambda: gen_sticks(3, 1.0, 0.2, 100, "uniform", 0.01, seed=0)),
        ("sticks-nonuniform", lambda: gen_sticks(3, 1.0, 0.2, 100, "nonuniform", 0.01, seed=0)),
        ("annuli", lambda: gen_annuli([0.4, 0.8, 1.2, 1.6, 2.0], 0.1, [40, 80, 120, 160, 200], seed=0)),
        ("tetrahedron", lambda: gen_tetrahedron(4, 0.1, 100, seed=0)),
    ],
)
def test_gen_defaults_of_each_kind(tmp_path, kind, expected):
    out = tmp_path / "points.csv"
    assert main(["gen", "--kind", kind, "--out", str(out)]) == 0
    save_points_csv(tmp_path / "expected.csv", expected())
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_cluster_end_to_end(tmp_path, clouds_csv):
    out = tmp_path / "run"
    code = main(
        ["cluster", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3", "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "qtclust/1"
    assert report["ari_vs_truth"] == 1.0
    assert sum(report["weights"].values()) == pytest.approx(1.0)
    labels = load_labels_csv(out / "labels.csv")
    assert labels.shape == (120,)
    consensus = load_matrix_csv(out / "consensus.csv")
    assert consensus.shape == (120, 120)
    run_meta = json.loads((out / "run.json").read_text())
    assert run_meta["schema"] == "qtclust/1"
    assert run_meta["derived"]["s"] > 0
    assert len(run_meta["derived"]["init_nodes"]) == 100


def test_cluster_reruns_byte_identical(tmp_path, clouds_csv):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["cluster", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3", "--out", str(out)]) == 0
    assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()
    assert (out_a / "consensus.csv").read_bytes() == (out_b / "consensus.csv").read_bytes()


def test_solve_route_reruns_byte_identical(tmp_path, clouds_csv):
    # cluster with 20 of 120 start nodes, and phases with one start node
    argv = {
        "cluster": ["cluster", "--eps", "0.1", "--q", "3", "--m-prime", "20"],
        "phases": ["phases", "--eps", "0.1", "--q", "3", "--init-node", "7"],
    }
    artifacts = {"cluster": ("labels.csv", "consensus.csv", "report.json"), "phases": ("phases.csv",)}
    for command, args in argv.items():
        runs = [tmp_path / command / run for run in "ab"]
        for out in runs:
            assert main(args + ["--input", str(clouds_csv), "--out", str(out)]) == 0
        for name in artifacts[command]:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_missing_input_exits_2(tmp_path):
    code = main(["cluster", "--input", str(tmp_path / "nope.csv"), "--eps", "0.1", "--q", "2", "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("module", ["qtclust", "qtclust.cli"])
def test_python_m_missing_input_exits_2(tmp_path, module):
    src = str(Path(qtclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = ["cluster", "--input", str(tmp_path / "nope.csv"), "--eps", "0.1", "--q", "2", "--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-m", module, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "nope.csv" in proc.stderr


def test_bad_parameter_exits_2(tmp_path, clouds_csv):
    code = main(["cluster", "--input", str(clouds_csv), "--eps", "1.5", "--q", "3", "--out", str(tmp_path / "o")])
    assert code == 2


def test_disconnected_graph_exits_3(tmp_path):
    pts = gen_gaussian_clouds([(0.0, 0.0), (1000.0, 0.0)], 0.001, 6, seed=0)
    path = tmp_path / "far.csv"
    save_points_csv(path, pts)
    code = main(["cluster", "--input", str(path), "--eps", "0.3", "--q", "2", "--out", str(tmp_path / "o")])
    assert code == 3


def test_eigen_json(tmp_path, clouds_csv):
    out = tmp_path / "eig"
    assert main(["eigen", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert payload["schema"] == "qtclust/1"
    assert payload["low_count"] == 3
    assert len(payload["energies"]) == 120
    assert payload["first_gap"] >= 0


def test_phases_csv(tmp_path, clouds_csv):
    out = tmp_path / "ph"
    assert main(["phases", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3", "--init-node", "0", "--out", str(out)]) == 0
    lines = (out / "phases.csv").read_text().splitlines()
    assert lines[0] == "node_index,phase,amplitude_re,amplitude_im"
    assert len(lines) == 121


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_phases_on_a_few_points_match_the_spectral_sum(tmp_path, capsys, m):
    # one point is no graph; two to five points get the amplitudes of the spectral sum within 1e-13
    path = tmp_path / "points.csv"
    if m == 1:
        path.write_text("x0,x1\n0.1,0.2\n")
    else:
        save_points_csv(path, PointSet(np.random.default_rng(m).normal(size=(m, 2))))
    out = tmp_path / "ph"
    code = main(["phases", "--input", str(path), "--eps", "0.5", "--init-node", "0", "--out", str(out)])
    if m == 1:
        assert code == 2 and "m >= 2" in capsys.readouterr().err
        return
    assert code == 0
    table = np.loadtxt(out / "phases.csv", delimiter=",", skiprows=1, ndmin=2)
    s = json.loads((out / "run.json").read_text())["derived"]["s"]
    eig = eigendecompose(build_graph(qtclust.io.load_points_csv(path), 0.5).hamiltonian)
    summed = laplace_amplitudes(eig, [0], s)[:, 0]
    solved = table[:, 2] + 1j * table[:, 3]
    assert np.abs(solved - summed).max() <= 1e-13 * np.abs(summed).max()


def test_cluster_labels_match_the_spectral_sum(tmp_path, monkeypatch, clouds_csv):
    # 120 points at the default m' = 100: the same labels and consensus bytes as amplitudes summed over the modes
    artifacts = {}
    for route in ("solve", "sum"):
        if route == "sum":
            monkeypatch.setattr(pipeline, "solve_source", lambda h, s: spectral_source(eigendecompose(h), s))
        out = tmp_path / route
        assert main(["cluster", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3", "--out", str(out)]) == 0
        artifacts[route] = [(out / name).read_bytes() for name in ("labels.csv", "consensus.csv")]
    assert artifacts["solve"] == artifacts["sum"]


def test_spectral_cmd(tmp_path, clouds_csv):
    out = tmp_path / "sp"
    assert main(["spectral", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["normalization"] == "approach1"
    assert report["ari_vs_truth"] == 1.0


def test_kernel_cmd(tmp_path, clouds_csv):
    out = tmp_path / "k"
    assert main(["kernel", "--input", str(clouds_csv), "--eps", "0.1", "--kind", "P", "--out", str(out)]) == 0
    p = load_matrix_csv(out / "kernel_P.csv")
    assert p.shape == (120, 120)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9


@pytest.mark.parametrize("kind", ["P", "S", "jsd"])
def test_kernel_csv_matches_per_entry_oracle_of_the_library_matrix(tmp_path, clouds_csv, kind):
    # 120 nodes: the writer's mirror route, in 3 x 3 tiles of 40 x 40 entries
    out = tmp_path / "k"
    assert main(["kernel", "--input", str(clouds_csv), "--eps", "0.1", "--kind", kind, "--out", str(out)]) == 0
    eig = eigendecompose(build_graph(load_points_csv(clouds_csv), 0.1).hamiltonian)
    if kind == "P":
        matrix = transition_kernel(eig)
    elif kind == "S":
        matrix = laplace_similarity(eig, select_s(gap_stats(eig.energies, 2), LaplaceParams()))
    else:
        matrix = jsd_matrix(eig)
    assert (out / f"kernel_{kind}.csv").read_bytes() == matrix_csv_oracle(matrix)


def test_kernel_s_zero_exits_2(tmp_path, clouds_csv, capsys):
    argv = ["kernel", "--input", str(clouds_csv), "--eps", "0.1", "--kind", "S", "--s-rule", "explicit", "--s-mult", "0"]
    assert main(argv + ["--out", str(tmp_path / "k")]) == 2
    assert "multiplier must be a positive finite number" in capsys.readouterr().err


def test_consensus_cmd(tmp_path, clouds_csv):
    out = tmp_path / "c"
    argv = ["cluster", "--summary", "consensus", "--input", str(clouds_csv), "--eps", "0.1", "--q", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["consensus.csv", "report.json", "run.json"]
    c = load_matrix_csv(out / "consensus.csv")
    assert np.array_equal(np.diag(c), np.ones(120))
    assert c.min() >= 0.0 and c.max() <= 1.0
    assert np.abs(c - c.T).max() == 0.0


def test_experiment_spectrum_count(tmp_path):
    out = tmp_path / "exp"
    code = main(["experiment", "spectrum-count", "--n-per", "40", "--out", str(out), "--seed", "0"])
    assert code == 0
    payload = json.loads((out / "spectrum_count.json").read_text())
    counts = {k: v["low_count"] for k, v in payload["counts"].items()}
    assert counts == {"2": 2, "3": 3, "4": 4}


def test_experiment_two_cloud(tmp_path):
    out = tmp_path / "exp2"
    code = main(["experiment", "two-cloud", "--seed", "1", "--n-per", "60", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "two_cloud.json").read_text())
    assert "max_phase_error" in payload
    assert len(payload["empirical_phases"]) == 120
    assert set(payload["born_errors"]) == {"1", "2", "3"}


def test_experiment_outlier_sweep(tmp_path):
    out = tmp_path / "exp3"
    code = main(["experiment", "outlier-sweep", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = (out / "outlier_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha_out,phase_left_mean,phase_right_mean,phase_outlier"
    assert len(lines) == 22


def test_experiment_eps_sweep(tmp_path, clouds_csv):
    out = tmp_path / "exp4"
    code = main(
        [
            "experiment",
            "eps-sweep",
            "--input",
            str(clouds_csv),
            "--q",
            "3",
            "--eps-grid",
            "0.08,0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "eps_sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,ari_qtc,ari_spectral"
    assert len(lines) == 3


def test_non_numeric_points_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n0,0\n1,abc\n")
    code = main(["cluster", "--input", str(path), "--eps", "0.5", "--q", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{path}, line 3" in capsys.readouterr().err


def test_non_integer_label_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for label in ("one", "99999999999999999999999"):  # the second lies outside int64
        path.write_text(f"x0,x1,label\n0,0,0\n1,1,{label}\n")
        code = main(["cluster", "--input", str(path), "--eps", "0.5", "--q", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{path}, line 3" in capsys.readouterr().err


# unreadable inputs: bytes that are not UTF-8, a cell over csv's field size limit, a directory
_UNREADABLE = {
    "non-utf8": (b"x0,x1\n0,0\n1,\xff\n", "is not UTF-8 text"),
    "long-cell": (b"x0,x1\n0,0\n1," + b"1" * 131073 + b"\n", "line 3: field larger than field limit"),
    "directory": (None, "Is a directory"),
}


@pytest.mark.parametrize("case", list(_UNREADABLE))
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, case):
    content, message = _UNREADABLE[case]
    path = tmp_path / "points.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "o"
    assert main(["eigen", "--input", str(path), "--eps", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "loader, header",
    [(load_labels_csv, b"node_index,label\n0,0\n"), (load_matrix_csv, b"0,1\n"), (load_timeseries, b"date,price_a,price_b\n")],
    ids=["labels", "matrix", "timeseries"],
)
def test_loaders_reject_non_utf8_bytes(tmp_path, loader, header):
    path = tmp_path / "in.csv"
    path.write_bytes(header + b"\xff\xfe,1\n")
    with pytest.raises(InputError, match=f"{path.name} is not UTF-8 text"):
        loader(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--input", "POINTS", "--eps", "0.1"],
        ["experiment", "outlier-sweep"],
        ["gen", "--kind", "tetrahedron"],
    ],
)
@pytest.mark.parametrize("target", ["FILE", "FILE/sub"])
def test_out_naming_a_file_exits_2(tmp_path, clouds_csv, capsys, argv, target):
    (tmp_path / "FILE").write_text("keep\n")
    out = tmp_path / target
    argv = [str(clouds_csv) if a == "POINTS" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"cannot create output directory {tmp_path / 'FILE'}" in capsys.readouterr().err
    assert (tmp_path / "FILE").read_text() == "keep\n"


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["gen", "--kind", "tetrahedron", "--out", "OUT/d.csv"], "d.csv"),
        (["eigen", "--input", "POINTS", "--eps", "0.1", "--out", "OUT"], "eigen.json"),
        (["cluster", "--input", "POINTS", "--eps", "0.3", "--q", "3", "--out", "OUT"], "consensus.csv"),
    ],
    ids=["gen", "eigen", "cluster"],
)
def test_directory_at_an_artifact_path_exits_2(tmp_path, clouds_csv, capsys, argv, artifact):
    (tmp_path / "out" / artifact).mkdir(parents=True)
    argv = [str(clouds_csv) if a == "POINTS" else a.replace("OUT", str(tmp_path / "out")) for a in argv]
    assert main(argv) == 2
    assert f"cannot write {tmp_path / 'out' / artifact}: Is a directory" in capsys.readouterr().err


def test_failed_cluster_run_writes_no_report_and_no_run_json(tmp_path, clouds_csv):
    # every command writes run.json last, so its absence marks an unfinished run
    out = tmp_path / "c"
    (out / "consensus.csv").mkdir(parents=True)
    assert main(["cluster", "--input", str(clouds_csv), "--eps", "0.3", "--q", "3", "--out", str(out)]) == 2
    assert not (out / "report.json").exists()
    assert not (out / "run.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, named",
    [
        (["experiment", "two-cloud", "--sigma", "inf"], "sigma=inf"),
        (["experiment", "two-cloud", "--sigma", "1e308"], "sigma=1e+308"),
        (["gen", "--kind", "tetrahedron", "--sigma", "1e308"], "sigma=1e+308"),
        (["gen", "--kind", "sticks-uniform", "--jitter", "inf"], "jitter must be finite, got inf"),
        (["gen", "--kind", "sticks-uniform", "--length", "inf"], "length must be finite, got inf"),
        (["gen", "--kind", "sticks-nonuniform", "--gap", "1e308"], "gap=1e+308"),
        (["gen", "--kind", "annuli", "--radii", "1e308,1.7e308", "--width", "1e307"], "radii=[1e+308, 1.7e+308]"),
        (["gen", "--kind", "annuli", "--radii", "1e-300,1", "--width", "1e-301"], "radii=[1e-300, 1.0]"),
    ],
)
def test_generator_parameters_that_overflow_exit_2_naming_them(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())  # no artifact written


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--eps", "0.5"],
        ["phases", "--eps", "0.5", "--init-node", "0"],
        ["cluster", "--eps", "0.5", "--q", "2"],
        ["spectral", "--eps", "0.5", "--q", "2"],
        ["kernel", "--kind", "P", "--eps", "0.5"],
        ["experiment", "eps-sweep", "--eps-grid", "0.5"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_points_whose_distances_overflow_exit_2_naming_them(tmp_path, capsys, argv):
    path = tmp_path / "far.csv"
    path.write_text("x0,x1,label\n1e200,0,0\n-1e200,0,1\n0,0,0\n")
    assert main(argv + ["--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "points 0 and 1 are too far apart: their squared distance overflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    [
        ["0,1", "2,0"],  # gap in the indices
        ["0,1", "0,0", "1,1"],  # duplicate index
        ["-1,1", "0,0"],  # negative index
        ["0,1", "1,x"],  # non-integer cell
        ["0,1", "1,99999999999999999999999"],  # a label outside int64
    ],
)
def test_load_labels_csv_rejects_bad_indices(tmp_path, rows):
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(["node_index,label", *rows]) + "\n")
    with pytest.raises(InputError):
        load_labels_csv(path)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gen", "--kind", "tetrahedron", "--n-per", "ab"], "--n-per"),
        (["gen", "--kind", "annuli", "--radii", "0.4,0.8", "--counts", "10,x"], "--counts"),
        (["gen", "--kind", "gaussian-clouds", "--centers", "0,x"], "--centers"),
        (["gen", "--kind", "annuli", "--radii", "0.4,r"], "--radii"),
        (["experiment", "spectrum-count", "--n-per", "1.5"], "--n-per"),
        (["experiment", "eps-sweep", "--eps-grid", "0.1,zz"], "--eps-grid"),
        (["gen", "--kind", "gaussian-clouds", "--centers", "0,0;1"], "--centers"),
    ],
)
def test_bad_list_option_exits_2(tmp_path, clouds_csv, capsys, argv, option):
    if "eps-sweep" in argv:
        argv = argv + ["--input", str(clouds_csv)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert option in capsys.readouterr().err


_GRAPH = ["--input", "POINTS", "--eps", "0.1"]
_GRAPH_KEYS = {"command", "eps", "input", "out"}
_ENSEMBLE_KEYS = _GRAPH_KEYS | {"seed", "q", "s_rule", "s_mult", "m_prime", "label_method", "summary"}
_EXPERIMENT_KEYS = {"command", "name", "out", "seed"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["eigen", *_GRAPH], _GRAPH_KEYS | {"q"}),
        (["phases", "--init-node", "0", *_GRAPH], _GRAPH_KEYS | {"init_node", "q", "s_rule", "s_mult"}),
        (["cluster", "--q", "3", "--m-prime", "10", *_GRAPH], _ENSEMBLE_KEYS),
        (["cluster", "--summary", "consensus", "--q", "3", "--m-prime", "10", *_GRAPH], _ENSEMBLE_KEYS),
        (["spectral", "--q", "3", *_GRAPH], _GRAPH_KEYS | {"seed", "q", "normalization"}),
        (["kernel", "--kind", "P", *_GRAPH], _GRAPH_KEYS | {"kind"}),
        (["experiment", "spectrum-count", "--n-per", "10"], _EXPERIMENT_KEYS | {"sigma", "eps", "n_per"}),
        (["experiment", "two-cloud", "--n-per", "30"], _EXPERIMENT_KEYS | {"sigma", "ell_sigma", "n_per", "partition"}),
        (["experiment", "outlier-sweep"], _EXPERIMENT_KEYS | {"sigma", "ell", "eps"}),
        (
            ["experiment", "eps-sweep", "--input", "POINTS", "--eps-grid", "0.1", "--m-prime", "10"],
            _EXPERIMENT_KEYS | {"input", "q", "eps_grid", "s_rule", "s_mult", "m_prime", "label_method"},
        ),
        (["kernel", "--kind", "S", *_GRAPH], _GRAPH_KEYS | {"kind", "s_rule", "s_mult"}),
    ],
)
def test_run_json_config_keys(tmp_path, clouds_csv, argv, keys):
    out = tmp_path / "o"
    argv = [str(clouds_csv) if a == "POINTS" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    assert set(json.loads((out / "run.json").read_text())["config"]) == keys


# options that a command accepted and never read; each is now an argparse error
_REMOVED_OPTIONS = [
    (["eigen", *_GRAPH], ["--seed"]),
    (["phases", "--init-node", "0", *_GRAPH], ["--seed"]),
    (["kernel", "--kind", "S", *_GRAPH], ["--seed", "--s"]),
    (
        ["experiment", "two-cloud"],
        ["--eps", "--input", "--ell", "--q", "--eps-grid", "--s-rule", "--s-mult", "--m-prime", "--label-method"],
    ),
    (
        ["experiment", "outlier-sweep"],
        ["--input", "--ell-sigma", "--n-per", "--partition", "--q", "--eps-grid", "--s-rule", "--s-mult", "--m-prime",
         "--label-method"],
    ),
    (
        ["experiment", "spectrum-count"],
        ["--input", "--ell", "--ell-sigma", "--partition", "--q", "--eps-grid", "--s-rule", "--s-mult", "--m-prime",
         "--label-method"],
    ),
    (
        ["experiment", "eps-sweep", "--input", "POINTS", "--eps-grid", "0.1"],
        ["--eps", "--sigma", "--ell", "--ell-sigma", "--n-per", "--partition"],
    ),
]
_OPTION_VALUES = {"--s-rule": "explicit", "--label-method": "diff", "--partition": "truth", "--input": "POINTS"}


@pytest.mark.parametrize(
    "argv, option",
    [(argv, option) for argv, options in _REMOVED_OPTIONS for option in options],
    ids=[f"{argv[1] if argv[0] == 'experiment' else argv[0]}{o}" for argv, opts in _REMOVED_OPTIONS for o in opts],
)
def test_removed_option_exits_2(tmp_path, capsys, argv, option):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, _OPTION_VALUES.get(option, "1"), "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["phases", "--init-node", "0"], ["cluster", "--q", "3", "--m-prime", "10"]])
def test_explicit_s_reaches_run_json(tmp_path, clouds_csv, argv):
    out = tmp_path / "o"
    flags = ["--input", str(clouds_csv), "--eps", "0.1", "--s-rule", "explicit", "--s-mult", "0.3", "--out", str(out)]
    assert main(argv + flags) == 0
    assert json.loads((out / "run.json").read_text())["derived"]["s"] == 0.3


# values that a command accepted and ignored, or rejected only after the graph was built
@pytest.mark.parametrize(
    "argv, option",
    [
        (["eigen", *_GRAPH, "--q", "0"], "--q"),
        (["phases", "--init-node", "0", "--input", "POINTS", "--eps", "0.3", "--q", "-5"], "--q"),
        (["cluster", *_GRAPH, "--q", "0"], "--q"),
        (["cluster", "--summary", "consensus", *_GRAPH, "--q", "-1"], "--q"),
        (["spectral", *_GRAPH, "--q", "0"], "--q"),
        (["gen", "--kind", "tetrahedron", "--q", "0"], "--q"),
        (["experiment", "eps-sweep", "--input", "POINTS", "--eps-grid", "0.1", "--q", "0"], "--q"),
        (["kernel", "--kind", "P", *_GRAPH, "--s-mult", "0"], "--s-mult"),
        (["kernel", "--kind", "jsd", *_GRAPH, "--s-rule", "first_gap"], "--s-rule"),
        (["kernel", "--kind", "P", *_GRAPH, "--s-rule", "avg_gap", "--s-mult", "1.2"], "--s-rule"),
    ],
)
def test_nonpositive_q_and_s_options_outside_kernel_s_exit_2(tmp_path, clouds_csv, capsys, argv, option):
    out = tmp_path / "o"
    argv = [str(clouds_csv) if a == "POINTS" else a for a in argv] + ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


_BIG = "99999999999999999999999"  # outside int64


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--kind", "sticks-uniform", "--n-per", _BIG], "n_per"),
        (["gen", "--kind", "gaussian-clouds", "--centers", "0,0;1,0", "--n-per", f"3,{_BIG}"], "n_per"),
        (["gen", "--kind", "sticks-nonuniform", "--n-sticks", _BIG], "n_sticks"),
        (["gen", "--kind", "annuli", "--counts", _BIG], "counts"),
        (["gen", "--kind", "annuli", "--radii", "0.4,0.8", "--counts", f"3,{_BIG}"], "counts"),
        (["experiment", "two-cloud", "--n-per", _BIG], "n_per"),
        (["experiment", "spectrum-count", "--n-per", _BIG], "n_per"),
    ],
)
def test_counts_outside_int64_exit_2_naming_them(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{named} must" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


_HUGE = "4611686018427387904"  # 2**62: inside int64, but its points exceed numpy's array size limit


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--kind", "sticks-uniform", "--n-sticks", _HUGE], "n_sticks"),
        (["gen", "--kind", "sticks-uniform", "--n-per", _HUGE], "n_per"),
        (["gen", "--kind", "gaussian-clouds", "--centers", "0,0;1,0", "--n-per", _HUGE], "n_per"),
        (["gen", "--kind", "annuli", "--counts", _HUGE], "counts"),
        (["experiment", "two-cloud", "--n-per", _HUGE], "n_per"),
        (["experiment", "spectrum-count", "--n-per", _HUGE], "n_per"),
    ],
)
def test_counts_beyond_the_array_size_limit_exit_2_naming_them(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{named} must" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


_BEYOND_DESK = "100000000000"  # 1e11: inside numpy's array size limit, but terabytes of points


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--kind", "sticks-uniform", "--n-per", _BEYOND_DESK], "n_per"),
        (["gen", "--kind", "sticks-uniform", "--n-sticks", _BEYOND_DESK], "n_sticks"),
        (["gen", "--kind", "gaussian-clouds", "--centers", "0,0;1,0", "--n-per", _BEYOND_DESK], "n_per"),
        (["gen", "--kind", "annuli", "--radii", "0.4,0.8", "--counts", f"3,{_BEYOND_DESK}"], "counts"),
    ],
)
def test_counts_beyond_desk_scale_exit_2_before_any_allocation(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{named} must" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())



@pytest.fixture
def spread_clouds_csv(tmp_path):
    path = tmp_path / "spread.csv"
    save_points_csv(path, gen_gaussian_clouds([(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)], 0.2, 40, seed=1))
    return path


# m' = 100 of 120 nodes takes the spectral route, m' = 10 the solve route.  Just above the bound
# no weight overflows, but the phases tie, which the diff labeler reports
@pytest.mark.filterwarnings("error::RuntimeWarning", "ignore::qtclust.FragmentationWarning")
@pytest.mark.parametrize("extra", [[], ["--label-method", "diff"], ["--m-prime", "10"]])
def test_subnormal_s_exits_2_naming_s(tmp_path, spread_clouds_csv, capsys, extra):
    out = tmp_path / "c"
    argv = ["cluster", "--input", str(spread_clouds_csv), "--eps", "0.05", "--q", "3", "--s-rule", "explicit"]
    assert main(argv + ["--s-mult", "1e-320", "--out", str(out)] + extra) == 2
    assert "s must be a finite number of at least 2.2250738585072014e-308, got 1e-320" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--s-mult", "2.3e-308", "--out", str(out)] + extra) == 0


@pytest.mark.parametrize("s", ["1e-160", "1e150", "1e200"])
def test_kernel_s_outside_the_float_range_exits_3_naming_s(tmp_path, spread_clouds_csv, capsys, s):
    out = tmp_path / "k"
    argv = ["kernel", "--kind", "S", "--input", str(spread_clouds_csv), "--eps", "0.05", "--s-rule", "explicit"]
    assert main(argv + ["--s-mult", s, "--out", str(out)]) == 3
    assert f"the S kernel leaves the float range at s={float(s)!r}" in capsys.readouterr().err
    assert not (out / "kernel_S.csv").exists()
    assert not (out / "run.json").exists()


def test_kernel_s_at_a_large_in_range_s(tmp_path, spread_clouds_csv):
    out = tmp_path / "k"
    argv = ["kernel", "--kind", "S", "--input", str(spread_clouds_csv), "--eps", "0.05", "--s-rule", "explicit"]
    assert main(argv + ["--s-mult", "1e76", "--out", str(out)]) == 0
    s_matrix = load_matrix_csv(out / "kernel_S.csv")
    assert np.array_equal(np.diag(s_matrix), np.ones(120))
    assert 0.0 <= s_matrix.min() and s_matrix.max() <= 1.0
    assert s_matrix.min() < 1.0


@pytest.mark.parametrize(
    "argv, kernel",
    [
        (["kernel", "--kind", "P"], "transition_kernel"),
        (["kernel", "--kind", "S"], "laplace_similarity"),
        (["kernel", "--kind", "jsd"], "jsd_matrix"),
        (["spectral", "--q", "3"], "spectral_cluster"),
    ],
)
def test_h_is_freed_before_the_kernels_run(monkeypatch, hamiltonian_refs, tmp_path, clouds_csv, argv, kernel):
    h_alive_at_kernel = []
    real = getattr(qtclust.cli, kernel)

    def kernel_spy(*args, **kwargs):
        h_alive_at_kernel.append(hamiltonian_refs[-1]() is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(qtclust.cli, kernel, kernel_spy)
    assert main(argv + ["--input", str(clouds_csv), "--eps", "0.1", "--out", str(tmp_path / "o")]) == 0
    assert h_alive_at_kernel == [False]
