"""CLI fuzzing: argv drawn from each command's options, with malformed values, exits only 0, 2 or 3.

Every option a command declares is drawn as absent, a working value or a
malformed one (non-numeric, nan, inf, 0, negative, outside int64, ragged lists), together
with the options the command does not declare.  argparse's ``SystemExit(2)``
counts as exit code 2; any other exception fails the test.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qtclust import gen_gaussian_clouds
from qtclust.cli import main
from qtclust.io import save_points_csv

MALFORMED = ["abc", "nan", "inf", "-inf", "0", "-1", "1e400", ",", "1,", "0,x", "0,0;1", "0.4,nan", "99999999999999999999999"]
NUMBER = ["0.05", "0.1", "0.3", "1", "2"]
COUNT = ["3", "5", "4,5"]
GRAPH = {"--input": ["POINTS", "missing.csv"], "--eps": NUMBER}
S_OPTIONS = {"--s-rule": ["first_gap", "avg_gap", "explicit"], "--s-mult": NUMBER}
LABEL_OPTIONS = {"--m-prime": ["1", "5", "18", "100"], "--label-method": ["circle", "diff"]}
ENSEMBLE = {**GRAPH, "--seed": ["0", "7"], "--q": ["1", "2", "3", "40"], **S_OPTIONS, **LABEL_OPTIONS}

# working values of each command's options; a command's own option list is what it declares
COMMANDS = {
    "gen": {
        "--kind": ["gaussian-clouds", "sticks-uniform", "sticks-nonuniform", "annuli", "tetrahedron"],
        "--seed": ["0", "3"],
        "--sigma": NUMBER,
        "--n-per": COUNT,
        "--q": ["2", "3", "4", "5"],
        "--centers": ["0,0;1,0", "0;1;2", "0,0,0"],
        "--n-sticks": ["2", "3"],
        "--length": NUMBER,
        "--gap": NUMBER,
        "--jitter": NUMBER,
        "--radii": ["0.4,0.8", "1", "0.4,0.8,1.2"],
        "--width": NUMBER,
        "--counts": ["4,5", "6"],
        "--base-count": ["3", "5"],
    },
    "eigen": {**GRAPH, "--q": ["2", "3", "40"]},
    "phases": {**GRAPH, "--q": ["2", "3"], "--init-node": ["0", "17", "18"], **S_OPTIONS},
    "cluster": {**ENSEMBLE, "--summary": ["majority", "consensus", "both"]},
    "cluster --summary consensus": ENSEMBLE,
    "spectral": {**GRAPH, "--seed": ["0"], "--q": ["1", "3", "40"], "--normalization": ["none", "approach1", "approach2"]},
    "kernel": {**GRAPH, "--kind": ["P", "S", "jsd"], **S_OPTIONS},
    "experiment two-cloud": {
        "--seed": ["0", "1"],
        "--sigma": ["0.1", "0.2"],
        "--ell-sigma": ["3", "0.5"],
        "--n-per": COUNT,
        "--partition": ["truth", "qtc"],
    },
    "experiment outlier-sweep": {"--seed": ["0"], "--sigma": ["0.1", "0.2"], "--ell": ["0.4", "0.05"], "--eps": NUMBER},
    "experiment spectrum-count": {"--seed": ["0"], "--sigma": ["0.1", "0.3"], "--eps": NUMBER, "--n-per": COUNT},
    "experiment eps-sweep": {
        "--seed": ["0"],
        "--input": ["POINTS", "missing.csv"],
        "--q": ["2", "3"],
        "--eps-grid": ["0.1", "0.05,0.3"],
        **S_OPTIONS,
        **LABEL_OPTIONS,
    },
}
ALL_OPTIONS = sorted({flag for options in COMMANDS.values() for flag in options} | {"--s", "--ell"})
# options whose default would make an example slow are always drawn, as a small or malformed value
ALWAYS = {("experiment two-cloud", "--n-per"), ("experiment spectrum-count", "--n-per")}


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "points.csv"
    save_points_csv(path, gen_gaussian_clouds([(0.0, 0.0), (0.6, 0.0), (0.3, 0.5)], 0.1, 6, seed=0))
    return path


@st.composite
def argvs(draw, command):
    declared = COMMANDS[command]
    argv = command.split()
    for flag, working in declared.items():
        values = st.sampled_from(working + MALFORMED)
        value = draw(values if (command, flag) in ALWAYS else st.none() | values)
        if value is not None:
            argv += [flag, value]
    undeclared = [flag for flag in ALL_OPTIONS if flag not in declared]
    for flag in draw(st.lists(st.sampled_from(undeclared), max_size=1)):
        argv += [flag, draw(st.sampled_from(NUMBER + MALFORMED))]
    return argv


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_exits_0_2_or_3(command, points_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")

    @settings(max_examples=30, deadline=None)
    @given(argvs(command))
    def check(argv):
        argv = [str(points_csv) if a == "POINTS" else a for a in argv]
        target = out / "points.csv" if command == "gen" else out
        assert _exit_code(argv + ["--out", str(target)]) in (0, 2, 3), argv

    check()
