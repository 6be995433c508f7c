"""README's command examples and experiment table name exactly the sub-commands of the command line."""

import argparse
import re
from pathlib import Path

from qtclust.cli import _parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_names_every_subcommand_and_no_other():
    text = README.read_text()
    commands = _subcommands(_parser())
    experiments = set(_subcommands(commands["experiment"]))
    # "qtclust <command> [<experiment>] ..." lines of the sh blocks
    shown = [
        line.split()[1:3]
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
        for line in block.splitlines()
        if line.startswith("qtclust ")
    ]
    assert {words[0] for words in shown} == set(commands)
    assert {words[1] for words in shown if words[0] == "experiment"} == experiments
    table = re.search(r"^\| experiment \| options \(default\) \|\n\| --- \| --- \|\n((?:\|.*\n)+)", text, flags=re.M)
    assert set(re.findall(r"^\| `([a-z-]+)` \|", table.group(1), flags=re.M)) == experiments
