"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import numpy as np

from psidolab import Grid, random_band_limited
from psidolab.cli import _COMMANDS, main
from psidolab.fileio import write_pslb

README = Path(__file__).resolve().parent.parent / "README.md"


def command_block() -> list:
    """(argv, expected output lines) of each psido-lab line of the first
    sh block after "## Command line", continuation lines joined; the
    expected lines are the "# " comments right after a command."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("psido-lab "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# ") and commands:
            commands[-1][1].append(line[2:])
    return commands


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_pslb("f.bin", random_band_limited(Grid(1, 64, 8.0),
                                            np.random.default_rng(0)))
    commands = command_block()
    assert len(commands) == 9
    expected = {argv[0]: lines for argv, lines in commands}
    assert expected["budget"] == ["N=10 N'=20 M=0 M'=4"]
    for argv, lines in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        assert all(line in printed for line in lines), argv


def test_flag_table_lists_every_experiments_own_flags():
    # the README's table of each experiment's own flags is the parser's:
    # no flag is missing from it, and no flag stays in it once removed
    text = README.read_text().split("| experiment | its own flags |\n", 1)[1]
    rows = text.split("\n\n", 1)[0].splitlines()[1:]
    table = {}
    for row in rows:
        name, flags = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        table[name] = flags.split()
    assert table == {name: flags.split() for name, (_run, flags) in _COMMANDS.items()}
