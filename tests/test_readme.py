"""The README's quick tour, run command by command through the CLI.

Each ``$ iotdraw ...`` command of the tour runs through ``cli.main`` from
the repository root.  The output lines the README shows must be the ones
the command prints: all of them, or the first N under ``| head -N``.  A
``...`` line stands for any lines left out, so the shown lines then need
only appear in order.
"""

import re
import shlex
from pathlib import Path

import pytest

from iotdraw.cli import main

ROOT = Path(__file__).resolve().parents[1]


def tour_examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each command of the quick tour."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", tour, re.S):
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ "):
                command = line[2:]
                while command.endswith("\\"):
                    command = command[:-1] + next(lines).strip()
                examples.append((command, []))
            elif line:
                examples[-1][1].append(line)
    return examples


EXAMPLES = tour_examples()


def test_the_tour_has_its_six_examples():
    assert len(EXAMPLES) == 6
    assert all(command.startswith("iotdraw ") and shown for command, shown in EXAMPLES)


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[f"{n}-{command.split()[1]}" for n, (command, _) in enumerate(EXAMPLES)])
def test_tour_output_is_what_the_readme_shows(command, shown, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("IOTDRAW_SEED", raising=False)
    argv = shlex.split(command)[1:]
    head = None
    if "|" in argv:
        pipe = argv.index("|")
        assert argv[pipe + 1] == "head", command
        head = int(argv[pipe + 2].lstrip("-"))
        argv = argv[:pipe]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()[:head]
    if "..." in shown:
        remaining = iter(printed)
        assert all(line in remaining for line in shown if line != "..."), printed
    else:
        assert printed == shown
