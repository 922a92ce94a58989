"""The README's quick tour, run command by command through the CLI, and its
Python API examples, run as written.

Each ``$ iotdraw ...`` command of the tour runs through ``cli.main`` from
the repository root.  The output lines the README shows must be the ones
the command prints: all of them, or the first N under ``| head -N``.  A
``...`` line stands for any lines left out, so the shown lines then need
only appear in order.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from iotdraw import load_model, run_simulation
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


def api_examples() -> list[str]:
    """The code of each python block of the Python API section, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_the_python_api_examples_run_as_written(tmp_path, monkeypatch, capsys):
    # In one namespace, as a reader pasting them in turn would, from a directory that
    # holds the shipped models and nothing the examples write.
    shutil.copytree(ROOT / "models", tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    blocks = api_examples()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    lifetimes, assignment = capsys.readouterr().out.splitlines()
    assert namespace["report"].halted_by == "water_sensor_1"
    assert lifetimes == repr(namespace["report"].lifetimes)
    assert namespace["report"].lifetimes["water_sensor_1"] is not None
    assert assignment == repr(dict(namespace["best"].assignment))
    collected = run_simulation(load_model(str(tmp_path / "models" / "freshness_demo.iot")))
    assert (tmp_path / "events.csv").read_text(encoding="utf-8") == collected.events_csv()
