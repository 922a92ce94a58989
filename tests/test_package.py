"""Packaging rules: the run-time code needs nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import iotdraw


def test_every_import_is_stdlib_or_iotdraw():
    package = Path(iotdraw.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"iotdraw"}
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside iotdraw
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
