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


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__.py imports names to re-export them.
    package = Path(iotdraw.__file__).resolve().parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:  # ``import a.b`` binds ``a``
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
