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


def test_every_private_top_level_name_is_used():
    # A module's own definitions whose names start with one underscore serve
    # the package alone, so each must be read somewhere in it.
    package = Path(iotdraw.__file__).resolve().parent
    defined, loaded = [], set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            defined += [(f"{path.name}:{node.lineno}", name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert [f"{at}: {name}" for at, name in defined if name not in loaded] == []


def test_no_class_has_methods_generated_from_source_text():
    # A method compiled from a string at import (as dataclasses and other code
    # generators make them) costs start-up on every command; the package's
    # classes define theirs in their modules.
    import iotdraw.cli  # noqa: F401  (loads every module a command can reach)
    generated = []
    for name, module in sorted(sys.modules.items()):
        if name != "iotdraw" and not name.startswith("iotdraw."):
            continue
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == name:
                methods = [attr for attr, value in vars(cls).items()
                           if getattr(getattr(value, "__code__", None), "co_filename", "")
                           == "<string>"]
                if methods:
                    generated.append(f"{name}.{cls.__qualname__}: {', '.join(methods)}")
    assert generated == []
