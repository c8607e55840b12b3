import ast
from pathlib import Path

import sd40

SRC = Path(sd40.__file__).parent


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_invariant_vanishes_under_optimize():
    # `python -O` strips assert statements, and AssertionError reads as a
    # failed test rather than a broken invariant: checks in the package
    # raise ValueError or InternalInvariantError.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.rglob("*.py"))) >= 8
    assert not found, found


def _unused_imports(path):
    """Names bound by module-level imports that the module never reads,
    except `__future__` features and names on a `# noqa: F401` line."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_unused_module_imports():
    # The package re-exports its API from __init__.py; every other module
    # imports only what it uses.
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = [name for path in modules for name in _unused_imports(path)]
    assert not unused, unused


def test_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from dataclasses import dataclass, field\n"
                      "from itertools import chain  # noqa: F401\n"
                      "\n"
                      "@dataclass\n"
                      "class A:\n"
                      "    x: int = os.sep\n")
    assert _unused_imports(module) == ["m.py:3 field"]
