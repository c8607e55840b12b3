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
