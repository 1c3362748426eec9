"""Checks on the package source itself."""

import ast
from pathlib import Path

import rangetri

SOURCE = Path(rangetri.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCE.name == "rangetri" and len(list(SOURCE.glob("*.py"))) > 10
    assert found == []
