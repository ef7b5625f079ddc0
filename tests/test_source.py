"""Rules on the package source that no behaviour test can see.

Validation must not rest on assert statements, which python -O strips:
every check in the package raises an exception of its own.
"""

import ast
from pathlib import Path

import nortonalg


def test_package_has_no_assert_statements():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
