"""Checks on the package source itself."""

import ast
from pathlib import Path

import foundry

PACKAGE = Path(foundry.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """Invariant checks raise explicitly, so they survive python -O."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
