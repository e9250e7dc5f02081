"""Rules about the package source itself."""

import ast
from pathlib import Path

import cobcalc

PACKAGE = Path(cobcalc.__file__).resolve().parent


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a correctness check written as
    # one would silently stop running; checks raise explicit errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert not found, found
