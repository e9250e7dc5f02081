"""Rules about the package source itself."""

import ast
import subprocess
import sys
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of the
    # package's import time in an interpreter started without site
    script = ("import sys, cobcalc.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert done.stdout == "[]\n"
