"""Rules about the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


#: What the command-line front end leaves to ``commands``: the series code
#: and the number types it builds on.
SERIES_MODULES = {"fractions", "decimal", *(f"cobcalc.{name}" for name in (
    "coeffring", "pseries", "report", "localize", "fgl", "intlattice",
    "pontclass", "commands"))}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of the
    # package's import time in an interpreter started without site; the
    # series code waits until argparse has accepted the arguments
    script = "import sys, cobcalc.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", script, "dataclasses",
                           "inspect", *SERIES_MODULES],
                          env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv, code", [("--help", 0), ("verify --law miscenko", 2)])
def test_help_and_usage_errors_load_no_series_code(argv, code):
    # argparse exits on --help and on a missing identity before cli imports
    # commands; -X importtime logs every module the child imports
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "cobcalc",
                           *argv.split()], env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert done.returncode == code
    assert "cobcalc.cli" in imported
    assert sorted(imported & SERIES_MODULES) == []
