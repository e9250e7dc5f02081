"""Rules about the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import cobcalc

PACKAGE = Path(cobcalc.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"


def _find(directory: Path, matches) -> list[str]:
    """``file:line`` of every AST node in the directory's modules that matches."""
    found = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if matches(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def _assert_statements(directory: Path) -> list[str]:
    return _find(directory, lambda node: isinstance(node, ast.Assert))


MAIN_GUARD = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a correctness check written as
    # one would silently stop running; checks raise explicit errors instead
    found = _assert_statements(PACKAGE)
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert not found, found


def test_no_assert_statement_in_the_scripts():
    # the fixture generator checks each surface before writing it, and
    # verify_all.py is the end-to-end check: neither may lose a check to -O
    found = _assert_statements(SCRIPTS)
    assert {"make_fixtures.py", "verify_all.py"} <= {p.name for p in SCRIPTS.glob("*.py")}
    assert not found, found


def test_only_the_module_entry_has_a_main_guard():
    # python -m cobcalc and the console script both run __main__.run, which
    # freezes the start-up heap; a guard in another module would be a second
    # process entry without the freezes
    found = _find(PACKAGE, lambda node: isinstance(node, ast.If)
                  and ast.dump(node.test) == MAIN_GUARD)
    assert [place.split(":")[0] for place in found] == ["__main__.py"]


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


#: Standard-library modules that no benchmarked command runs: annotations
#: come from ``collections.abc``, the bundled data is read only by ``index``
#: and a path is built only for ``--out`` and ``chi simplicial``.
UNUSED_AT_START = {"typing", "importlib.resources", "pathlib"}


def _imported(*argv: str) -> tuple[int, set[str]]:
    """Exit code and imported modules of ``python -S -m cobcalc argv``.

    ``-S`` skips ``site``, whose ``.pth`` hooks may import any of these
    modules first and so hide them; ``-X importtime`` logs every import."""
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "cobcalc",
                           *argv], env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120)
    return done.returncode, {line.rsplit("|", 1)[-1].strip()
                             for line in done.stderr.splitlines()
                             if line.startswith("import time:")}


@pytest.mark.parametrize("argv, code", [("--help", 0), ("verify --law miscenko", 2)])
def test_help_and_usage_errors_load_no_series_code(argv, code):
    # argparse exits on --help and on a missing identity before cli imports
    # commands, and cli builds no path while parsing
    returncode, imported = _imported(*argv.split())
    assert returncode == code
    assert "cobcalc.cli" in imported
    assert sorted(imported & (SERIES_MODULES | {"pathlib"})) == []


def test_localize_loads_no_series_code():
    # report and localize are the base layer: the index and chi checks
    # need no series, no number types and none of the unused modules
    script = "import sys, cobcalc.localize; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    loaded = set(done.stdout.split())
    assert done.stderr == ""
    assert sorted(name for name in loaded if name.startswith("cobcalc")) == [
        "cobcalc", "cobcalc.localize", "cobcalc.report"]
    assert sorted(loaded & ({"fractions", "decimal"} | UNUSED_AT_START)) == []


@pytest.mark.parametrize("argv", [
    "verify exact --law miscenko --order 9", "beta --law miscenko --order 12",
    "verify all --law mult:1 --order 20", "chi recursion --max 17"])
def test_benchmark_invocations_load_no_unused_module(argv):
    returncode, imported = _imported(*argv.split(), "--format", "json")
    assert returncode == 0
    assert "cobcalc.pontclass" in imported
    assert sorted(imported & UNUSED_AT_START) == []


def test_every_source_file_parses_as_python_3_10():
    # pyproject declares requires-python >= 3.10 and CI lists 3.10, so no
    # file may use later grammar (except* groups, PEP 695 type parameters)
    root = PACKAGE.parent.parent
    paths = sorted(path for directory in ("src", "tests", "scripts", "perfbench")
                   for path in (root / directory).rglob("*.py"))
    assert len(paths) >= 34
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
