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


#: The slot of ``TruncatedSeries`` that holds a series' table of powers.
POWER_TABLE = "_powers"


def test_only_pseries_names_the_table_of_powers():
    # which series pass the table on and how composition reads it are
    # pseries' rules alone; a law starts its f's table with a pseries call
    found = _find(PACKAGE, lambda node: POWER_TABLE in (
        getattr(node, field, None) for field in ("attr", "id", "arg", "value")))
    assert found
    assert {place.split(":")[0] for place in found} == {"pseries.py"}


#: What the command-line front end leaves to ``commands``: the series code
#: and the number types it builds on.
SERIES_MODULES = {"fractions", "decimal", *(f"cobcalc.{name}" for name in (
    "coeffring", "pseries", "report", "localize", "fgl", "intlattice",
    "pontclass", "commands"))}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of the
    # package's import time in an interpreter started without site; the
    # series code waits until the arguments are accepted, and argparse until
    # the reader declines them
    script = "import sys, cobcalc.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", script, "dataclasses",
                           "inspect", *SERIES_MODULES, *ARGPARSE_MODULES],
                          env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert done.stdout == "[]\n"


#: argparse and what its messages load: ``gettext``, which imports ``locale``.
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


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
    # commands, and cli builds no path while parsing; these are the paths
    # that load argparse, so the pin below is not vacuous
    returncode, imported = _imported(*argv.split())
    assert returncode == code
    assert "cobcalc.cli" in imported
    assert sorted(imported & ARGPARSE_MODULES) == sorted(ARGPARSE_MODULES)
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
    *(f"verify all --law mult:{beta} --order 20" for beta in (1, -1, 2, -2, 3)),
    "chi recursion --max 17"])
def test_benchmark_invocations_load_no_unused_module(argv):
    # cli.parse reads these itself, so argparse loads only for what its
    # reader declines
    returncode, imported = _imported(*argv.split(), "--format", "json")
    assert returncode == 0
    assert "cobcalc.pontclass" in imported
    assert sorted(imported & (UNUSED_AT_START | ARGPARSE_MODULES)) == []


#: The number types a Fraction brings: ``fractions`` imports ``decimal``,
#: which imports ``numbers``.
FRACTION_MODULES = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("argv", [
    "verify exact --law miscenko --order 9", "beta --law miscenko --order 12",
    "chi recursion --max 17", "verify all --law additive --order 8", "index klein",
    "verify all --law mult:1 --order 20", "verify all --law mult:-2 --order 20",
    "verify all --law mult:3 --order 20"])
def test_fraction_free_paths_load_no_number_types(argv):
    # the universal, additive and integral multiplicative laws, the chi and
    # index checks build no Fraction, so nothing imports fractions, decimal
    # or numbers
    returncode, imported = _imported(*argv.split(), "--format", "json")
    assert returncode == 0
    assert "cobcalc.commands" in imported
    assert sorted(imported & FRACTION_MODULES) == []


def test_a_multiplicative_law_loads_the_number_types():
    # a BETA that is not an integer is parsed as a Fraction: the pin above
    # is not vacuous, -X importtime does report these modules when they load
    returncode, imported = _imported("verify", "exact", "--law", "mult:1/2", "--order", "6",
                                     "--format", "json")
    assert returncode == 0
    assert sorted(imported & FRACTION_MODULES) == sorted(FRACTION_MODULES)


def _fractions_importers(tree: ast.Module) -> set[str]:
    """The name of the function around each import of ``fractions``, or ""
    for one at module level (in a class or a conditional too)."""
    found = set()
    stack = [("", node) for node in tree.body]
    while stack:
        owner, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "fractions" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "fractions"):
            found.add(owner)
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))
    return found


def test_fractions_is_imported_only_inside_the_functions_that_build_one():
    # a module-level import would load fractions on every path again; only
    # the readers that return a Fraction and the law selector, for a BETA
    # that is not an integer, import it, when they are called
    importers = {path.stem: _fractions_importers(ast.parse(path.read_text(), str(path)))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: owners for name, owners in importers.items() if owners} == {
        "coeffring": {"coefficient", "terms", "specialize"},
        "fgl": {"parse_law"},
    }


def test_every_source_file_parses_as_python_3_10():
    # pyproject declares requires-python >= 3.10 and CI lists 3.10, so no
    # file may use later grammar (except* groups, PEP 695 type parameters)
    root = PACKAGE.parent.parent
    paths = sorted(path for directory in ("src", "tests", "scripts", "perfbench")
                   for path in (root / directory).rglob("*.py"))
    assert len(paths) >= 34
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
