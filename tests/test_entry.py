"""The process entry: ``python -m cobcalc`` in a child process gives the
same stdout, stderr, exit code and ``--out`` bytes as ``cli.main`` in
process, and only the entry freezes the start-up heap out of garbage
collection."""

import gc
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cobcalc
from cobcalc import __main__ as entry
from cobcalc.cli import main

ROOT = Path(cobcalc.__file__).resolve().parents[2]
# argparse wraps --help to the terminal width; COLUMNS fixes it on both sides
ENV = {"PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}


def child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=120)


def in_process(capsys, monkeypatch, argv: list[str]) -> tuple[int, str, str]:
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse exits on --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    ("--help", 0),
    ("verify exact --order 25", 2),
    ("verify exact --law miscenko --order 3", 0),
    ("verify exact --law miscenko --order 3 --format json", 0),
    ("chi recursion --max 5", 0),
    ("chi recursion --max 5 --format json", 0),
    ("index klein", 0),
])
def test_module_entry_matches_cli_main(capsys, monkeypatch, argv, code):
    done = child("-m", "cobcalc", *argv.split())
    assert (done.returncode, done.stdout, done.stderr) == in_process(
        capsys, monkeypatch, argv.split())
    assert done.returncode == code
    if code == 2:
        # a usage error is one line on stderr and nothing on stdout
        assert done.stdout == "" and done.stderr.count("\n") == 1


def test_module_entry_writes_the_out_file_of_cli_main(tmp_path, capsys, monkeypatch):
    argv = "verify exact --law miscenko --order 3 --format json --out".split()
    done = child("-m", "cobcalc", *argv, str(tmp_path / "child.json"))
    expected = in_process(capsys, monkeypatch, [*argv, str(tmp_path / "main.json")])
    assert (done.returncode, done.stdout, done.stderr) == expected == (0, "", "")
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()


@pytest.mark.parametrize("argv", [
    "verify all --law mult:1 --order 8 --format json",
    "chi simplicial --file src/cobcalc/data/klein_bottle.txt --out",
    "index rp2"])
def test_module_entry_needs_no_site(tmp_path, argv):
    # the package has no runtime dependency: without site (and so without
    # any installed package or .pth hook) a run gives the same bytes
    runs = []
    for flags in ((), ("-S",)):
        out = tmp_path / f"out{len(runs)}.txt"
        words = [*argv.split(), str(out)] if argv.endswith("--out") else argv.split()
        done = subprocess.run([sys.executable, *flags, "-m", "cobcalc", *words],
                              env={"PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        runs.append((done.returncode, done.stdout, done.stderr,
                     out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    code, stdout, stderr, written = runs[0]
    assert (code, stderr) == (0, "")
    assert (written is not None) == argv.endswith("--out") == (stdout == "")


def test_cli_main_in_process_freezes_nothing(capsys):
    # tests and tracers call cli.main in their own process; a freeze there
    # would keep their heap out of garbage collection for good
    before = gc.get_freeze_count()
    assert main(["chi", "recursion", "--max", "5"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_module_entry_freezes_before_main_and_keeps_atexit():
    # the entry freezes before parsing, so --help exits cheaply, and again
    # once the series code is imported, before the command runs
    script = textwrap.dedent("""\
        import atexit, gc, runpy, sys
        from cobcalc import cli

        parse = cli.parse

        def state():
            return gc.get_freeze_count(), "cobcalc.pontclass" in sys.modules

        def parsing():
            global at_parse
            at_parse = state()
            return parse(["chi", "recursion", "--max", "3"])

        def executing(args):
            (parsed, loaded), (command, ready) = at_parse, state()
            print("frozen before parsing:", parsed > 0, "series loaded:", loaded)
            print("frozen more before the command:", command > parsed,
                  "series loaded:", ready, "args:", args.command, args.max)
            return 3

        cli.parse, cli.execute = parsing, executing
        atexit.register(print, "atexit ran")
        runpy.run_module("cobcalc", run_name="__main__")
        """)
    done = child("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (3, (
        "frozen before parsing: True series loaded: False\n"
        "frozen more before the command: True series loaded: True args: chi 3\n"
        "atexit ran\n"), "")


def test_console_script_is_the_module_entry():
    text = (ROOT / "pyproject.toml").read_text()
    module, name = re.search(r'^cobcalc = "(.+):(.+)"$', text, re.M).groups()
    assert (module, name) == (entry.__name__, entry.run.__name__)
