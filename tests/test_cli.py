import json
import re
from pathlib import Path

import pytest

from cobcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_additive_has_no_alpha_entries(capsys):
    code, out, _ = run(capsys, "expand", "--law", "additive", "--order", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"law": "additive", "order": 5, "alpha": []}


def test_expand_multiplicative_single_entry(capsys):
    code, out, _ = run(capsys, "expand", "--law", "mult:1", "--order", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == [{"i": 1, "j": 1, "value": "1"}]


def test_expand_miscenko_renders_cp_polynomials(capsys):
    code, out, _ = run(capsys, "expand", "--law", "miscenko", "--order", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = {(e["i"], e["j"]): e["value"] for e in payload["alpha"]}
    assert entries[(1, 1)] == "-cp1"
    assert entries[(2, 1)] == "-cp2 + cp1^2"


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "expand", "--law", "miscenko", "--order", "5",
                      "--format", "json")
    _, second, _ = run(capsys, "expand", "--law", "miscenko", "--order", "5",
                       "--format", "json")
    assert first == second
    _, text1, _ = run(capsys, "beta", "--law", "mult:1", "--order", "8")
    _, text2, _ = run(capsys, "beta", "--law", "mult:1", "--order", "8")
    assert text1 == text2


def test_beta_multiplicative(capsys):
    code, out, _ = run(capsys, "beta", "--law", "mult:1", "--order", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == [{"i": 1, "j": 1, "value": "1"}]


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "lemma6.1", "--law", "mult:1",
                       "--order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert all(r["status"] == "pass" for r in payload["results"])


def test_verify_in_a_rejects_rational_beta(capsys):
    code, _, err = run(capsys, "verify", "lemma6.2", "--law", "mult:1/2",
                       "--order", "6")
    assert code == 2
    assert "integral" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "lemma9.9", "--law", "additive")
    assert code == 2
    assert "unknown identity suite" in err


def test_bad_law_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "--law", "bogus")
    assert code == 2
    assert "unknown law" in err


def test_chi_grass(capsys):
    code, out, _ = run(capsys, "chi", "grass", "--n", "4", "--k", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["chi"] == 2


def test_chi_grass_out_of_range(capsys):
    code, _, err = run(capsys, "chi", "grass", "--n", "2", "--k", "5")
    assert code == 2


def test_chi_recursion(capsys):
    code, out, _ = run(capsys, "chi", "recursion", "--max", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["failures"] == []
    assert payload["cases"] > 0


def test_chi_simplicial_from_file(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    path.write_text("a b\nb c\nc a\n")
    code, out, _ = run(capsys, "chi", "simplicial", "--file", str(path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 0
    assert payload["chi_subdivided"] == 0
    assert payload["status"] == "pass"


@pytest.mark.parametrize("text, guarded, message", [
    ("a b c d e f g h\n", "_faces",
     "a simplex must have <= 7 vertices, got 8 on line 1"),
    (" ".join(map(str, range(30))) + "\n", "_faces",
     "a simplex must have <= 7 vertices, got 30 on line 1"),
    ("a b c d e f g\nh i j k l m n\n", "SimplicialComplex.barycentric_subdivision",
     "a barycentric subdivision must have <= 100000 simplices, got 189170"),
    ("".join(f"v{i}\n" for i in range(100_001)),
     "SimplicialComplex.subdivision_size",
     "a barycentric subdivision must have <= 100000 simplices, "
     "got more than 100000 faces to subdivide"),
])
def test_chi_simplicial_over_a_cap_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    text, guarded, message):
    # refused before the work the cap bounds: face closure, or the subdivision
    def no_work(*_):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(f"cobcalc.localize.{guarded}", no_work)
    path = tmp_path / "complex.txt"
    path.write_text(text)
    code, out, err = run(capsys, "chi", "simplicial", "--file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_chi_simplicial_at_the_caps_runs(tmp_path, capsys):
    # one simplex at the vertex cap plus isolated vertices up to the
    # subdivision cap: 94,585 + 5,415 = 100,000 chains
    path = tmp_path / "complex.txt"
    path.write_text("a b c d e f g\n" + "".join(f"v{i}\n" for i in range(5_415)))
    code, out, _ = run(capsys, "chi", "simplicial", "--file", str(path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"]["0"] == 7 + 5_415
    assert payload["chi"] == payload["chi_subdivided"] == 1 + 5_415
    assert payload["status"] == "pass"


def test_index_klein_text_summary(capsys):
    code, out, _ = run(capsys, "index", "klein")
    assert code == 0
    assert "1 + (-1 + u) = u; epsilon = 0 = chi(Klein bottle) = 0" in out
    assert "status: pass" in out


def test_index_rp2(capsys):
    code, out, _ = run(capsys, "index", "rp2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert "= 1 = chi(RP^2)" in payload["summary"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "expand", "--law", "mult:1", "--order", "4",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["law"] == "mult:1"


@pytest.mark.parametrize("argv", [
    ("chi", "simplicial", "--file", "{tmp}"),
    ("chi", "simplicial", "--file", "{tmp}/missing.txt"),
    ("expand", "--law", "mult:1", "--order", "4", "--out", "{tmp}"),
    ("expand", "--law", "mult:1", "--order", "4", "--out", "{tmp}/missing/x.txt"),
])
def test_unreadable_file_or_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_failure_reports_on_stderr(capsys, monkeypatch):
    # corrupt the law the CLI builds to check the exit-code contract
    from cobcalc import pontclass
    from oracles import mutate_alpha

    real_parse = pontclass.parse_law

    def corrupted(spec, order):
        return mutate_alpha(real_parse(spec, order), 1, 1, 1)

    monkeypatch.setattr(pontclass, "parse_law", corrupted)
    code, out, err = run(capsys, "verify", "axioms", "--law", "miscenko",
                         "--order", "6", "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    assert "first failure" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "all", "--law", "mult:1", "--order", "0"),
     "verify: --order must be >= 1, got 0"),
    (("verify", "exact", "--order", "-3"), "verify: --order must be >= 1, got -3"),
    (("expand", "--law", "miscenko", "--order", "0"),
     "expand: --order must be >= 1, got 0"),
    (("beta", "--law", "miscenko", "--order", "1"),
     "beta: --order must be >= 2, got 1"),
    (("beta", "--law", "mult:2", "--order", "0"), "beta: --order must be >= 2, got 0"),
    (("chi", "recursion", "--max", "1"), "chi recursion: --max must be >= 2, got 1"),
    (("chi", "recursion", "--max", "-5"), "chi recursion: --max must be >= 2, got -5"),
])
def test_sizes_below_the_minimum_are_usage_errors(capsys, monkeypatch, argv, message):
    # refused before any work: no vacuous pass, no cryptic size error
    from cobcalc import commands, localize, pontclass

    def no_work(*_):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(commands, "parse_law", no_work)
    monkeypatch.setattr(pontclass, "verify_identity_suite", no_work)
    monkeypatch.setattr(localize, "localization_recursion_report", no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("expand", "--law", "mult:1", "--order", "25"),
     "expand: --order must be <= 24, got 25"),
    (("beta", "--law", "miscenko", "--order", "40"),
     "beta: --order must be <= 24, got 40"),
    (("verify", "all", "--law", "mult:1", "--order", "25"),
     "verify: --order must be <= 24, got 25"),
    (("verify", "exact", "--order", "1000000"),
     "verify: --order must be <= 24, got 1000000"),
    (("chi", "recursion", "--max", "21"), "chi recursion: --max must be <= 20, got 21"),
    (("chi", "grass", "--n", "44", "--k", "22"), "chi grass: --n must be <= 24, got 44"),
    (("chi", "grass", "--n", "25", "--k", "30"), "chi grass: --n must be <= 24, got 25"),
])
def test_sizes_above_the_cap_are_usage_errors(capsys, monkeypatch, argv, message):
    # refused before any work, so no invocation runs unbounded
    from cobcalc import commands, localize, pontclass

    def no_work(*_):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(commands, "parse_law", no_work)
    monkeypatch.setattr(pontclass, "verify_identity_suite", no_work)
    monkeypatch.setattr(localize, "localization_recursion_report", no_work)
    monkeypatch.setattr(localize, "chi_grassmann", no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sizes_at_the_cap_run(capsys, monkeypatch):
    from cobcalc import cli, localize

    assert (cli.MAX_ORDER, cli.MAX_RECURSION, cli.MAX_GRASS_N) == (24, 20, 24)
    assert run(capsys, "verify", "axioms", "--law", "additive", "--order", "24")[0] == 0
    assert run(capsys, "expand", "--law", "additive", "--order", "24")[0] == 0
    code, out, _ = run(capsys, "chi", "grass", "--n", "24", "--k", "0",
                       "--format", "json")
    assert (code, json.loads(out)["chi"]) == (0, 1)
    monkeypatch.setattr(localize, "localization_recursion_report", lambda _: [])
    assert run(capsys, "chi", "recursion", "--max", "20")[0] == 0


def test_readme_states_every_limit():
    from cobcalc import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for command, (flag, least, most) in cli.LIMITS.items():
        assert f"`{flag} <= {most}`" in readme, command
        if least is not None:
            assert f"`{flag} >= {least}`" in readme, command


def test_multiplicative_law_below_order_two_is_a_usage_error(capsys):
    code, out, err = run(capsys, "expand", "--law", "mult:1", "--order", "1")
    assert (code, out) == (2, "")
    assert err == ("error: multiplicative law needs order >= 2 for its "
                   "degree-2 term beta*u*v, got 1\n")


@pytest.mark.parametrize("argv", [
    ("expand", "--law", "mult:1e5000", "--order", "3"),
    ("beta", "--law", "mult:1e101", "--order", "4"),
    ("verify", "all", "--law", "multiplicative:-1e-101", "--order", "2"),
])
def test_oversized_beta_is_a_usage_error(capsys, monkeypatch, argv):
    # refused from its text: no giant integer is built, no cryptic message
    from cobcalc import fgl

    def no_work(*_):
        raise AssertionError("Fraction built before the size check")

    monkeypatch.setattr(fgl, "Fraction", no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: mult:BETA must have at most 101 digits, an exponent "
                   "counting as that many zeros\n")


def test_beta_at_the_digit_cap_runs(capsys):
    code, out, _ = run(capsys, "expand", "--law", "mult:1e100", "--order", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["alpha"] == [{"i": 1, "j": 1, "value": str(10 ** 100)}]
    code, out, _ = run(capsys, "beta", "--law", "mult:1e100", "--order", "24")
    assert code == 0
    assert max(len(run_) for run_ in re.findall(r"\d+", out)) == 101


def test_smallest_accepted_sizes_run(capsys):
    assert run(capsys, "verify", "axioms", "--law", "mult:1", "--order", "1")[0] == 0
    assert run(capsys, "expand", "--law", "additive", "--order", "1")[0] == 0
    assert run(capsys, "beta", "--law", "mult:1", "--order", "2")[0] == 0
    code, out, _ = run(capsys, "chi", "recursion", "--max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["cases"] > 0
