"""Self-test of the benchmark harness at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Runs every workload end to end and traced at tiny sizes and checks that
each metric named in BENCHMARK.json is reported with its unit, feeds the
correctness gate corrupted payloads that it must reject, and checks that
the benchmark refuses ``python -O`` and a directory without the sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, check_output

TINY = {"universal_exact": 5, "universal_tables": 6, "integral_in_A": 6,
        "chi_recursion": 6}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics(kind: str, workload: str, metrics: dict, report: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in metrics.items()}
    expect(got == want, f"{workload} prints exactly the {kind} metrics with their units")
    missing = [name for name, unit in want.items()
               if not any(line.startswith(f"{name} ") and f" {unit}" in line
                          for line in report)]
    expect(not missing, f"{workload} report lines name every {kind} metric "
                        f"with its unit" + (f" (missing {missing})" if missing else ""))


def tiny_payload(workload) -> tuple[list[str], dict]:
    argv = workload.argv(0)
    out = subprocess.run([sys.executable, "-m", "cobcalc", *argv], cwd=run.ROOT,
                         env={"PYTHONPATH": "src"}, capture_output=True, text=True)
    return argv, json.loads(out.stdout)


def rejected(workload, argv: list[str], payload: dict) -> bool:
    return check_output(workload, argv, 0, json.dumps(payload)) is not None


def gate_checks(tiny: dict) -> None:
    exact = tiny["universal_exact"]
    argv, payload = tiny_payload(exact)
    expect(not rejected(exact, argv, payload), "gate accepts a correct exact suite")
    flipped = copy.deepcopy(payload)
    flipped["results"][3]["status"] = "fail"
    expect(rejected(exact, argv, flipped), "gate rejects a row flipped to fail")
    short = copy.deepcopy(payload)
    del short["results"][-1]
    expect(rejected(exact, argv, short), "gate rejects a missing row")
    empty = dict(payload, results=[])
    expect(rejected(exact, argv, empty), "gate rejects an empty result list")
    wrong_order = copy.deepcopy(payload)
    wrong_order["results"][0]["order"] -= 1
    expect(rejected(exact, argv, wrong_order), "gate rejects a row at another order")

    tables = tiny["universal_tables"]
    argv, payload = tiny_payload(tables)
    expect(not rejected(tables, argv, payload), "gate accepts a correct beta table")
    altered = copy.deepcopy(payload)
    altered["beta"][2]["value"] = altered["beta"][2]["value"].replace("2*", "3*", 1)
    expect(altered != payload and rejected(tables, argv, altered),
           "gate rejects an altered beta value")
    expect(rejected(tables, argv, dict(payload, beta=[])), "gate rejects an empty beta table")

    chi = tiny["chi_recursion"]
    argv, payload = tiny_payload(chi)
    expect(not rejected(chi, argv, payload), "gate accepts a correct chi recursion")
    expect(rejected(chi, argv, dict(payload, cases=0)), "gate rejects zero cases")
    expect(rejected(chi, argv, dict(payload, cases=payload["cases"] - 1)),
           "gate rejects a wrong case count")
    expect(check_output(chi, argv, 1, json.dumps(payload)) is not None,
           "gate rejects a nonzero exit code")


def refusal_checks() -> None:
    script = str(Path(run.__file__))
    opt = subprocess.run([sys.executable, "-O", script, "--workload", "chi_recursion"],
                         capture_output=True, text=True)
    expect(opt.returncode != 0 and not opt.stdout, "refuses to run under python -O")
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(script).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    lone = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chi_recursion"],
                          cwd=bare, capture_output=True, text=True)
    shutil.rmtree(bare)
    expect(lone.returncode != 0 and not lone.stdout,
           "exits nonzero without a result where no sources are")


def main() -> int:
    os.chdir(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    tiny = {name: dataclasses.replace(w, size=TINY[name]) for name, w in WORKLOADS.items()}
    expect(sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")
    for name, workload in tiny.items():
        metrics, report, attempted, failed, correct = run.end_to_end(workload, 0, 0.5)
        expect(correct and failed == 0 and attempted > 0, f"{name} end to end is correct")
        check_metrics("end_to_end", name, metrics, report)
        metrics, report, attempted, failed, correct = run.per_layer(workload, 0, 0.2)
        problems = [line for line in report if line.startswith("problem")]
        expect(correct and failed == 0,
               f"{name} traced run is correct" + (f" {problems}" if problems else ""))
        check_metrics("per_layer", name, metrics, report)
    gate_checks(tiny)
    refusal_checks()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
