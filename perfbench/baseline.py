"""Run every workload on several seeds and record the results.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json, makes ten end-to-end runs of run.py
of ``run_seconds`` each, one per seed 1..10, and one traced run (seed 1).  For every end-to-end metric,
and for the raw ``wall_s`` and ``help_s`` seconds of the report lines, it
prints the median, the quartiles and their distance as a share of the
median (the spread), next to the metric's bound from BENCHMARK.json.
Writes everything, with the Python version, the CPU count and the git
revision of the sources, to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} is not correct:\n{out.stdout}")
    return result, out.stdout


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_head": git("rev-parse", "HEAD"),
        "git_src_tree": git("rev-parse", "HEAD:src"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runs": RUNS,
        "seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(workload, seed, 0) for seed in range(1, RUNS + 1)]
        summary = {}
        raw = [{"name": name, "unit": "s", "bound": None} for name in ("wall_s", "help_s")]
        for metric in [*SPEC["end_to_end"], *raw]:
            name = metric["name"]
            if metric in raw:
                values = [float(re.search(rf"^  {name} ([0-9.]+) s", text, re.M)[1])
                          for _, text in runs]
            else:
                values = [r["metrics"][name]["value"] for r, _ in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": metric["bound"], "values": values}
            print(f"{workload:17} {name:12} median {median:10.4f} {metric['unit']:5} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.4f} (bound {metric['bound']})",
                  flush=True)
        traced, _ = bench(workload, 1, 1)
        record["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
