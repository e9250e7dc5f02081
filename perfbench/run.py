"""cobcalc benchmark: one workload per run, as users run the CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Run from the root of a source checkout (the one holding ``src/cobcalc``).

``--trace 0`` (end to end): each invocation is a ``python -m cobcalc ...
--format json`` child with the environment ``PYTHONPATH=src`` and nothing
else, one child at a time.  One untimed ``--help`` and one untimed
workload invocation come first, so ``.pyc`` compilation is not timed.
Then the fixed ``reference.py`` computation, ``--help`` and the workload
take turns until ``--seconds`` would be exceeded.  Wall time runs from
spawn to exit; peak memory is each child's own ``ru_maxrss`` from
``os.wait4``.  Every invocation passes through the correctness gate in
``workloads.py``.

The host's speed drifts by 20-35% over minutes, and the reference, timed
in the same run, drifts with it, so the gated times are divided by it:
``wall_rel`` is the workload's median wall time over the reference's.
``setup_s`` is reference-scaled too: the median ``--help`` wall time over
the reference's, times ``REFERENCE_NOMINAL_S``, so that it reads as
seconds at the reference's nominal speed (the benchmark's set-up metric
is given in seconds).  The report lines give the raw seconds.

``--trace 1`` (per layer): the workload runs in this process through
``cobcalc.cli.main``, alternately untraced and traced, two to five times
each (see ``tracer.py``); counts must repeat exactly and the output must
not change.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it report
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import UNITS, traced_run
from workloads import WORKLOADS, check_output

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0     # every run must end within 180 s
CHILD_LIMIT_S = 120.0
MIN_SAMPLES = 3
MIN_SETUP_SAMPLES = 7
HELP = ["-m", "cobcalc", "--help"]
REFERENCE = ["-S", str(Path(__file__).with_name("reference.py"))]
REFERENCE_OUTPUT = "347705\n"
REFERENCE_NOMINAL_S = 0.1   # about reference.py's own time; scales setup_s to seconds


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


class Launcher:
    """The ``launcher.py`` process that spawns and reaps every CLI child."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env={})

    def run(self, argv: list[str], timeout: float) -> Invocation:
        """Run ``python *argv`` from the checkout root."""
        stdout_path, stderr_path = OUT / "stdout", OUT / "stderr"
        fields = [repr(timeout), str(stdout_path), str(stderr_path), *argv]
        self._proc.stdin.write("\t".join(fields) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError("launcher process ended unexpectedly")
        return Invocation(float(reply[0]), int(reply[1]) / 1024, int(reply[2]),
                          stdout_path.read_text(errors="replace"))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_LIMIT_S)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[str], int, int, bool]:
    """Timed CLI invocations of one workload:
    (metrics, report lines, attempted, failed, correct)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    argv = ["-m", "cobcalc", *workload.argv(seed)]
    walls: list[float] = []
    rss: list[float] = []
    setup: list[float] = []
    setup_rss: list[float] = []
    refs: list[float] = []
    digests: dict[str, int] = {}
    failures: list[str] = []
    attempted = 0

    def spawn(args: list[str]) -> Invocation:
        return launcher.run(args, min(CHILD_LIMIT_S, max(deadline - time.perf_counter(), 1.0)))

    def run(args: list[str]) -> Invocation | None:
        """One gated cobcalc invocation; None if it failed."""
        nonlocal attempted
        attempted += 1
        inv = spawn(args)
        if args is HELP:
            reason = (None if inv.exit_code == 0 and inv.stdout.startswith("usage: cobcalc")
                      else f"--help exit code {inv.exit_code}")
        else:
            reason = check_output(workload, args[2:], inv.exit_code, inv.stdout)
            digest = hashlib.sha256(inv.stdout.encode()).hexdigest()
            digests[digest] = digests.get(digest, 0) + 1
        if reason:
            failures.append(reason)
            return None
        return inv

    def sample_setup() -> None:
        inv = run(HELP)
        if inv is not None:
            setup.append(inv.wall_s)
            setup_rss.append(inv.peak_rss_mb)

    def more(enough: bool) -> bool:
        return (not enough and len(failures) <= MIN_SAMPLES
                and time.perf_counter() < deadline)

    launcher = Launcher()
    try:
        run(HELP)   # untimed warm-ups: .pyc compilation, page cache
        run(argv)
        started = time.perf_counter()
        turn = 0.0
        while more(len(walls) >= MIN_SAMPLES
                   and time.perf_counter() - started + turn > seconds):
            turn_start = time.perf_counter()
            ref = spawn(REFERENCE)
            if ref.exit_code != 0 or ref.stdout != REFERENCE_OUTPUT:
                raise RuntimeError(f"reference computation failed: {ref}")
            refs.append(ref.wall_s)
            sample_setup()
            inv = run(argv)
            if inv is not None:
                walls.append(inv.wall_s)
                rss.append(inv.peak_rss_mb)
            turn = time.perf_counter() - turn_start
        while more(len(setup) >= MIN_SETUP_SAMPLES):
            sample_setup()
    finally:
        launcher.close()

    failed = len(failures)
    report = [f"invocation: python {' '.join(argv)}"]
    for name, values, unit in (("wall_s", walls, "s"), ("help_s", setup, "s"),
                               ("reference_s", refs, "s"), ("peak_rss_mb", rss, "MB"),
                               ("setup_peak_rss_mb", setup_rss, "MB")):
        if values:
            q1, q3 = quartiles(values)
            report.append(f"{name} {statistics.median(values):.4f} {unit} "
                          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    report.append("wall samples: " + " ".join(f"{w:.4f}" for w in walls))
    report.append(f"failed_ratio {failed / attempted:.4f} ratio ({failed}/{attempted})")
    report += [f"stdout_sha256 {d} ({n} invocations)" for d, n in digests.items()]
    report += [f"failure: {reason}" for reason in failures]
    metrics = {}
    if walls and setup:
        metrics = {
            "wall_rel": {"value": statistics.median(walls) / statistics.median(refs),
                         "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup) / statistics.median(refs)
                        * REFERENCE_NOMINAL_S, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        report += [f"wall_rel {metrics['wall_rel']['value']:.4f} ratio (wall_s / reference_s)",
                   f"setup_s {metrics['setup_s']['value']:.4f} s (help_s / reference_s "
                   f"* {REFERENCE_NOMINAL_S} s)",
                   f"pass_ratio {metrics['pass_ratio']['value']:.4f} ratio"]
    return metrics, report, attempted, failed, failed == 0 and bool(metrics)


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, list[str], int, int, bool]:
    """Traced in-process repetitions; same result shape as ``end_to_end``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spans_path = OUT / f"spans-{workload.name}.tsv"
    values, problems, attempted, failed = traced_run(workload, seed, seconds, spans_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    report = [f"invocation: cobcalc.cli.main({' '.join(workload.argv(seed))}) in process",
              f"spans written to {spans_path.relative_to(ROOT)}"]
    report += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    report += [f"problem: {p}" for p in problems]
    return metrics, report, attempted, failed, not problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("error: -O / PYTHONOPTIMIZE strips cobcalc's correctness asserts; "
              "run without them", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cobcalc" / "__main__.py").is_file():
        print(f"error: no cobcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, report, attempted, failed, correct = measure(workload, args.seed, args.seconds)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    for line in report:
        print(f"  {line}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
