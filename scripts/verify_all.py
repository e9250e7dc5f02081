#!/usr/bin/env python3
"""Drive the whole verification battery through the CLI and summarize.

Exit code 0 only if every step passes; mirrors what CI would run, plus the
coefficient-table expansions for eyeballing.  Each step's wall time goes to
stderr, so stdout stays byte-stable across runs.  Run under ``python -O``,
it runs every step under -O too.
"""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PATH = str(ROOT / "src")

STEPS = [
    ["expand", "--law", "miscenko", "--order", "8"],
    ["expand", "--law", "mult:1", "--order", "8"],
    ["beta", "--law", "miscenko", "--order", "8"],
    ["verify", "axioms", "--law", "miscenko", "--order", "10"],
    ["verify", "exact", "--law", "miscenko", "--order", "10"],
    ["verify", "exact", "--law", "miscenko", "--order", "14"],
    ["verify", "all", "--law", "mult:1", "--order", "12"],
    ["verify", "all", "--law", "additive", "--order", "12"],
    ["verify", "in_A", "--law", "mult:4", "--order", "9"],
    ["verify", "all", "--law", "mult:3", "--order", "24"],
    ["chi", "recursion", "--max", "20"],
    ["chi", "grass", "--n", "24", "--k", "12"],
    ["chi", "simplicial", "--file", "src/cobcalc/data/klein_bottle.txt"],
    ["chi", "simplicial", "--file", "src/cobcalc/data/projective_plane.txt"],
    ["index", "klein"],
    ["index", "rp2"],
]


def main() -> int:
    failures = 0
    for step in STEPS:
        cmd = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "cobcalc", *step]
        print(f"$ cobcalc {' '.join(step)}")
        start = time.perf_counter()
        result = subprocess.run(cmd, cwd=ROOT, env={"PYTHONPATH": ENV_PATH},
                                capture_output=True, text=True)
        print(f"{time.perf_counter() - start:7.2f} s  cobcalc {' '.join(step)}",
              file=sys.stderr)
        print(result.stdout, end="")
        if result.returncode != 0:
            failures += 1
            print(f"  -> exit {result.returncode}: {result.stderr.strip()}")
        print()
    print(f"{len(STEPS) - failures}/{len(STEPS)} steps passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
