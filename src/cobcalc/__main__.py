"""Process entry of ``python -m cobcalc`` and the ``cobcalc`` console script."""

import gc

from .cli import main


def run() -> int:
    """Run the CLI as a whole process and return its exit code.

    What is alive here (start-up, argparse, json, the package) lives until
    exit, so it is frozen out of garbage collection: no collection, during
    the run or at exit, traverses it again.  The run's own objects come
    later and are collected as usual.  ``cli.main`` does not freeze, since
    tests and tracers call it in their own process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
