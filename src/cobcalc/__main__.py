"""Process entry of ``python -m cobcalc`` and the ``cobcalc`` console script."""

import gc

from . import cli


def run() -> int:
    """Run the CLI as a whole process and return its exit code.

    What is alive at a freeze lives until exit, so it is frozen out of
    garbage collection: no collection, during the run or at exit, traverses
    it again.  The first freeze takes start-up, json and ``cli``, before
    parsing, so ``--help`` and usage errors exit cheaply; argparse, which
    ``cli.parse`` imports only for what its own reader declines, is not in
    it.  Once the arguments parse, the series code is imported and frozen
    too, before the command runs.  The run's own objects come later and are collected as
    usual.  ``cli.main`` does not freeze, since tests and tracers call it in
    their own process.
    """
    gc.freeze()
    args = cli.parse()
    from . import commands  # noqa: F401  (imported here to be frozen)
    gc.freeze()
    return cli.execute(args)


if __name__ == "__main__":
    raise SystemExit(run())
