"""Spawner of the benchmark's child processes for run.py; run it with ``python3 -S``.

Linux starts a child's ``ru_maxrss`` at the resident-set high-water mark
of the process that spawned it, so a child's own peak memory can only be
read from a spawner smaller than the child.  This process imports nothing
beyond builtins and stays near 8 MB, below any cobcalc child.

Each stdin line is ``timeout<TAB>stdout path<TAB>stderr path<TAB>arg...``;
the child is this interpreter with those arguments.  It runs from this
process's working directory with the environment ``PYTHONPATH=src`` and
nothing else, and is killed after the timeout.  The reply line is ``wall_s peak_rss_kb exit_code``, wall time
running from spawn to exit.
"""

import os
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main():
    child = [0]

    def expire(signum, frame):
        os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    for line in sys.stdin:
        timeout, out, err, *argv = line.rstrip("\n").split("\t")
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, FLAGS, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, FLAGS, 0o644)]
        start = time.perf_counter()
        child[0] = os.posix_spawn(sys.executable, [sys.executable, *argv],
                                  {"PYTHONPATH": "src"}, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
        _, status, usage = os.wait4(child[0], 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        print(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}", flush=True)


main()
