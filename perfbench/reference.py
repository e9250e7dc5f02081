"""Fixed reference computation timed alongside every workload invocation.

    python3 -S perfbench/reference.py

About 0.1 s of the pure-Python work cobcalc's coefficient arithmetic does:
exact fractions, small sorted tuples as dict keys, big-integer sums.  It
uses the standard library only, so no change to cobcalc changes its
time; on a shared host it slows down and speeds up with the machine, and
``wall_rel`` and ``setup_s`` divide that out.  Prints a checksum that
run.py verifies.
"""

from fractions import Fraction

acc = {}
x = Fraction(1, 3)
for i in range(1, 4000):
    x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    key = tuple(sorted({(i % 7, 1), (i % 5 + 7, 2)}))
    acc[key] = acc.get(key, 0) + x.numerator % 1000003
print(sum(acc.values()) % 1000003)
