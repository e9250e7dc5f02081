"""Exact formal-group-law calculator for cobordism characteristic classes.

Modules: ``coeffring`` exact coefficients; ``pseries`` truncated power
series; ``fgl`` formal group laws; ``intlattice`` lattice normal forms;
``pontclass`` addition-theorem series and identity suites; ``localize``
Euler characteristics; ``report`` result rows; ``cli`` the front end,
``commands`` its subcommands and ``__main__`` the process entry.
"""

__version__ = "0.1.0"
