"""Exact formal-group-law calculator for cobordism characteristic classes.

Subpackages by role: ``coeffring`` exact scalars and graded coefficient
polynomials; ``pseries`` truncated multivariate power series; ``fgl``
formal group laws from logarithms; ``pontclass`` the addition-theorem
series and identity suites; ``localize`` index ledgers and
Euler-characteristic checks; ``cli`` the batch front end and ``commands``
its subcommands.
"""

__version__ = "0.1.0"
