from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cobcalc import fgl
from cobcalc.coeffring import CoeffPoly
from cobcalc.pseries import TruncatedSeries
from oracles import truncated_law

# -- shared laws (session-scoped: construction is the expensive part) --------


@pytest.fixture(scope="session")
def miscenko11():
    return fgl.miscenko_law(11)


@pytest.fixture(scope="session")
def miscenko8(miscenko11):
    return truncated_law(miscenko11, 8)


@pytest.fixture(scope="session")
def mult14():
    return fgl.multiplicative_law(1, 14)


@pytest.fixture(scope="session")
def additive12():
    return fgl.additive_law(12)


# -- hypothesis strategies -----------------------------------------------------

# Every fraction in [-4, 4] with denominator at most 6, simplest first, so
# shrinking moves towards 0, 1, -1, 2, ...  Sampling one index is much
# cheaper than st.fractions, which builds and validates a strategy per draw.
_FRACTIONS = sorted({Fraction(n, d) for d in range(1, 7) for n in range(-4 * d, 4 * d + 1)},
                    key=lambda q: (q.denominator, abs(q), q < 0))
small_fractions = st.sampled_from(_FRACTIONS)

monomials = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),
              st.integers(min_value=1, max_value=2)),
    max_size=2,
).map(lambda pairs: tuple(sorted(dict(pairs).items())))

coeff_polys = st.dictionaries(monomials, small_fractions, max_size=3).map(
    CoeffPoly.from_terms)

# Distinct monomials with nonzero coefficients: nonzero by construction,
# where filtering coeff_polys retried draws and discarded examples.
nonzero_coeff_polys = st.dictionaries(monomials, st.sampled_from(_FRACTIONS[1:]),
                                      min_size=1, max_size=3).map(CoeffPoly.from_terms)

_expvecs_uv = st.tuples(st.integers(min_value=0, max_value=3),
                        st.integers(min_value=0, max_value=3)).filter(
    lambda ev: sum(ev) <= 5)

series_uv = st.dictionaries(_expvecs_uv, coeff_polys, max_size=5).map(
    lambda d: TruncatedSeries.from_terms(d, ("u", "v"), 5))

# One-variable series u + c2 u^2 + ... with unit linear coefficient,
# suitable for reversion round trips.
revertible_series = st.lists(coeff_polys, min_size=0, max_size=4).map(
    lambda tail: TruncatedSeries.from_terms(
        {(1,): CoeffPoly.one(),
         **{(k + 2,): c for k, c in enumerate(tail)}},
        ("u",), 6))
