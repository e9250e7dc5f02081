import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cobcalc import fgl, pontclass, pseries
from cobcalc.coeffring import CoeffPoly
from cobcalc.pseries import (NonUnitLeadingTerm, NonzeroConstantTerm,
                             NonzeroRemainder, OrderExceeded, TruncatedSeries,
                             VariableMismatch)

from conftest import (coeff_polys, nonzero_coeff_polys, revertible_series,
                      series_uv)
from oracles import (SUITE_LAWS, bucket_product, evaluate_per_term,
                     lagrange_reversion, without_table)

UV = ("u", "v")
UVW = ("u", "v", "w")


def s2(terms, order=5):
    return TruncatedSeries.from_terms(terms, UV, order)


def s1(terms, order=8):
    return TruncatedSeries.from_terms(terms, ("u",), order)


# -- ring operations --------------------------------------------------------


def test_difference_of_squares():
    one_plus = s1({(0,): 1, (1,): 1}, 5)
    one_minus = s1({(0,): 1, (1,): -1}, 5)
    assert one_plus * one_minus == s1({(0,): 1, (2,): -1}, 5)


def test_sum_of_variables():
    u = TruncatedSeries.variable("u", UV, 3)
    v = TruncatedSeries.variable("v", UV, 3)
    assert u + v == s2({(1, 0): 1, (0, 1): 1}, 3)


def test_multiplication_by_zero():
    u = TruncatedSeries.variable("u", UV, 3)
    v = TruncatedSeries.variable("v", UV, 3)
    assert ((u + v) * TruncatedSeries.zero(UV, 3)).is_zero()


def test_multiplication_takes_series_only():
    # scale is the one scalar route
    u = TruncatedSeries.variable("u", UV, 3)
    for scalar in (3, Fraction(1, 2), CoeffPoly.gen(1)):
        with pytest.raises(TypeError):
            u * scalar
    assert u.scale(3) == s2({(1, 0): 3}, 3)


@st.composite
def difference_pairs(draw):
    """Two series over (u, v) at orders drawn apart, -1 included: b shares
    some of a's terms with equal coefficients, some with other ones, and
    has terms of its own."""
    orders = [draw(st.integers(min_value=-1, max_value=4)) for _ in range(2)]
    evs = [ev for ev in product(range(5), repeat=2) if sum(ev) <= 4]
    a, b = ({ev: c for ev, c in draw(st.dictionaries(
        st.sampled_from(evs), nonzero_coeff_polys, max_size=6)).items()
        if sum(ev) <= order} for order in orders)
    for ev in draw(st.sets(st.sampled_from(evs), max_size=4)):
        if ev in a and sum(ev) <= orders[1]:
            b[ev] = a[ev]
    return s2(a, orders[0]), s2(b, orders[1])


@given(difference_pairs())
def test_difference_is_the_sum_with_the_negation(pair):
    a, b = pair
    assert a - b == a + (-b)
    assert (a - a).is_zero() and (a - a).order == a.order


def test_variable_universe_mismatch():
    u = TruncatedSeries.variable("u", ("u",), 3)
    v = TruncatedSeries.variable("v", ("v",), 3)
    with pytest.raises(VariableMismatch):
        u + v


def test_order_is_min_of_operands():
    a = s2({(1, 0): 1}, 5)
    b = s2({(0, 1): 1}, 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


# -- unit-monomial products ---------------------------------------------------


@st.composite
def unit_monomial_products(draw):
    """A unit monomial x^shift and a series over the same 1-3 variables,
    each at its own order; the series may be empty, and the shift may move
    some or all of its terms past the result order."""
    names = ("u", "v", "w")[:draw(st.integers(min_value=1, max_value=3))]
    width = len(names)
    shift = tuple(draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=width, max_size=width)))
    unit_order = sum(shift) + draw(st.integers(min_value=0, max_value=3))
    unit = TruncatedSeries.from_terms({shift: 1}, names, unit_order)
    order = draw(st.integers(min_value=0, max_value=6))
    expvecs = st.lists(st.integers(min_value=0, max_value=order),
                       min_size=width, max_size=width).map(tuple).filter(
        lambda ev: sum(ev) <= order)
    terms = draw(st.dictionaries(expvecs, coeff_polys, max_size=6))
    return unit, TruncatedSeries.from_terms(terms, names, order)


@settings(max_examples=200)
@given(unit_monomial_products())
def test_unit_monomial_product_is_the_bucket_product(pair):
    unit, other = pair
    assert unit * other == bucket_product(unit, other)
    assert other * unit == bucket_product(other, unit)
    # times_monomial shares the shift and keeps every term at a raised order
    (shift,) = unit.terms
    order = other.order + sum(shift)
    assert other.times_monomial(shift) == bucket_product(
        unit._assume_order(order), other._assume_order(order))


def test_unit_monomial_product_examples():
    s = s2({(0, 0): 3, (1, 0): CoeffPoly.gen(1), (2, 2): -1, (0, 3): 2}, 4)
    one = TruncatedSeries.one(UV, 6)
    assert one * s == s and s * one == s
    # u*v moves every term up by two; the ones past order 4 are dropped
    uv = s2({(1, 1): 1}, 5)
    assert uv * s == s * uv == s2({(1, 1): 3, (2, 1): CoeffPoly.gen(1)}, 4)
    # a shift past the result order leaves nothing, at the lower order
    assert s2({(3, 2): 1}, 5) * s == s2({}, 4)
    # a single term with another coefficient takes the general product
    assert s2({(1, 0): 2}, 5) * s == bucket_product(s2({(1, 0): 2}, 5), s)
    assert TruncatedSeries.zero(UV, 3) * uv == s2({}, 3)


# -- products and compositions unchanged by swapping u and v -------------------


def swapped(s: TruncatedSeries) -> TruncatedSeries:
    """s with the exponents of its first two variables exchanged."""
    return TruncatedSeries(s.variables, s.order, {
        (ev[1], ev[0]) + ev[2:]: c for ev, c in s.terms.items()})


@st.composite
def swap_series(draw, names, order):
    """A series over ``names`` with a nonzero constant term that is unchanged
    by swapping the first two variables, or, when ``perturbed``, the same
    series with one coefficient changed and its mirror left as it was."""
    width = len(names)
    lower = [ev for ev in product(range(order + 1), repeat=width)
             if 0 < sum(ev) <= order and ev[0] <= ev[1]]
    terms = {(0,) * width: draw(nonzero_coeff_polys)}
    if lower:
        for ev, c in draw(st.dictionaries(st.sampled_from(lower), coeff_polys,
                                          max_size=5)).items():
            terms[ev] = terms[(ev[1], ev[0]) + ev[2:]] = c
    perturbed = order >= 1 and draw(st.booleans())
    if perturbed:
        e0, e1, *rest = draw(st.sampled_from([ev for ev in lower if ev[0] < ev[1]]))
        mirror = (e1, e0, *rest)
        terms[mirror] = terms.get(mirror, CoeffPoly.zero()) + draw(nonzero_coeff_polys)
    return TruncatedSeries.from_terms(terms, names, order), perturbed


@st.composite
def swap_pairs(draw):
    """Two swap_series over (u, v) or (u, v, w) at one shared order."""
    names = ("u", "v", "w")[:draw(st.integers(min_value=2, max_value=3))]
    order = draw(st.integers(min_value=0, max_value=5))
    return draw(swap_series(names, order)), draw(swap_series(names, order))


@settings(max_examples=100)
@given(swap_pairs())
def test_swap_invariant_product_is_the_bucket_product(pair):
    (a, a_perturbed), (b, b_perturbed) = pair
    for s, perturbed in pair:
        assert (swapped(s) == s) is not perturbed
        assert s._swap_invariant() is not perturbed
    ab = a * b
    assert ab == bucket_product(a, b)
    assert b * a == bucket_product(b, a)
    # With nonzero constant terms and one order, a perturbation in one
    # factor survives at its lowest degree times the other's constant term;
    # two perturbations may cancel, so that case only meets the oracle.
    if not (a_perturbed and b_perturbed):
        assert (swapped(ab) == ab) is not (a_perturbed or b_perturbed)


@settings(max_examples=50)
@given(swap_pairs(), st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3)).filter(lambda ev: sum(ev) <= 3),
    coeff_polys, max_size=5))
def test_swap_invariant_composition_is_the_per_term_route(pair, outer_terms):
    (a, a_perturbed), (b, b_perturbed) = pair
    outer = TruncatedSeries.from_terms(outer_terms, ("x", "y"), 3)
    # substituted values need a zero constant term
    values = {"x": a - TruncatedSeries.constant(a.constant_term(), a.variables, a.order),
              "y": b - TruncatedSeries.constant(b.constant_term(), b.variables, b.order)}
    result = outer.evaluate(values)
    assert result == evaluate_per_term(outer, values)
    if not (a_perturbed or b_perturbed):
        assert swapped(result) == result


@st.composite
def mirror_pair_compositions(draw):
    """An outer series over (x, y) or (x, y, z), unchanged by swapping x
    and y or not, and values over (u, v) or (u, v, w) at one order: y's
    value is the mirror of x's, or, when ``perturbed``, the mirror with one
    non-constant coefficient changed; z's value is drawn by swap_series."""
    width = draw(st.integers(min_value=2, max_value=3))
    names = ("u", "v", "w")[:width]
    order = draw(st.integers(min_value=1, max_value=5))
    positive = [ev for ev in product(range(order + 1), repeat=width)
                if 0 < sum(ev) <= order]
    x = TruncatedSeries.from_terms(draw(st.dictionaries(
        st.sampled_from(positive), nonzero_coeff_polys, min_size=1, max_size=4)),
        names, order)
    y = swapped(x)
    perturbed = draw(st.booleans())
    if perturbed:
        y = y + TruncatedSeries.from_terms(
            {draw(st.sampled_from(positive)): draw(nonzero_coeff_polys)}, names, order)
    values = {"x": x, "y": y}
    outer_vars = ("x", "y", "z")[:draw(st.integers(min_value=2, max_value=3))]
    if len(outer_vars) == 3:
        z, _ = draw(swap_series(names, order))
        values["z"] = z - TruncatedSeries.constant(z.constant_term(), names, order)
    outer_evs = [ev for ev in product(range(4), repeat=len(outer_vars))
                 if sum(ev) <= 3]
    terms = draw(st.dictionaries(st.sampled_from(outer_evs), coeff_polys, max_size=5))
    if draw(st.booleans()):
        terms = {**terms, **{(ev[1], ev[0]) + ev[2:]: c for ev, c in terms.items()
                             if ev[0] <= ev[1]}}
    return TruncatedSeries.from_terms(terms, outer_vars, 3), values, perturbed


# Without the explain phase, which reruns each failing example with every
# part varied and formats a traceback each time, a failure is reported in
# seconds instead of minutes; shrinking still runs.
@settings(max_examples=100, deadline=None, phases=set(Phase) - {Phase.explain})
@given(mirror_pair_compositions())
def test_mirrored_value_pairs_are_the_per_term_route(case):
    outer, values, perturbed = case
    invariant = [swapped(values[v]) == values[v] for v in outer.variables]
    outer_invariant = swapped(outer) == outer
    mirrored, halves = [], []
    real_mirrored = TruncatedSeries._mirrored
    real_buckets = pseries._dot_buckets

    def record_mirrored(s):
        mirrored.append(s)
        return real_mirrored(s)

    def record_buckets(buckets, half):
        halves.append(half)
        return real_buckets(buckets, half)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedSeries, "_mirrored", record_mirrored)
        mp.setattr(pseries, "_dot_buckets", record_buckets)
        result = outer.evaluate(values)
    assert result == evaluate_per_term(outer, values)
    # the last bucket sum is the composition's own; a near-mirror pair
    # takes the general path unless every value is itself invariant
    half = all(invariant[2:]) and (
        not perturbed and outer_invariant or all(invariant[:2]))
    assert halves[-1] is half
    if half:
        assert swapped(result) == result
    if perturbed:
        assert not mirrored
    else:
        # every power of y's value that the composition reads is a mirror
        lows = [values[v].lowest_degree() for v in outer.variables]
        assert bool(mirrored) is any(
            ev[1] and sum(e * low for e, low in zip(ev, lows)) <= result.order
            for ev in outer.terms)


def _suite_calls(monkeypatch, method, spec, order):
    """(self, argument, further arguments, result) of every call of the
    ``TruncatedSeries`` method that the whole suite on spec makes, law
    construction included."""
    calls = []
    real = getattr(TruncatedSeries, method)

    def recorded(self, arg, *rest):
        result = real(self, arg, *rest)
        calls.append((self, arg, rest, result))
        return result

    monkeypatch.setattr(TruncatedSeries, method, recorded)
    assert all(r.passed for r in pontclass.verify_identity_suite(spec, "all", order))
    monkeypatch.undo()
    assert calls
    return calls


@pytest.mark.parametrize("spec, order", SUITE_LAWS)
def test_evaluate_matches_the_per_term_route_on_suite_compositions(
        monkeypatch, spec, order):
    # every composition the suite (law construction included) makes,
    # against one product per term started from one, with no shift path;
    # those with a mirrored pair of non-monomial values, f([u]_2, [v]_2)
    # and Phi([u]_2, [v]_2), are among them
    calls = _suite_calls(monkeypatch, "evaluate", spec, order)
    mirrored = [s for s, values, _, _ in calls if s.variables == UV
                and values["u"].variables == UV
                and values["v"] == swapped(values["u"])
                and values["u"] != TruncatedSeries.variable("u", UV, values["u"].order)]
    assert len(mirrored) >= 2
    for s, values, _, result in calls:
        assert result == evaluate_per_term(s, values)


@pytest.mark.parametrize("spec, order", SUITE_LAWS)
def test_products_match_the_bucket_product_on_suite_products(
        monkeypatch, spec, order):
    # every series product the suite makes, the unit-monomial shifts and
    # the mirrored halves included, against the general product
    calls = [(a, b, result) for a, b, _, result in
             _suite_calls(monkeypatch, "__mul__", spec, order)
             if isinstance(b, TruncatedSeries)]
    assert any(a._swap_invariant() and b._swap_invariant() for a, b, _ in calls)
    for a, b, result in calls:
        assert result == bucket_product(a, b)


# -- the table of powers a series carries ---------------------------------------


@st.composite
def table_compositions(draw):
    """A series x in (u, v) with no constant term at order 1-6, and calls
    (form, k, outer): the composition of a one-variable outer series with
    x itself, x truncated to k, or that extended to (u, v, w)."""
    order = draw(st.integers(min_value=1, max_value=6))
    positive = [ev for ev in product(range(order + 1), repeat=2) if 0 < sum(ev) <= order]
    x = TruncatedSeries.from_terms(draw(st.dictionaries(
        st.sampled_from(positive), nonzero_coeff_polys, max_size=4)), UV, order)
    outers = st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.dictionaries(st.integers(min_value=0, max_value=n), coeff_polys,
                                  max_size=4).map(
            lambda terms: TruncatedSeries.from_terms(
                {(e,): c for e, c in terms.items()}, ("t",), n)))
    calls = draw(st.lists(st.tuples(
        st.sampled_from(("itself", "truncated", "extended")),
        st.integers(min_value=0, max_value=order), outers), min_size=1, max_size=5))
    return x, calls


@settings(max_examples=60, deadline=None)
@given(table_compositions())
def test_compositions_reading_a_table_match_a_table_free_copy(case):
    # in any call order, and grown only to the highest exponent a call reads
    x, calls = case
    x = x.with_power_table()
    table = x._powers
    for form, k, outer in calls:
        value = {"itself": x, "truncated": x.truncate(k),
                 "extended": x.truncate(k).extend(UVW)}[form]
        held = len(table)
        result = outer.evaluate({"t": value})
        assert result == outer.evaluate({"t": without_table(value)})
        low = min(value.lowest_degree(), result.order + 1)
        top = max((e for (e,), _ in outer.terms.items() if e * low <= result.order),
                  default=0)
        assert len(table) == max(held, top)
    # [x, x^2, ...] at x's order, each power made from the one before it
    assert table[0] == x and table[0]._powers is None
    for j in range(1, len(table)):
        assert table[j] == bucket_product(table[j - 1], table[0])


def test_any_value_may_carry_the_table():
    # in the second place, or in both, as when a symmetric x is its own mirror
    x = s2({(1, 0): 1, (0, 1): 1, (1, 1): CoeffPoly.gen(1)}, 5).with_power_table()
    outer = TruncatedSeries.from_terms(
        {(1, 2): 1, (3, 0): CoeffPoly.gen(2), (0, 4): 2}, ("a", "b"), 4)
    u = TruncatedSeries.variable("u", UV, 5)
    for values in ({"a": u, "b": x}, {"a": x, "b": x}):
        result = outer.evaluate(values)
        assert result == evaluate_per_term(
            outer, {name: without_table(v) for name, v in values.items()})
    assert len(x._powers) == 4


def test_only_truncation_and_extension_pass_the_table_on():
    # so a table only ever holds the powers of the series that carries it
    x = s2({(1, 0): 1, (0, 1): 1, (1, 1): CoeffPoly.gen(1)}, 5).with_power_table()
    table = x._powers
    assert x.with_power_table() is x
    assert x.truncate(3).with_power_table()._powers is table
    for carried in (x.truncate(3), x.truncate(3).extend(UVW), x.extend(("w", "v", "u")),
                    x._assume_order(2), x.truncate(-1)):
        assert carried._powers is table
    unit = TruncatedSeries.variable("u", UV, 5)
    for made in (x.rename({"u": "v", "v": "u"}), x._mirrored(), x._assume_order(6),
                 x + x, x - x, -x, x * x, x * unit, unit * x, x.scale(2),
                 x.partial_derivative("u"), x.times_monomial((1, 0)),
                 x.homogeneous_part(2)):
        assert made._powers is None
    assert table == [x] and table[0]._powers is None


def test_a_series_in_no_variables_is_refused_before_any_work():
    outer = TruncatedSeries.constant(1, (), 3)
    for values in ({}, {"u": s1({(1,): 1}, 3)}):
        with pytest.raises(VariableMismatch, match="no variables"):
            outer.evaluate(values)


# -- substitution -----------------------------------------------------------


def test_substitute_binomial():
    usq = TruncatedSeries.from_terms({(2,): 1}, ("u",), 4)
    uplusv = s2({(1, 0): 1, (0, 1): 1}, 4)
    assert usq.substitute("u", uplusv) == s2({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 4)


def test_substitute_rejects_constant_term():
    usq = TruncatedSeries.from_terms({(2,): 1}, ("u",), 4)
    with pytest.raises(NonzeroConstantTerm):
        usq.substitute("u", s2({(0, 0): 1, (1, 0): 1}, 4))


def test_substitute_zero_is_allowed():
    f = s2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, 4)
    at_zero = f.evaluate({
        "u": TruncatedSeries.variable("u", ("u",), 4),
        "v": TruncatedSeries.zero(("u",), 4),
    })
    assert at_zero == TruncatedSeries.variable("u", ("u",), 4)


# -- reversion ----------------------------------------------------------------


def test_reversion_identity():
    u = TruncatedSeries.variable("u", ("u",), 6)
    assert u.reversion() == u


def test_reversion_signed_catalan():
    # reversion of u + u^2 has coefficients (-1)^(n-1) * Catalan(n-1)
    s = s1({(1,): 1, (2,): 1})
    expected = s1({(n,): c for n, c in enumerate(
        [0, 1, -1, 2, -5, 14, -42, 132, -429])})
    assert s.reversion() == expected
    assert lagrange_reversion(s) == expected


def test_reversion_rejects_bad_leading_terms():
    with pytest.raises(NonUnitLeadingTerm):
        s1({(0,): 1, (1,): 1}).reversion()
    with pytest.raises(NonUnitLeadingTerm):
        s1({(2,): 1}).reversion()
    with pytest.raises(NonUnitLeadingTerm):
        # cp1 * u is not invertible over the coefficient ring
        TruncatedSeries.from_terms({(1,): CoeffPoly.gen(1)}, ("u",), 4).reversion()


def test_reversion_nonunit_rational_leading_coefficient():
    s = s1({(1,): Fraction(2)}, 5)
    t = s.reversion()
    assert t.coefficient((1,)) == CoeffPoly.const(Fraction(1, 2))
    assert s.evaluate({"u": t}) == TruncatedSeries.variable("u", ("u",), 5)


def test_log_reversion_is_exponential():
    # reversion of log(1+u) is e^u - 1, comparable against factorials
    n = 8
    log_series = s1({(k,): Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)})
    exp_series = s1({(k,): Fraction(1, factorial(k)) for k in range(1, n + 1)})
    assert log_series.reversion() == exp_series
    assert log_series.evaluate({"u": exp_series}) == \
        TruncatedSeries.variable("u", ("u",), n)


@settings(max_examples=40)
@given(revertible_series)
def test_reversion_round_trip_and_oracle(s):
    t = s.reversion()
    ident = TruncatedSeries.variable("u", ("u",), s.order)
    assert s.evaluate({"u": t}) == ident
    assert t.evaluate({"u": s}) == ident
    assert lagrange_reversion(s) == t


# Newton's working order runs 1 -> 3 -> 7 -> 15 -> 17, so orders 1..17 put
# the target order on, just past and just before every doubling boundary.
NEWTON_ORDERS = range(1, 18)


def test_doubling_newton_matches_lagrange_on_the_universal_log():
    g = fgl.miscenko_log(max(NEWTON_ORDERS))
    oracle = lagrange_reversion(g)
    for n in NEWTON_ORDERS:
        assert g.truncate(n).reversion() == oracle.truncate(n), n


@settings(max_examples=10, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=max(NEWTON_ORDERS) - 1, max_size=max(NEWTON_ORDERS) - 1))
def test_doubling_newton_matches_lagrange_on_scalar_series(c1, tail):
    top = max(NEWTON_ORDERS)
    s = s1({(1,): c1, **{(k,): c for k, c in enumerate(tail, start=2)}}, top)
    for n in NEWTON_ORDERS:
        assert s.truncate(n).reversion() == lagrange_reversion(s.truncate(n)), n


def test_reversion_postcondition_is_not_stripped_by_python_O():
    # a derivative off by a factor 2 slows Newton to linear convergence, so
    # the result is wrong at the top degrees; -O strips assert statements
    script = textwrap.dedent("""
        import sys
        from cobcalc.pseries import CheckFailed, TruncatedSeries
        real = TruncatedSeries.partial_derivative
        TruncatedSeries.partial_derivative = lambda self, var: real(self, var).scale(2)
        s = TruncatedSeries.from_terms({(1,): 1, (2,): 1}, ("u",), 6)
        try:
            s.reversion()
        except CheckFailed as exc:
            print(sys.flags.optimize, exc)
        """)
    src = str(Path(fgl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout == "1 reversion postcondition failed\n"
    assert done.stderr == ""


# -- derivative -----------------------------------------------------------------


def test_partial_derivative_examples():
    assert s2({(2, 1): 1}, 4).partial_derivative("v") == s2({(2, 0): 1}, 3)
    assert s2({(1, 0): 1, (0, 1): 1}, 4).partial_derivative("v") == \
        s2({(0, 0): 1}, 3)


def test_an_order_zero_series_loses_every_term_to_a_derivative_or_division():
    # u at order 0 keeps no term, so neither du/du = 1 nor u/u = 1 is known
    u0 = TruncatedSeries.variable("u", ("u",), 1).truncate(0)
    assert u0.partial_derivative("u") == s1({}, -1)
    assert u0.divided_by_variable("u") == s1({}, -1)


def test_a_series_that_trusts_no_term_keeps_order_minus_one():
    # truncate refuses orders below -1, so a derivative or a division of
    # an O(-1) series stays at -1; a constant there stores no term
    empty = s2({}, -1)
    assert empty.partial_derivative("v") == empty
    assert empty.divided_by_variable("u") == empty
    assert TruncatedSeries.one(UV, -1) == empty
    assert TruncatedSeries.constant(CoeffPoly.gen(1), UV, -1) == empty
    for order in (-2, -5):
        with pytest.raises(OrderExceeded):
            TruncatedSeries.one(UV, order)
    assert TruncatedSeries.one(UV, 0).terms == {(0, 0): CoeffPoly.one()}


@given(series_uv, series_uv)
def test_partial_derivative_is_linear_and_leibniz(a, b):
    da = a.partial_derivative("u")
    db = b.partial_derivative("u")
    assert (a + b).partial_derivative("u") == da + db
    lhs = (a * b).partial_derivative("u")
    rhs = da * b.truncate(da.order) + a.truncate(db.order) * db
    assert (lhs - rhs).is_zero()


# -- divided differences -----------------------------------------------------------


def test_divided_difference_examples():
    diff_sq = s2({(2, 0): 1, (0, 2): -1}, 5)
    assert diff_sq.divided_difference("u", "v") == s2({(1, 0): 1, (0, 1): 1}, 4)
    u_minus_v = s2({(1, 0): 1, (0, 1): -1}, 5)
    assert u_minus_v.divided_difference("u", "v") == s2({(0, 0): 1}, 4)


def test_divided_difference_remainder_error():
    with pytest.raises(NonzeroRemainder):
        s2({(2, 0): 1}, 5).divided_difference("u", "v")


def test_divided_difference_postcondition_is_not_stripped_by_python_O():
    # the division is rebuilt from its source with every quotient
    # coefficient doubled; the carry and so the remainder check are
    # untouched, and -O strips assert statements
    script = textwrap.dedent("""
        import inspect, sys, textwrap
        from cobcalc import pseries
        source = textwrap.dedent(inspect.getsource(
            pseries.TruncatedSeries.divided_difference))
        faulty = source.replace("(k - 1,) + ev[ia + 1:]: c\\n",
                                "(k - 1,) + ev[ia + 1:]: c + c\\n")
        scope = {}
        exec(faulty, vars(pseries), scope)
        pseries.TruncatedSeries.divided_difference = scope["divided_difference"]
        s = pseries.TruncatedSeries.from_terms({(2, 0): 1, (0, 2): -1}, ("u", "v"), 5)
        try:
            s.divided_difference("u", "v")
        except pseries.CheckFailed as exc:
            print(sys.flags.optimize, faulty.count("c + c"), exc)
        """)
    src = str(Path(fgl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout == "1 1 divided_difference postcondition failed\n"
    assert done.stderr == ""


@given(series_uv)
def test_divided_difference_of_antisymmetric_is_symmetric(s):
    anti = s - s.rename({"u": "v", "v": "u"}).extend(UV)
    q = anti.divided_difference("u", "v")
    swapped = q.rename({"u": "v", "v": "u"}).extend(UV)
    assert q == swapped


# -- extraction and truncation ---------------------------------------------------


def test_coefficient_examples():
    upv = s2({(1, 0): 1, (0, 1): 1}, 3)
    assert upv.coefficient((1, 0)) == CoeffPoly.one()
    assert upv.coefficient((2, 0)).is_zero()


def test_coefficient_beyond_order_is_unknown():
    upv = s2({(1, 0): 1}, 3)
    with pytest.raises(OrderExceeded):
        upv.coefficient((4, 0))


def test_truncate_example():
    s = s1({(0,): 1, (1,): 1, (2,): 1}, 5)
    assert s.truncate(1) == s1({(0,): 1, (1,): 1}, 1)
    assert s.truncate(-1) == s1({}, -1)
    for order in (6, -2):
        with pytest.raises(OrderExceeded):
            s.truncate(order)


def test_truncate_at_its_own_order_is_the_series_itself():
    # a series is never changed once built, so there is nothing to copy;
    # a lower order still gives a new series without the dropped terms
    s = s1({(0,): 1, (1,): 1, (2,): 1}, 5)
    assert s.truncate(5) is s
    lower = s.truncate(1)
    assert lower is not s and lower.terms is not s.terms
    assert lower == s1({(0,): 1, (1,): 1}, 1)
    assert s == s1({(0,): 1, (1,): 1, (2,): 1}, 5)


def test_from_terms_rejects_overflow():
    with pytest.raises(OrderExceeded):
        s1({(4,): 1}, 3)


def test_rename_and_extend_round_trip():
    s = s1({(2,): CoeffPoly.gen(1)}, 4)
    wide = s.rename({"u": "w"}).extend(("u", "v", "w"))
    assert wide.coefficient((0, 0, 2)) == CoeffPoly.gen(1)
    assert wide.restrict(("w",)) == s.rename({"u": "w"})


def test_order_and_name_changes_share_the_terms():
    # a series is never changed once built, so none of these copies its terms
    s = s1({(1,): 1, (3,): CoeffPoly.gen(1)}, 4)
    assert s._assume_order(s.order) is s
    assert s._assume_order(6).order == 6
    assert s._assume_order(6).terms is s.terms
    assert s.rename({"u": "w"}).terms is s.terms
    assert s._assume_order(2) == s.truncate(2) == s1({(1,): 1}, 2)


@settings(max_examples=40)
@given(series_uv, series_uv, st.integers(min_value=0, max_value=5))
def test_truncation_coherence(a, b, m):
    assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


def test_times_monomial_raises_order():
    s = s2({(1, 0): 1}, 3)
    shifted = s.times_monomial((1, 1)).scale(-2)
    assert shifted.order == 5
    assert shifted == s2({(2, 1): -2}, 5)


def test_graded_detection():
    f_like = s2({(1, 0): 1, (0, 1): 1, (1, 1): CoeffPoly.gen(1)}, 4)
    assert f_like.is_graded(1)
    assert not f_like.is_graded(0)
