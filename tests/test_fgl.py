import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cobcalc import fgl, pontclass
from cobcalc.coeffring import CoeffPoly
from cobcalc.pseries import (CheckFailed, NonzeroConstantTerm, OrderExceeded,
                             TruncatedSeries)
from cobcalc.report import check_zero
from conftest import coeff_polys, small_fractions
from oracles import (SUITE_LAWS, TWO_PARAMETER_GRID,
                     axiom_differences_by_composition, direct_associativity,
                     lagrange_reversion, law_by_composition, lemma61_by_product,
                     log_route_by_composition, log_route_by_two_products,
                     mutate_alpha, n_series_via_log, solve_inverse,
                     truncated_law, two_parameter_law, universal_cp_series)

cp1 = CoeffPoly.gen(1)
cp2 = CoeffPoly.gen(2)
U1 = ("u",)
UV = ("u", "v")


def s1(terms, order):
    return TruncatedSeries.from_terms(terms, U1, order)


# -- logarithms -----------------------------------------------------------


def test_miscenko_log_low_orders():
    assert fgl.miscenko_log(1) == TruncatedSeries.variable("u", U1, 1)
    assert fgl.miscenko_log(2) == s1({(1,): 1, (2,): cp1.scale(Fraction(1, 2))}, 2)


def test_log_derivative_is_cp_series():
    got = fgl.miscenko_log(4).partial_derivative("u")
    assert got == s1({(0,): 1, (1,): cp1, (2,): cp2, (3,): CoeffPoly.gen(3)}, 3)
    assert got == universal_cp_series(3)


def test_miscenko_log_reversion_round_trip():
    g = fgl.miscenko_log(8)
    ginv = g.reversion()
    ident = TruncatedSeries.variable("u", U1, 8)
    assert g.evaluate({"u": ginv}) == ident
    assert ginv.evaluate({"u": g}) == ident
    # independent oracle on polynomial coefficients
    assert lagrange_reversion(g) == ginv


# -- construction from logs ---------------------------------------------------


def test_from_log_identity_gives_additive():
    law = fgl.from_log(TruncatedSeries.variable("u", U1, 6))
    assert law.f == TruncatedSeries.from_terms({(1, 0): 1, (0, 1): 1}, UV, 6)


@pytest.mark.parametrize("log", [
    pytest.param(log, id=f"{name}-{log.order}") for name, log in (
        [("miscenko", fgl.miscenko_log(n)) for n in range(1, 15)]
        + [("additive", fgl.additive_log(n)) for n in (1, 2, 7, 16)]
        + [(f"mult:{beta}", fgl.multiplicative_log(Fraction(beta), n))
           for beta in ("1/2", -2, 3) for n in (1, 2, 5, 12)])])
def test_from_log_matches_the_composition_route(log):
    # the Lie series against g^{-1}(g(u) + g(v)) and g^{-1}(-g(u)) through
    # Newton reversion and a composition in (u, v)
    law = fgl.from_log(log)
    assert (law.f, law.inverse) == law_by_composition(log)
    assert law.log == log and law.order == log.order


@st.composite
def _scaled_logs(draw):
    """c u + g2 u^2 + ... at order 1-8 with a rational c other than 0 and
    1, and higher coefficients rational or polynomial in cp1, cp2, cp3."""
    n = draw(st.integers(min_value=1, max_value=8))
    lead = draw(small_fractions.filter(lambda q: q not in (0, 1)))
    tail = draw(st.lists(st.one_of(small_fractions, coeff_polys),
                         min_size=n - 1, max_size=n - 1))
    return s1({(1,): lead, **{(k,): c for k, c in enumerate(tail, 2)}}, n)


@settings(max_examples=60, deadline=None)
@given(_scaled_logs())
def test_from_log_matches_the_composition_route_on_scaled_logs(log):
    law = fgl.from_log(log)
    assert (law.f, law.inverse) == law_by_composition(log)


@pytest.mark.parametrize("log", [
    s1({(0,): 1, (1,): 1}, 4), s1({(2,): 1}, 4), TruncatedSeries.zero(U1, 4),
    TruncatedSeries.from_terms({(1,): cp1}, U1, 4),
    TruncatedSeries.from_terms({(1,): cp1 + CoeffPoly.one()}, U1, 4),
    TruncatedSeries.zero(U1, 0), TruncatedSeries.variable("u", UV, 4)],
    ids=["constant-term", "no-linear-term", "zero", "linear-cp1",
         "linear-1+cp1", "order-0", "two-variables"])
def test_from_log_refuses_what_reversion_refuses(log):
    with pytest.raises(ValueError) as reverted:
        log.reversion()
    with pytest.raises(ValueError) as refused:
        fgl.from_log(log)
    assert type(refused.value) is type(reverted.value)
    assert str(refused.value) == str(reverted.value)


def test_multiplicative_law_closed_form_matches_log_route():
    # the constructor checks the closed form against its log internally
    for beta in (1, -2, Fraction(1, 2)):
        law = fgl.multiplicative_law(beta, 9)
        assert law.f == TruncatedSeries.from_terms(
            {(1, 0): 1, (0, 1): 1, (1, 1): beta}, UV, 9)


def test_multiplicative_beta_zero_rejected():
    with pytest.raises(fgl.LawError):
        fgl.multiplicative_law(0, 5)


def test_multiplicative_law_below_order_two_rejected():
    with pytest.raises(fgl.LawError, match="order >= 2"):
        fgl.multiplicative_law(1, 1)
    assert fgl.multiplicative_law(1, 2).order == 2


def test_miscenko_alpha_low_coefficients():
    # hand derivation from g(u) = u + cp1 u^2/2 + cp2 u^3/3:
    # alpha_11 = -cp1, alpha_12 = alpha_21 = cp1^2 - cp2
    table = fgl.alpha_table(fgl.miscenko_law(3))
    assert table[(1, 1)] == -cp1
    assert table[(1, 2)] == cp1 * cp1 - cp2
    assert table[(2, 1)] == cp1 * cp1 - cp2


def _to_sympy(sympy, poly, cp):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(cp[k] ** e for k, e in mono))
                for mono, c in poly.terms()), sympy.Integer(0))


@pytest.mark.parametrize("n", range(1, 7))
def test_miscenko_reversion_and_alpha_table_match_sympy(n):
    # an oracle outside this package: revert the log with sympy by
    # undetermined coefficients, then expand g^{-1}(g(u) + g(v)) in sympy
    sympy = pytest.importorskip("sympy")
    y, t, u, v = sympy.symbols("y t u v")
    cp = {k: sympy.Symbol(f"cp{k}") for k in range(1, n + 1)}

    def truncated(expr, var):
        poly = sympy.Poly(sympy.expand(expr), var)
        return sum((c * var ** m for (m,), c in poly.terms() if m <= n),
                   sympy.Integer(0))

    def compose(outer, inner, var):
        """outer(inner) truncated at var^n, for an outer polynomial in y."""
        result, power = sympy.Integer(0), sympy.Integer(1)
        for k in range(1, n + 1):
            power = truncated(power * inner, var)
            result += sympy.Poly(outer, y).coeff_monomial(y ** k) * power
        return sympy.expand(result)

    log = y + sum(cp[k] * y ** (k + 1) / (k + 1) for k in range(1, n))
    ginv = y
    for k in range(2, n + 1):
        ginv -= compose(log, ginv, y).coeff(y, k) * y ** k
    ours = fgl.miscenko_log(n).reversion()
    assert {m: _to_sympy(sympy, ours.coefficient((m,)), cp)
            for m in range(1, n + 1)} == {m: ginv.coeff(y, m) for m in range(1, n + 1)}

    g_sum = log.subs(y, t * u) + log.subs(y, t * v)
    f = sympy.Poly(compose(ginv, g_sum, t), t, u, v)
    expected = {(i, j): sympy.expand(c) for (_, i, j), c in f.terms()
                if i >= 1 and j >= 1}
    table = fgl.alpha_table(fgl.miscenko_law(n))
    got = {ij: sympy.expand(_to_sympy(sympy, c, cp)) for ij, c in table.items()}
    assert got == expected


def test_parse_law_selectors():
    assert fgl.parse_law("miscenko", 3).tag == "miscenko"
    assert fgl.parse_law("additive", 3).tag == "additive"
    assert fgl.parse_law("mult:-3", 3).tag == "mult:-3"
    with pytest.raises(fgl.LawError):
        fgl.parse_law("projective", 3)


@pytest.mark.parametrize("beta", [
    "1e5000", "1e101", "1E+101", "1e-101", "1e" + "9" * 5000, "9" * 102,
    "1/" + "9" * 101, "99e100", "0." + "0" * 100 + "1"])
def test_parse_law_refuses_oversized_beta_before_building_it(monkeypatch, beta):
    def no_work(*_):
        raise AssertionError("Fraction built before the size check")

    monkeypatch.setattr(fgl, "Fraction", no_work)
    for prefix in ("mult:", "multiplicative:"):
        with pytest.raises(fgl.LawError, match="^mult:BETA must have at most 101 "):
            fgl.parse_law(prefix + beta, 3)


def test_parse_law_accepts_beta_at_the_digit_cap():
    assert fgl.MAX_BETA_DIGITS == 101
    for beta, value in [("1e100", Fraction(10) ** 100), ("1E-100", Fraction(1, 10 ** 100)),
                        ("9" * 101, Fraction(10) ** 101 - 1), ("1e+0_100", Fraction(10) ** 100),
                        ("-2", -2), ("1/3", Fraction(1, 3)), ("1.5", Fraction(3, 2))]:
        law = fgl.parse_law(f"mult:{beta}", 3)
        assert fgl.alpha_table(law)[(1, 1)] == CoeffPoly.const(value)


# -- formal inverse ------------------------------------------------------------


def test_additive_inverse_is_negation():
    law = fgl.additive_law(6)
    assert law.inverse == s1({(1,): -1}, 6)


def test_multiplicative_inverse_matches_geometric_series():
    # f(u, ubar) = 0 for f = u + v + uv gives ubar = -u/(1+u)
    law = fgl.multiplicative_law(1, 8)
    expected = s1({(n,): (-1) ** n for n in range(1, 9)}, 8)
    assert law.inverse == expected


def test_miscenko_inverse_low_orders():
    # degree-by-degree solution of f(u, ubar) = 0, cross-checked against
    # g^{-1}(-g(u)): ubar = -u - cp1 u^2 - cp1^2 u^3 + O(u^4)
    law = fgl.miscenko_law(3)
    assert law.inverse == s1({(1,): -1, (2,): -cp1, (3,): -(cp1 * cp1)}, 3)
    log = fgl.miscenko_log(3)
    via_log = log.reversion().evaluate({"u": log.scale(-1)})
    assert via_log == law.inverse


def test_inverse_satisfies_defining_equation(miscenko8):
    u = TruncatedSeries.variable("u", U1, 8)
    assert miscenko8.f.evaluate({"u": u, "v": miscenko8.inverse}).is_zero()


def test_log_route_inverse_matches_degree_by_degree_solver():
    # ubar = g^{-1}(-g(u)) against the independent solver of f(u, ubar) = 0
    for n in range(1, 11):
        law = fgl.miscenko_law(n)
        assert law.inverse == solve_inverse(law.f, n)
    for n in range(1, 17):
        law = fgl.from_log(fgl.additive_log(n))
        assert law.inverse == solve_inverse(law.f, n)
    for beta in (1, -1, 2, Fraction(1, 2)):
        for n in range(2, 17):
            law = fgl.from_log(fgl.multiplicative_log(Fraction(beta), n))
            assert law.inverse == solve_inverse(law.f, n)


def test_residue_check_refuses_a_wrong_inverse(miscenko8):
    law = miscenko8
    bump = s1({(5,): cp2 * cp2}, 8)
    with pytest.raises(CheckFailed, match="f\\(u, ubar\\(u\\)\\) is not zero"):
        fgl.from_f(law.f, law.tag, law.log, law.inverse + bump)
    # an inverse known to a lower order cannot vouch for the working order
    with pytest.raises(OrderExceeded):
        fgl.from_f(law.f, law.tag, law.log, law.inverse.truncate(7))
    assert fgl.from_f(law.f, law.tag, law.log, law.inverse).inverse == law.inverse
    # a closed-form inverse off by one in its top coefficient
    for beta in LOG_ROUTE_BETAS:
        for n in (2, 6, 11):
            law = fgl.multiplicative_law(beta, n)
            with pytest.raises(CheckFailed, match=f"law mult:{beta}: f\\(u, ubar"):
                fgl.from_f(law.f, law.tag, law.log, law.inverse + s1({(n,): 1}, n))


def test_from_log_refuses_a_law_that_is_not_unital(monkeypatch):
    # T_n(0), the top coefficient of g^{-1}, off by one puts g'(0)^n u^n
    # into f(u, 0) = sum_j T_j(0) g(u)^j
    flow_coefficients = fgl._flow_coefficients

    def off_at_top(dg, n):
        flow = flow_coefficients(dg, n)
        flow[n][0] += CoeffPoly.one()
        return flow

    monkeypatch.setattr(fgl, "_flow_coefficients", off_at_top)
    with pytest.raises(CheckFailed) as refused:
        fgl.from_log(fgl.miscenko_log(6))
    assert str(refused.value) == "constructed law is not unital"


def test_mutated_laws_still_solve_their_inverse():
    # f no longer matches its log, so the inverse comes from the solver
    base = fgl.miscenko_law(6)
    for i, j in ((1, 1), (2, 1), (1, 3), (2, 2)):
        law = mutate_alpha(base, i, j, 1)
        assert law.inverse != base.inverse
        rows = {r.identity: r for r in fgl.verify_axioms(law)}
        assert rows["inverse"].passed


def test_a_law_has_the_order_of_its_f():
    # the order is read from f, so no constructor can set a second one
    laws = [fgl.miscenko_law(6), fgl.additive_law(6), fgl.multiplicative_law(2, 6),
            fgl.from_log(fgl.multiplicative_log(Fraction(1, 2), 6)),
            two_parameter_law(2, 3, 6), fgl.parse_law("mult:-1", 6)]
    laws.append(fgl.from_f(laws[0].f, "copy", laws[0].log, laws[0].inverse))
    laws.append(fgl.FormalGroupLaw("direct", laws[1].f, laws[1].inverse, laws[1].log))
    laws += [mutate_alpha(law, 1, 2, 1) for law in laws[:3]]
    laws += [truncated_law(law, m) for law in laws for m in (0, 3, 6)]
    for law in laws:
        assert law.order == law.f.order, law
    assert [law.order for law in laws[:11]] == [6] * 11
    assert repr(truncated_law(laws[8], 3)) == "FormalGroupLaw(miscenko+e12, order=3)"


# -- n-series -----------------------------------------------------------------


def test_two_series_closed_forms():
    add = fgl.additive_law(6)
    assert fgl.n_series(add, 2) == s1({(1,): 2}, 6)
    assert fgl.a_series(add) == TruncatedSeries.constant(2, U1, 5)
    mult = fgl.multiplicative_law(1, 6)
    assert fgl.n_series(mult, 2) == s1({(1,): 2, (2,): 1}, 6)
    assert fgl.a_series(mult) == s1({(0,): 2, (1,): 1}, 5)


def test_miscenko_a_series_groups_alpha_by_power():
    law = fgl.miscenko_law(3)
    table = fgl.alpha_table(law)
    a = fgl.a_series(law)
    assert a.coefficient((0,)) == CoeffPoly.const(2)
    assert a.coefficient((1,)) == table[(1, 1)]
    assert a.coefficient((2,)) == table[(1, 2)] + table[(2, 1)]


def test_n_series_additivity(miscenko8):
    u = TruncatedSeries.variable("u", U1, 8)
    for m, n in [(1, 1), (1, 2), (2, 2), (1, 3), (3, 1)]:
        lhs = miscenko8.f.evaluate({"u": fgl.n_series(miscenko8, m),
                                    "v": fgl.n_series(miscenko8, n)})
        assert (lhs - fgl.n_series(miscenko8, m + n)).is_zero()


def test_n_series_matches_log_route(miscenko8):
    for n in (2, 3, 5):
        assert fgl.n_series(miscenko8, n) == n_series_via_log(miscenko8, n)
    mult = fgl.multiplicative_law(-2, 8)
    assert fgl.n_series(mult, 3) == n_series_via_log(mult, 3)


def test_two_series_homomorphism(miscenko8):
    two = fgl.n_series(miscenko8, 2)
    lhs = miscenko8.f.evaluate({"u": two.extend(UV),
                                "v": two.rename({"u": "v"}).extend(UV)})
    rhs = two.evaluate({"u": miscenko8.f})
    assert (lhs - rhs).is_zero()


# -- alpha series -----------------------------------------------------------------


def test_alpha_series_closed_forms():
    add = fgl.additive_law(6)
    alpha, alpha0, alpha1 = fgl.alpha_series(add)
    assert alpha == TruncatedSeries.constant(1, U1, 5)
    assert alpha0 == TruncatedSeries.constant(1, U1, 2)
    assert alpha1.is_zero()
    mult = fgl.multiplicative_law(1, 6)
    alpha, alpha0, alpha1 = fgl.alpha_series(mult)
    assert alpha == s1({(0,): 1, (1,): 1}, 5)
    assert alpha0 == TruncatedSeries.constant(1, U1, 2)
    assert alpha1 == TruncatedSeries.constant(1, U1, 2)


@pytest.mark.parametrize("spec, order", [
    ("miscenko", 8), ("additive", 6), ("mult:1", 9), ("mult:-2", 7), ("mult:1/3", 5)])
def test_alpha_series_matches_df_du_at_zero(spec, order):
    # oracle: compose df/du with u := 0 instead of reading its u-free terms
    law = fgl.parse_law(spec, order)
    for law in (law, mutate_alpha(law, 2, order - 2, 1)):
        dfdu = law.f.partial_derivative("u")
        oracle = dfdu.evaluate({
            "u": TruncatedSeries.zero(("v",), dfdu.order),
            "v": TruncatedSeries.variable("v", ("v",), dfdu.order),
        }).rename({"v": "u"})
        alpha, alpha0, alpha1 = fgl.alpha_series(law)
        assert (alpha, alpha.order) == (oracle, oracle.order)
        assert (alpha0.order, alpha1.order) == (alpha.order // 2, (alpha.order - 1) // 2)


def test_alpha_even_odd_split_recomposes(miscenko8):
    alpha, alpha0, alpha1 = fgl.alpha_series(miscenko8)
    n = alpha.order
    usq = TruncatedSeries.from_terms({(2,): 1}, U1, n)
    recomposed = alpha0.evaluate({"u": usq}) + \
        alpha1.evaluate({"u": usq}).times_monomial((1,))
    assert (alpha - recomposed).is_zero()


def test_alpha_is_reciprocal_of_cp(miscenko8):
    alpha, _, _ = fgl.alpha_series(miscenko8)
    cp = fgl.cp_series(miscenko8).truncate(alpha.order)
    assert alpha * cp == TruncatedSeries.one(U1, alpha.order)


def test_specializing_universal_alpha_recovers_the_laws(miscenko8):
    # cp_n -> (-1)^n collapses the universal law to mult:1, cp_n -> 0 to
    # the additive law; checked entry by entry on the alpha tables.
    table = fgl.alpha_table(miscenko8)
    top = max(g for c in table.values() for m, _ in c.terms() for g, _ in m)
    to_mult = {n: Fraction((-1) ** n) for n in range(1, top + 1)}
    to_add = {n: Fraction(0) for n in range(1, top + 1)}
    for (i, j), c in table.items():
        expected = 1 if (i, j) == (1, 1) else 0
        assert c.specialize(to_mult) == expected
        assert c.specialize(to_add) == 0


# -- axioms and grading ------------------------------------------------------------


def test_additive_axioms_all_pass():
    assert all(r.passed for r in fgl.verify_axioms(fgl.additive_law(6)))


def test_miscenko_axioms_all_pass(miscenko8):
    results = {r.identity: r.passed for r in fgl.verify_axioms(miscenko8)}
    assert results == {"unitality_right": True, "unitality_left": True,
                       "commutativity": True, "associativity": True,
                       "inverse": True}


@pytest.mark.parametrize("spec", [
    "miscenko", "additive", "mult:1", "mult:-1", "mult:2", "mult:-2", "mult:3",
    "mult:1/2"])
def test_associativity_by_symmetry_matches_the_direct_route(spec):
    law = fgl.parse_law(spec, 9)
    for n in range(1, 10):
        rows = {r.identity: r for r in fgl.verify_axioms(truncated_law(law, n))}
        assert rows["commutativity"].passed
        assert rows["associativity"] == check_zero(
            "associativity", law.tag, direct_associativity(truncated_law(law, n).f))


def _three_variable_compositions(monkeypatch, run) -> int:
    counted = []
    real = TruncatedSeries.evaluate

    def counting(self, values, *args):
        counted.append(next(iter(values.values())).variables == fgl.UVW)
        return real(self, values, *args)

    monkeypatch.setattr(TruncatedSeries, "evaluate", counting)
    run()
    monkeypatch.undo()
    return sum(counted)


def test_associativity_composes_the_right_side_only_without_commutativity(
        monkeypatch):
    # the left side only: f(u,v) is f extended to (u, v, w), and the right
    # side is the renamed left side
    law = fgl.miscenko_law(6)
    assert _three_variable_compositions(
        monkeypatch, lambda: fgl.verify_axioms(law)) == 1
    # a non-commutative f also composes f(u, f(v,w)), with f(v,w) renamed
    law = mutate_alpha(fgl.miscenko_law(7), 3, 4, 1)
    assert _three_variable_compositions(
        monkeypatch, lambda: fgl.verify_axioms(law)) == 2


def test_assoc_in_a_composes_the_b_series_once(monkeypatch):
    # b is symmetric by construction, so its associator renames its left
    # side; composing both sides with the variables took 4
    law = two_parameter_law(2, 3, 13)
    rows = []
    assert _three_variable_compositions(monkeypatch, lambda: rows.extend(
        pontclass.verify_identity_suite(law, "assoc_in_A", 12))) == 1
    assert [(r.identity, r.passed) for r in rows] == [("assoc_b_in_A", True)]


@st.composite
def _two_variable_series(draw):
    """f of a suite law or b of a two-parameter law, either one possibly
    made asymmetric: f by a bumped alpha_ij, b by one term off the
    diagonal."""
    if draw(st.booleans()):
        spec, order = draw(st.sampled_from(SUITE_LAWS))
        law = fgl.parse_law(spec, order)
        if order >= 2 and draw(st.booleans()):
            i = draw(st.integers(min_value=1, max_value=order - 1))
            j = draw(st.integers(min_value=1, max_value=order - i))
            law = mutate_alpha(law, i, j, draw(st.sampled_from((1, -2))))
        return law.f
    b = pontclass.b_series(two_parameter_law(
        *draw(st.sampled_from(TWO_PARAMETER_GRID)),
        draw(st.integers(min_value=2, max_value=10))))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=b.order))
        j = draw(st.integers(min_value=0, max_value=b.order - i).filter(
            lambda j: j != i))
        b = b + TruncatedSeries.from_terms({(i, j): 1}, UV, b.order)
    return b


@settings(max_examples=60, deadline=None)
@given(_two_variable_series())
def test_associator_equals_both_sides_composed(s):
    # the renamed left side stands in for the composed right side only
    # when s is symmetric; an asymmetric s must still get its own associator
    assert fgl.associator(s) == direct_associativity(s)


def test_miscenko_grading(miscenko8):
    assert miscenko8.f.is_graded(1)
    assert miscenko8.inverse.is_graded(1)
    assert fgl.n_series(miscenko8, 2).is_graded(1)
    assert fgl.a_series(miscenko8).is_graded(0)
    for (i, j), c in fgl.alpha_table(miscenko8).items():
        assert c.is_homogeneous(i + j - 1)


def test_lemma61_cleared_identity():
    # the chain-rule row against the product route, on every suite law as
    # the suite builds it, and on laws whose f no longer matches its log,
    # where the row must not vanish
    bumped = [mutate_alpha(base, i, j, delta)
              for base in (fgl.miscenko_law(8), fgl.multiplicative_law(1, 10),
                           two_parameter_law(2, 3, 10))
              for i, j in ((1, 1), (1, 2), (2, 2), (1, 3)) for delta in (1, -1, -2)]
    for law in [fgl.parse_law(spec, order + 1) for spec, order in SUITE_LAWS] + bumped:
        [(name, difference)] = pontclass._lemma61(law, law.order)
        expected = lemma61_by_product(law)
        assert name == "lemma61"
        assert difference == expected, law
        assert difference.order == expected.order == law.order - 1, law
        assert difference.is_zero() is (law not in bumped), law


def test_derived_series_built_once_per_law():
    law = fgl.multiplicative_law(1, 6)
    a = fgl.a_series(law)
    assert fgl.a_series(law) is a
    assert fgl.n_series(law, 2) is fgl.n_series(law, 2)
    assert fgl.n_series(law, 3) is not fgl.n_series(law, 2)
    smaller = truncated_law(law, 4)
    assert smaller.derived == {}
    assert fgl.a_series(smaller) == a.truncate(3)


# -- explicit checks ------------------------------------------------------------------


def test_cross_check_is_not_stripped_by_python_O():
    # the log route is corrupted, so the closed form must be refused even
    # under -O, which strips assert statements
    script = textwrap.dedent("""
        import sys
        from cobcalc import cli, fgl
        from cobcalc.pseries import CheckFailed
        real = fgl.multiplicative_log
        fgl.multiplicative_log = lambda beta, order: real(beta + 1, order)
        try:
            fgl.multiplicative_law(1, 4)
        except CheckFailed as exc:
            print(sys.flags.optimize, exc)
        print(cli.main(["expand", "--law", "mult:1", "--order", "4"]))
        """)
    src = str(Path(fgl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.splitlines() == [
        "1 law mult:1: the logarithm and the closed form disagree", "2"]
    assert done.stderr == ("error: law mult:1: the logarithm and the closed "
                           "form disagree\n")


LOG_ROUTE_BETAS = (1, -1, 2, -2, 3, Fraction(1, 2))


def _old_log_route_agrees(law):
    """The comparison the cross-check replaced: rebuild f through the
    reversion g^{-1}(g(u) + g(v)) and compare it with the closed form."""
    return law_by_composition(law.log)[0] == law.f


def _log_route_accepts(law):
    try:
        fgl._check_log_route(law)
    except CheckFailed as exc:
        assert str(exc) == f"law {law.tag}: the logarithm and the closed form disagree"
        return False
    return True


def _mult_f(beta, n):
    return TruncatedSeries.from_terms({(1, 0): 1, (0, 1): 1, (1, 1): beta}, UV, n)


def _closed_form_laws():
    return ([fgl.additive_law(n) for n in range(1, 17)]
            + [fgl.multiplicative_law(beta, n)
               for beta in LOG_ROUTE_BETAS for n in range(2, 17)])


def test_log_route_accepts_every_additive_and_multiplicative_law():
    for law in _closed_form_laws():
        assert _log_route_accepts(law), law
        assert _old_log_route_agrees(law), law


def test_closed_form_inverses_match_the_solver_and_the_log_route():
    # ubar = -u and ubar = -u/(1 + beta*u) against f(u, ubar) = 0 solved
    # degree by degree, and against g^{-1}(-g(u)) from the law's log
    for law in _closed_form_laws():
        g = law.log
        assert law.inverse == solve_inverse(law.f, law.order), law
        assert law.inverse == g.reversion().evaluate({"u": -g}), law


def _custom_law(f, n, log):
    return fgl.from_f(f, "custom", log, solve_inverse(f, n))


def _one_coefficient_off():
    """Closed forms that disagree with their log by one coefficient: the
    degree-2 term (a wrong beta), a top-degree term, and the log's top term."""
    cases = []
    for beta in LOG_ROUTE_BETAS:
        for n in (2, 3, 6, 11):
            log = fgl.multiplicative_log(Fraction(beta), n)
            cases.append(_custom_law(_mult_f(beta + 1, n), n, log))
            for i in range(n + 1):
                top = TruncatedSeries.from_terms({(i, n - i): 1}, UV, n)
                cases.append(_custom_law(_mult_f(beta, n) + top, n, log))
            bumped = log + s1({(n,): Fraction(1, 7)}, n)
            cases.append(_custom_law(_mult_f(beta, n), n, bumped))
    for n in (2, 4, 9):  # at n = 1 a bumped log is a rescaled one, same law
        ident = TruncatedSeries.from_terms({(1, 0): 1, (0, 1): 1}, UV, n)
        cases.append(_custom_law(ident, n, fgl.additive_log(n) + s1({(n,): 1}, n)))
    return cases


def test_log_route_refuses_a_closed_form_off_by_one_coefficient():
    cases = _one_coefficient_off()
    assert len(cases) > 100
    for law in cases:
        assert not _log_route_accepts(law), law
        assert not _old_log_route_agrees(law), law


def test_log_route_builds_no_reversion(monkeypatch):
    def refused(self):
        raise AssertionError("a law build reverted or inverted a series")

    for name in ("reversion", "reciprocal"):
        monkeypatch.setattr(TruncatedSeries, name, refused)
    assert fgl.multiplicative_law(3, 12).order == 12
    assert fgl.additive_law(12).order == 12
    assert fgl.miscenko_law(12).order == 12


def test_closed_form_builds_compose_nothing_in_two_variables(monkeypatch):
    # the residue check f(u, ubar) = 0 substitutes series in u alone; the
    # cross-check against the log substitutes nothing, and neither does
    # the Lie series that builds a law from its log
    real = TruncatedSeries.evaluate

    def one_variable_values(self, values, *args):
        if any(len(value.variables) > 1 for value in values.values()):
            raise AssertionError("a closed-form build composed a series in (u, v)")
        return real(self, values, *args)

    monkeypatch.setattr(TruncatedSeries, "evaluate", one_variable_values)
    assert fgl.multiplicative_law(3, 24).order == 24
    assert fgl.additive_law(24).order == 24
    assert two_parameter_law(2, 3, 12).order == 12
    assert fgl.miscenko_law(12).order == 12
    assert fgl.from_log(fgl.multiplicative_log(Fraction(-2), 12)).order == 12


def _composition_accepts(law):
    try:
        log_route_by_composition(law)
    except (CheckFailed, NonzeroConstantTerm):
        return False
    return True


@st.composite
def _perturbed_closed_forms(draw):
    """A closed-form law at order 1-12 with one coefficient of f (the
    constant and one-variable terms included) or of g (its constant and
    linear terms included) moved by a nonzero rational, built directly so
    no other check runs first.  g'(0) = 0 is pinned on its own."""
    kind = draw(st.sampled_from(("additive", "mult", "two_parameter")))
    n = draw(st.integers(min_value=2 if kind == "mult" else 1, max_value=12))
    if kind == "additive":
        law = fgl.additive_law(n)
    elif kind == "mult":
        law = fgl.multiplicative_law(draw(st.sampled_from(LOG_ROUTE_BETAS)), n)
    else:
        law = two_parameter_law(*draw(st.sampled_from(TWO_PARAMETER_GRID)), n)
    delta = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)
                 .filter(bool))
    f, g = law.f, law.log
    degree = draw(st.integers(min_value=0, max_value=n))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=degree))
        f = f + TruncatedSeries.from_terms({(i, degree - i): delta}, UV, n)
    else:
        g = g + s1({(degree,): delta}, n)
        assume(g.coefficient((1,)))
    return fgl.FormalGroupLaw(law.tag, f, law.inverse, g)


def _two_products_accept(law):
    try:
        log_route_by_two_products(law)
    except CheckFailed:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_perturbed_closed_forms())
def test_differential_check_accepts_exactly_what_composition_accepts(law):
    assert _log_route_accepts(law) == _composition_accepts(law), (law.f, law.log)
    assert _log_route_accepts(law) == _two_products_accept(law), (law.f, law.log)


def test_one_product_check_agrees_with_the_two_product_form():
    # f and g'(v) df/du both swap invariant, against
    # g'(u) df/dv = g'(v) df/du compared as two products
    refused = _one_coefficient_off()
    for base in (fgl.miscenko_law(7), fgl.multiplicative_law(3, 7),
                 two_parameter_law(2, 3, 7)):
        refused += [mutate_alpha(base, i, j, delta)
                    for i, j in ((1, 2), (2, 1), (1, 3), (3, 4), (1, 6), (2, 4))
                    for delta in (1, Fraction(-1, 3))]
    for law in refused:
        assert not _log_route_accepts(law), law
        assert not _two_products_accept(law), law
    for law in _closed_form_laws() + [fgl.miscenko_law(n) for n in range(1, 10)]:
        assert _log_route_accepts(law), law
        assert _two_products_accept(law), law


def test_log_route_refuses_a_log_with_a_constant_term_or_no_linear_term():
    law = fgl.multiplicative_law(2, 8)
    f, g = law.f, law.log

    def with_log(log):
        return fgl.FormalGroupLaw(law.tag, f, law.inverse, log)

    assert not _log_route_accepts(with_log(g + s1({(0,): 1}, 8)))
    assert not _log_route_accepts(with_log(g - s1({(1,): 1}, 8)))
    # the composition accepts g = 0 for the additive law, since 0 = 0 + 0;
    # the differential refuses it, and accepts a rescaled log as both do
    additive = fgl.additive_law(8)
    for log, accepted in ((TruncatedSeries.zero(U1, 8), False),
                          (additive.log.scale(2), True)):
        rescaled = fgl.FormalGroupLaw("additive", additive.f,
                                      additive.inverse, log)
        assert _composition_accepts(rescaled)
        assert _log_route_accepts(rescaled) == accepted


# -- mutation ------------------------------------------------------------------------


def test_mutated_alpha11_breaks_associativity():
    law = mutate_alpha(fgl.miscenko_law(6), 1, 1, 1)
    rows = {r.identity: r for r in fgl.verify_axioms(law)}
    assert rows["commutativity"].passed
    assert not rows["associativity"].passed
    # the first associator obstruction of a commutative jet sits in degree 4
    assert rows["associativity"].first_failing_degree == 4
    assert rows["associativity"] == check_zero(
        "associativity", law.tag, direct_associativity(law.f))


@pytest.mark.parametrize("law, failing", [
    (fgl.miscenko_law(6), []),
    (mutate_alpha(fgl.miscenko_law(7), 3, 4, 1), ["commutativity", "associativity"]),
], ids=lambda x: getattr(x, "tag", None))
def test_verify_axioms_checks_the_axiom_differences(law, failing):
    rows = fgl.verify_axioms(law)
    assert rows == [check_zero(name, law.tag, difference)
                    for name, difference in fgl.axiom_differences(law, law.order)]
    assert [r.identity for r in rows if not r.passed] == failing


#: Laws assembled with ubar off by one at each degree d, their rows compared
#: at the law's order and one order lower: miscenko, additive, mult:1, the
#: two-parameter law and a non-commutative mutant.
INVERSE_BUMPS = [
    (law, degree, order)
    for law in (fgl.miscenko_law(6), fgl.additive_law(6),
                fgl.multiplicative_law(1, 6), two_parameter_law(2, 3, 8),
                mutate_alpha(fgl.miscenko_law(7), 3, 4, 1))
    for degree in range(1, law.order + 1)
    for order in (law.order, law.order - 1)]


@pytest.mark.parametrize("law, degree, order", INVERSE_BUMPS,
                         ids=lambda x: str(getattr(x, "tag", x)))
def test_axiom_rows_are_the_composition_route_on_a_bumped_inverse(
        law, degree, order):
    # the inverse row reads the remainder of the division that builds Phi;
    # a row that returned a zero series would pass every bumped law
    bump = s1({(degree,): 1}, law.order)
    bad = fgl.FormalGroupLaw(law.tag, law.f, law.inverse + bump, law.log)
    expected = [check_zero(name, law.tag, difference) for name, difference
                in axiom_differences_by_composition(bad, order)]
    assert fgl.verify_axioms(truncated_law(bad, order)) == expected
    assert pontclass.verify_identity_suite(bad, "axioms", order) == expected
    inverse = expected[-1]
    assert inverse.identity == "inverse" and inverse.order == order
    if degree <= order:
        assert (inverse.passed, inverse.first_failing_degree) == (False, degree)
    else:
        assert inverse.passed


def test_axioms_group_composes_nothing_with_the_inverse(monkeypatch):
    # unitality twice and the associator's left side; composing f(u, ubar)
    # made a fourth, on a copy of the law truncated to the suite order
    law = fgl.miscenko_law(10)
    calls, built = [], []
    evaluate, init = TruncatedSeries.evaluate, fgl.FormalGroupLaw.__init__

    def counted(self, values, *args):
        calls.append(values)
        return evaluate(self, values, *args)

    def constructed(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(TruncatedSeries, "evaluate", counted)
    monkeypatch.setattr(fgl.FormalGroupLaw, "__init__", constructed)
    rows = pontclass.verify_identity_suite(law, "axioms", 9)
    monkeypatch.undo()
    assert [(r.order, r.passed) for r in rows] == [(9, True)] * 5
    assert (len(calls), len(built)) == (3, 0)


def test_non_commutative_mutation_fails_both_rows_at_its_degree():
    # alpha_34 alone breaks the symmetry of f, so the right side is
    # composed directly and the associator is that of the mutated f
    law = mutate_alpha(fgl.miscenko_law(7), 3, 4, 1)
    rows = {r.identity: r for r in fgl.verify_axioms(law)}
    assert not rows["commutativity"].passed
    assert rows["commutativity"].first_failing_degree == 7
    assert rows["associativity"].first_failing_degree == 7
    assert rows["associativity"] == check_zero(
        "associativity", law.tag, direct_associativity(law.f))


@settings(max_examples=10, deadline=None)
@given(st.tuples(st.integers(min_value=1, max_value=3),
                 st.integers(min_value=1, max_value=3)).filter(
                     lambda ij: sum(ij) <= 5))
def test_any_single_alpha_mutation_fails_some_check(ij):
    i, j = ij
    law = mutate_alpha(fgl.miscenko_law(5), i, j, 1)
    cp = fgl.cp_series(law)
    lhs = law.f.partial_derivative("v") * cp.evaluate({"u": law.f})
    rhs = cp.rename({"u": "v"}).extend(UV)
    assert not (lhs - rhs).is_zero()
