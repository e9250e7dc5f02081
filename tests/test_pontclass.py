import contextlib
import functools
import io
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import coeffring, fgl, pontclass as pc
from cobcalc.cli import main
from cobcalc.coeffring import CoeffPoly
from cobcalc.intlattice import IntegerLattice
from cobcalc.pseries import CheckFailed, NonzeroRemainder, TruncatedSeries
from oracles import (SUITE_LAWS, TWO_PARAMETER_GRID, count_products,
                     delta_d_by_divided_difference, mutate_alpha,
                     phi_by_divided_difference, phi_rows_by_separate_products,
                     specialize_to_two_parameter, two_parameter_law,
                     without_table)

U1 = ("u",)
UV = ("u", "v")


def s2(terms, order):
    return TruncatedSeries.from_terms(terms, UV, order)


# -- Phi ---------------------------------------------------------------------


def alpha_table_phi(law):
    """Oracle: Phi = 1 + sum alpha_ij u^i (v^j - ubar^j)/(v - ubar), with each
    divided difference expanded as the polynomial sum_m v^m ubar^(j-1-m).
    Only degrees <= n - 1 are trusted: the alpha_ij with i + j = n + 1 that
    the degree-n part needs lie beyond the law's order."""
    n = law.order
    ub = law.inverse.extend(UV)
    ub_pow = [TruncatedSeries.one(UV, n), ub]
    result = TruncatedSeries.one(UV, n)
    for (i, j), c in sorted(fgl.alpha_table(law).items()):
        while len(ub_pow) <= j - 1:
            ub_pow.append(ub_pow[-1] * ub)
        inner = TruncatedSeries.zero(UV, n)
        for m in range(j):
            inner = inner + ub_pow[j - 1 - m].times_monomial((0, m))
        result = result + inner.times_monomial((i, 0)).scale(c)
    return result.truncate(n - 1)


def test_phi_closed_forms():
    assert pc.phi_series(fgl.additive_law(6)) == TruncatedSeries.one(UV, 5)
    assert pc.phi_series(fgl.multiplicative_law(1, 6)) == s2({(0, 0): 1, (1, 0): 1}, 5)


@pytest.mark.parametrize("spec, order", [
    ("miscenko", 7), ("additive", 7), ("mult:1", 7), ("mult:-2", 6),
    ("mult:1/3", 6)])
def test_phi_matches_alpha_table_oracle(spec, order):
    law = fgl.parse_law(spec, order)
    assert pc.phi_series(law) == alpha_table_phi(law)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_phi_trusted_to_its_claimed_order(n):
    # every stored degree <= order is final: a deeper law must agree there
    phi = pc.phi_series(fgl.miscenko_law(n))
    assert phi == pc.phi_series(fgl.miscenko_law(n + 1)).truncate(phi.order)
    assert phi.order == n - 1


@pytest.mark.parametrize("spec, order", SUITE_LAWS)
def test_phi_is_the_divided_difference_route_on_suite_laws(spec, order):
    law = fgl.parse_law(spec, order + 1)
    assert pc.phi_series(law) == phi_by_divided_difference(law)


@pytest.mark.parametrize("a, b", TWO_PARAMETER_GRID)
def test_phi_is_the_divided_difference_route_on_two_parameter_laws(a, b):
    law = two_parameter_law(a, b, 10)
    assert pc.phi_series(law) == phi_by_divided_difference(law)


@pytest.mark.parametrize("n", [12, 16])
def test_phi_is_the_divided_difference_route_on_deep_universal_laws(n):
    law = fgl.miscenko_law(n)
    assert pc.phi_series(law) == phi_by_divided_difference(law)


def inverse_off_at_top(law):
    """The law with 1 added to the top coefficient of its inverse.  The
    package's constructors refuse such an inverse, so it is assembled
    directly."""
    n = law.order
    bump = TruncatedSeries.from_terms({(n,): 1}, U1, n)
    return fgl.FormalGroupLaw(law.tag, law.f, law.inverse + bump, law.log)


@pytest.mark.parametrize("law", [
    fgl.miscenko_law(6), fgl.additive_law(6), fgl.multiplicative_law(1, 6),
    two_parameter_law(2, 3, 8)], ids=lambda law: law.tag)
def test_phi_refuses_an_inverse_off_at_its_top_coefficient(law):
    # f(u, ubar) is off by the bump times the v-coefficient 1 of f, at
    # the top degree, where Phi itself is not trusted
    with pytest.raises(NonzeroRemainder, match=rf"term 1 at u\^{law.order}:"):
        pc.phi_series(inverse_off_at_top(law))


def test_phi_remainder_check_is_not_stripped_by_python_O():
    # -O strips assert statements
    script = textwrap.dedent("""
        import sys
        from cobcalc import fgl, pontclass
        from cobcalc.pseries import CheckFailed, NonzeroRemainder, TruncatedSeries
        law = fgl.multiplicative_law(1, 6)
        bump = TruncatedSeries.from_terms({(6,): 1}, ("u",), 6)
        bad = fgl.FormalGroupLaw(law.tag, law.f, law.inverse + bump, law.log)
        try:
            pontclass.phi_series(bad)
        except NonzeroRemainder as exc:
            print(sys.flags.optimize, exc)
        """)
    src = str(Path(fgl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout == ("1 division by (v - ubar(u)) leaves remainder term 1 "
                           "at u^6: f(u, ubar(u)) is not zero\n")
    assert done.stderr == ""


@pytest.mark.parametrize("law", [
    fgl.miscenko_law(6), fgl.additive_law(6), fgl.multiplicative_law(1, 6),
    two_parameter_law(2, 3, 8)], ids=lambda law: law.tag)
def test_from_f_refuses_an_inverse_off_at_its_top_coefficient(law):
    # the division that builds Phi is the law's only check of its inverse
    bad = inverse_off_at_top(law)
    with pytest.raises(CheckFailed) as refused:
        fgl.from_f(bad.f, bad.tag, bad.log, bad.inverse)
    assert str(refused.value) == f"law {law.tag}: f(u, ubar(u)) is not zero"
    assert isinstance(refused.value.__cause__, NonzeroRemainder)


def test_from_f_refusal_is_not_stripped_by_python_O():
    script = textwrap.dedent("""
        import sys
        from cobcalc import fgl
        from cobcalc.pseries import CheckFailed, TruncatedSeries
        from oracles import two_parameter_law
        for law in (fgl.miscenko_law(6), fgl.additive_law(6),
                    fgl.multiplicative_law(1, 6), two_parameter_law(2, 3, 8)):
            bump = TruncatedSeries.from_terms({(law.order,): 1}, ("u",), law.order)
            try:
                fgl.from_f(law.f, law.tag, law.log, law.inverse + bump)
            except CheckFailed as exc:
                print(sys.flags.optimize, type(exc.__cause__).__name__, exc)
        """)
    src = str(Path(fgl.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": f"{src}:{tests}"}, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.splitlines() == [
        f"1 NonzeroRemainder law {tag}: f(u, ubar(u)) is not zero"
        for tag in ("miscenko", "additive", "mult:1", "todd:2,3")]
    assert done.stderr == ""


def test_a_constructed_law_holds_its_phi():
    law = fgl.parse_law("miscenko", 10)
    assert ("phi_series",) in law.derived


@pytest.mark.parametrize("spec", ["miscenko", "additive", "mult:1", "mult:1/2"])
def test_law_construction_composes_nothing_with_the_inverse(monkeypatch, spec):
    # f(u, ubar) is the remainder of the division that builds Phi; no
    # composition computes it a second time (a closed form composes nothing)
    substituted = []
    evaluate = TruncatedSeries.evaluate

    def recorded(self, values, *args):
        substituted.extend(values.values())
        return evaluate(self, values, *args)

    monkeypatch.setattr(TruncatedSeries, "evaluate", recorded)
    law = fgl.parse_law(spec, 10)
    monkeypatch.undo()
    assert not [s for s in substituted if s == law.inverse]


def phi_factorization_difference(law, order):
    """The difference series that the phi_factorization row checks."""
    return dict(pc._GROUPS["phi_factorization"](law, order))["phi_factorization"]


@pytest.mark.parametrize("law, order", [
    *((fgl.parse_law(spec, order + 1), order) for spec, order in SUITE_LAWS),
    *((two_parameter_law(a, b, 10), 9) for a, b in TWO_PARAMETER_GRID)],
    ids=lambda x: getattr(x, "tag", x))
def test_phi_factorization_difference_is_the_recomposed_expression(law, order):
    # f(u, ubar) is zero once Phi is built, so checking f - (v - ubar) Phi
    # is checking (f - f(u, ubar)) - (v - ubar) Phi
    n = law.order
    u2, v2 = (TruncatedSeries.variable(x, UV, n) for x in UV)
    ub2 = law.inverse.extend(UV)
    f_u_ubar = law.f.evaluate({"u": u2, "v": ub2})
    old = (law.f - f_u_ubar) - (v2 - ub2) * pc.phi_series(law)
    assert phi_factorization_difference(law, order) == old


def test_phi_factorization_and_diagonal(miscenko8):
    phi = pc.phi_series(miscenko8)
    n = miscenko8.order
    u2 = TruncatedSeries.variable("u", UV, n)
    v2 = TruncatedSeries.variable("v", UV, n)
    ub2 = miscenko8.inverse.extend(UV)
    f_u_ubar = miscenko8.f.evaluate({"u": u2, "v": ub2})
    assert f_u_ubar.is_zero()
    assert ((miscenko8.f - f_u_ubar) - (v2 - ub2) * phi).is_zero()
    u1 = TruncatedSeries.variable("u", U1, n)
    diag = phi.evaluate({"u": u1, "v": u1})
    assert ((u1 - miscenko8.inverse) * diag - fgl.n_series(miscenko8, 2)).is_zero()


def phi_row_differences(law, order):
    """The difference series of the three Phi rows, as the package builds
    them."""
    rows = {**dict(pc._GROUPS["phi_factorization"](law, order)),
            **dict(pc._GROUPS["two_series_hom"](law, order))}
    return {name: rows[name] for name in ("phi_factorization", "phi_diagonal",
                                          "chained_phi")}


@pytest.mark.parametrize("spec, order", SUITE_LAWS)
def test_phi_rows_are_the_separate_product_routes_on_suite_laws(spec, order):
    law = fgl.parse_law(spec, order + 1)
    assert phi_row_differences(law, order) == phi_rows_by_separate_products(law)


@pytest.mark.parametrize("spec, order, ev", [
    ("miscenko", 8, (2, 1)), ("mult:-2", 8, (0, 3)), ("additive", 6, (1, 0))])
def test_phi_rows_are_the_separate_product_routes_for_a_perturbed_phi(
        spec, order, ev):
    # reading all three rows from one product (v - ubar) Phi holds for any
    # Phi, not only for the true one: each row sees the bumped term, and
    # both routes give the same nonzero differences
    law = fgl.parse_law(spec, order + 1)
    phi = fgl.phi_series(law)
    bump = TruncatedSeries.from_terms({ev: 3}, UV, phi.order)
    law.derived[("phi_series",)] = phi + bump
    package = phi_row_differences(law, order)
    assert package == phi_rows_by_separate_products(law)
    assert not any(difference.is_zero() for difference in package.values())


def test_v_minus_ubar_times_phi_is_built_once_per_law(monkeypatch):
    # phi_factorization, phi_diagonal and chained_phi read one product
    built = []
    build = pc.phi_numerator.__wrapped__

    @functools.wraps(build)
    def counted(law):
        built.append(law.tag)
        return build(law)

    monkeypatch.setattr(pc, "phi_numerator", fgl.per_law(counted))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "all", "--law", "mult:1", "--order", "6"]) == 0
        assert main(["verify", "exact", "--law", "miscenko", "--order", "6"]) == 0
    assert built == ["mult:1", "miscenko"]


@pytest.mark.parametrize("spec, suite", [("mult:1", "all"), ("miscenko", "exact")])
def test_the_suite_multiplies_v_minus_ubar_by_phi_once(monkeypatch, spec, suite):
    # counted at the product itself, whichever function makes it
    law = fgl.parse_law(spec, 8)
    phi = fgl.phi_series(law)
    factor = TruncatedSeries.variable("v", UV, 8) - law.inverse.extend(UV)
    products = []
    product = TruncatedSeries.__mul__

    def recorded(a, b):
        if b is phi and a == factor:
            products.append(a)
        return product(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recorded)
    assert all(r.passed for r in pc.verify_identity_suite(law, suite, 7))
    assert len(products) == 1


# -- delta and d ------------------------------------------------------------------


def test_delta_d_closed_forms():
    delta, d = pc.delta_d_series(fgl.additive_law(8))
    assert delta.is_zero()
    assert d == TruncatedSeries.constant(-2, UV, d.order)
    delta, d = pc.delta_d_series(fgl.multiplicative_law(1, 8))
    assert delta == TruncatedSeries.one(UV, delta.order)
    assert d == TruncatedSeries.constant(-2, UV, d.order)


def test_delta_d_symmetric_and_constant_term(miscenko8):
    delta, d = pc.delta_d_series(miscenko8)
    for s in (delta, d):
        assert s == s.rename({"u": "v", "v": "u"}).extend(UV)
    assert delta.constant_term() == fgl.alpha_table(miscenko8)[(1, 1)]
    assert d.constant_term() == CoeffPoly.const(-2)


@pytest.mark.parametrize("spec, order", SUITE_LAWS)
def test_delta_d_are_the_divided_difference_route_on_suite_laws(spec, order):
    law = fgl.parse_law(spec, order + 1)
    assert pc.delta_d_series(law) == delta_d_by_divided_difference(law)


@pytest.mark.parametrize("a, b", TWO_PARAMETER_GRID)
def test_delta_d_are_the_divided_difference_route_on_two_parameter_laws(a, b):
    law = two_parameter_law(a, b, 10)
    assert pc.delta_d_series(law) == delta_d_by_divided_difference(law)


@pytest.mark.parametrize("n", [12, 16])
def test_delta_d_are_the_divided_difference_route_on_deep_universal_laws(n):
    law = fgl.miscenko_law(n)
    assert pc.delta_d_series(law) == delta_d_by_divided_difference(law)


@pytest.mark.parametrize("law", [
    fgl.miscenko_law(1), fgl.additive_law(1), two_parameter_law(2, 3, 1)],
    ids=lambda law: law.tag)
def test_delta_d_of_an_order_one_law(law):
    # a is trusted to order 0 only, so delta, one degree lower, trusts no term
    delta, d = pc.delta_d_series(law)
    assert (delta.order, d.order) == (-1, 0)
    assert (delta, d) == delta_d_by_divided_difference(law)


# -- trusted orders ------------------------------------------------------------------


#: Law builders by name, with the least order each accepts, memoized so a law
#: built at n + 3 for one order is the law built at n for another.
TRUST_LAWS = {
    "miscenko": (1, functools.cache(fgl.miscenko_law)),
    "additive": (1, functools.cache(fgl.additive_law)),
    "mult:2": (2, functools.cache(functools.partial(fgl.multiplicative_law, 2))),
    "todd:2,3": (1, functools.cache(functools.partial(two_parameter_law, 2, 3))),
}


def derived_series(law):
    """Every series derived from the law, by name; b needs order 2 for uv."""
    phi, remainder = fgl.phi_division(law)
    alpha, alpha0, alpha1 = fgl.alpha_series(law)
    delta, d = pc.delta_d_series(law)
    series = {"phi": phi, "remainder": remainder, "two_series": fgl.n_series(law, 2),
              "a": fgl.a_series(law), "alpha": alpha, "alpha0": alpha0,
              "alpha1": alpha1, "delta": delta, "d": d,
              "phi_numerator": pc.phi_numerator(law), "a_of_f": pc.a_of_f(law),
              "cp": fgl.cp_series(law)}
    if law.order >= 2:
        series["b"] = pc.b_series(law)
    return series


@pytest.mark.parametrize("name, n", [(name, n) for name, (least, _) in TRUST_LAWS.items()
                                     for n in range(least, 9)])
def test_derived_series_are_true_to_the_order_they_claim(name, n):
    # a series may claim order -1 (no term trusted) but never a degree
    # whose coefficient the law's order cannot fix
    build = TRUST_LAWS[name][1]
    deeper = derived_series(build(n + 3))
    for key, s in derived_series(build(n)).items():
        assert s == deeper[key].truncate(s.order), key


@settings(max_examples=50, deadline=None)
@given(a=st.integers(-3, 3), b=st.integers(-3, 3), order=st.integers(1, 10))
def test_universal_series_specialize_to_the_two_parameter_law(a, b, order):
    """Under cp_n -> h_n(a, b), the universal law's f, ubar, g and every
    derived series (b, whose mixed coefficients are the beta table,
    included) equal those of the closed-form law of chi_(a,b).

    Limit: both sides run the same derived-series algorithms
    (``phi_division``, ``n_series``, ``b_series``, ...), so this checks the
    coefficient arithmetic and the universal construction, not those
    algorithms."""
    universal = TRUST_LAWS["miscenko"][1](order)
    closed = two_parameter_law(a, b, order)
    expected = {"f": closed.f, "ubar": closed.inverse, "log": closed.log,
                **derived_series(closed)}
    for key, s in {"f": universal.f, "ubar": universal.inverse, "log": universal.log,
                   **derived_series(universal)}.items():
        assert specialize_to_two_parameter(s, a, b) == expected[key], key


# -- b series ------------------------------------------------------------------------


def test_b_closed_forms():
    assert pc.b_series(fgl.additive_law(12)) == \
        s2({(1, 0): 1, (0, 1): 1}, 12)
    assert pc.b_series(fgl.multiplicative_law(1, 12)) == \
        s2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, 12)


def test_b_unit_and_symmetry(miscenko8):
    b = pc.b_series(miscenko8)
    at_zero = b.evaluate({"u": TruncatedSeries.variable("u", U1, b.order),
                          "v": TruncatedSeries.zero(U1, b.order)})
    assert at_zero == TruncatedSeries.variable("u", U1, b.order)
    assert b == b.rename({"u": "v", "v": "u"}).extend(UV)


def _beta_table(b: TruncatedSeries) -> dict:
    """The beta table: the terms of b with k, l >= 1."""
    return {(k, l): c for (k, l), c in b.terms.items() if k >= 1 and l >= 1}


def test_beta_table_properties(miscenko8):
    beta = _beta_table(pc.b_series(miscenko8))
    table = fgl.alpha_table(miscenko8)
    assert beta[(1, 1)] == table[(1, 1)]
    for (k, l), c in beta.items():
        assert beta[(l, k)] == c
        assert c.is_homogeneous(k + l - 1)


def test_line_bundle_reconstruction(miscenko8):
    # with s_(k-1)(u) = u^k the addition formula is literally the b series
    b = pc.b_series(miscenko8)
    n = b.order
    rebuilt = (TruncatedSeries.variable("u", UV, n)
               + TruncatedSeries.variable("v", UV, n))
    for (k, l), c in _beta_table(b).items():
        rebuilt = rebuilt + TruncatedSeries.from_terms({(k, l): c}, UV, n)
    assert rebuilt == b


def test_two_series_of_f_is_f_times_a_of_f(miscenko8):
    # [f(u,v)]_2 = f(u,v) a(f(u,v))
    two = fgl.n_series(miscenko8, 2)
    lhs = two.evaluate({"u": miscenko8.f})
    rhs = miscenko8.f * fgl.a_series(miscenko8).evaluate({"u": miscenko8.f})
    assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("spec, order", [
    *[(spec, n) for spec in ("miscenko", "additive") for n in range(1, 10)],
    *[(spec, n) for spec in ("mult:1", "mult:-2", "mult:3") for n in range(2, 13)]])
def test_two_series_of_f_is_exactly_f_times_a_of_f(spec, order):
    # a(f) is trusted to n - 1, yet f a(f) is exact to n in every term
    law = fgl.parse_law(spec, order)
    two_of_f = fgl.n_series(law, 2).evaluate({"u": law.f})
    assert two_of_f == law.f * pc.a_of_f(law)._assume_order(order)
    assert two_of_f.order == order


def _table_compositions_and_rows(monkeypatch, make_law, order):
    """The (series, values, result) of every composition that reads a table
    of f's powers while the whole suite runs on a law from make_law, its
    rows, and the rows of the suite on a second such law whose f carries
    no table, so each composition builds its value's own powers."""
    real = TruncatedSeries.evaluate
    calls = []

    def recorded(self, values):
        result = real(self, values)
        if any(v._powers is not None for v in values.values()):
            calls.append((self, values, result))
        return result

    monkeypatch.setattr(TruncatedSeries, "evaluate", recorded)
    rows = pc.verify_identity_suite(make_law(), "all", order)
    monkeypatch.undo()
    monkeypatch.setattr(TruncatedSeries, "with_power_table", without_table)
    plain_rows = pc.verify_identity_suite(make_law(), "all", order)
    monkeypatch.undo()
    return calls, rows, plain_rows


def _miscenko_mutant(i, j):
    return mutate_alpha(fgl.miscenko_law(6), i, j, 1)


@pytest.mark.parametrize("make_law, order", [
    *[pytest.param(functools.partial(fgl.parse_law, spec, order + 1), order,
                   id=f"{spec}-{order}") for spec, order in SUITE_LAWS],
    *[pytest.param(functools.partial(_miscenko_mutant, i, j), 5, id=f"miscenko+e{i}{j}")
      for i in range(1, 6) for j in range(1, 7 - i)]])
def test_compositions_reading_the_table_of_f_match_plain_composition(
        monkeypatch, make_law, order):
    # g(f) in lemma61, a(f) and the associator's left side f(f(u,v), w);
    # the mutants fail rows, so their witnesses are compared too
    calls, rows, plain_rows = _table_compositions_and_rows(
        monkeypatch, make_law, order)
    assert len(calls) == 3
    for s, values, result in calls:
        assert result == s.evaluate({x: without_table(v) for x, v in values.items()})
    assert rows == plain_rows
    assert all(r.passed for r in rows) is ("+" not in rows[0].law)


def test_each_power_of_f_is_built_once_per_law(monkeypatch):
    # g(f) in lemma61, a(f) and the associator's f(f(u,v), w) read one
    # table of f's powers at the law's order; each used to build its own
    f = fgl.parse_law("miscenko", 10).f
    powers = [f]
    while len(powers) < f.order:
        powers.append(powers[-1] * f)
    built = []
    real = TruncatedSeries.__mul__

    def recorded(self, other):
        result = real(self, other)
        built.append(result)
        return result

    monkeypatch.setattr(TruncatedSeries, "__mul__", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "exact", "--law", "miscenko", "--order", "9"]) == 0
    monkeypatch.undo()
    counts = dict.fromkeys(range(2, f.order + 1), 0)
    for s in built:
        if s.variables == fgl.UVW and not any(ev[2] for ev in s.terms):
            s = s.restrict(UV)
        for k in counts:
            # f^k starts at degree k, so below that order it is no witness
            if (s.variables == UV and k <= s.order <= f.order
                    and s == powers[k - 1].truncate(s.order)):
                counts[k] += 1
    assert counts == dict.fromkeys(counts, 1)


def test_mirrored_values_multiply_each_cross_product_once(monkeypatch):
    # in f([u]_2, [v]_2) and Phi([u]_2, [v]_2) the product X^j Y^i, j > i,
    # is the mirror of X^i Y^j, so only the products with i <= j are made
    two = fgl.n_series(fgl.parse_law("miscenko", 10), 2).extend(UV).truncate(9)
    xs = [two]
    while len(xs) < 9:
        xs.append(xs[-1] * two)
    ys = [TruncatedSeries(UV, x.order, {(b, a): c for (a, b), c in x.terms.items()})
          for x in xs]
    crossed = []
    real = TruncatedSeries.__mul__

    def recorded(self, other):
        i = next((k for k, x in enumerate(xs, 1) if x == self), None)
        j = next((k for k, y in enumerate(ys, 1) if y == other), None)
        if i and j:
            crossed.append((i, j))
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "exact", "--law", "miscenko", "--order", "9"]) == 0
    monkeypatch.undo()
    # once in each of the two compositions
    assert crossed and all(i <= j for i, j in crossed)
    assert all(crossed.count(ij) == 2 for ij in crossed)


def test_a_of_f_is_built_once_per_law(monkeypatch):
    built = []
    build = pc.a_of_f.__wrapped__

    @functools.wraps(build)
    def counted(law):
        built.append(law.tag)
        return build(law)

    monkeypatch.setattr(pc, "a_of_f", fgl.per_law(counted))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "all", "--law", "mult:1", "--order", "6"]) == 0
    assert built == ["mult:1"]


def test_phi_is_built_once_per_law(monkeypatch):
    # by the law's construction, which checks the inverse with it; every
    # Phi row, thm66_in_A and chained_phi read that one quotient
    built = []
    build = fgl.phi_series.__wrapped__

    @functools.wraps(build)
    def counted(law):
        built.append(law.tag)
        return build(law)

    monkeypatch.setattr(fgl, "phi_series", fgl.per_law(counted))
    monkeypatch.setattr(pc, "phi_series", fgl.phi_series)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "exact", "--law", "miscenko", "--order", "6"]) == 0
        assert main(["verify", "all", "--law", "mult:1", "--order", "6"]) == 0
    assert built == ["miscenko", "mult:1"]


@pytest.mark.parametrize("order, products", [(6, 4982), (9, 44829), (14, 971928)],
                         ids=("order6", "order9", "order14"))
def test_exact_suite_monomial_products_stay_within_their_recorded_counts(
        order, products):
    # the deterministic cost unit: a later change may not give back the
    # products that synthetic division, Lemma 6.1 by the chain rule,
    # mirrored value pairs, the uncomposed f(u, ubar), the one product
    # (v - ubar) Phi, the law's Lie series, the associator's uncomposed
    # inner f(u,v) and the inverse row read off the division's remainder save
    with contextlib.redirect_stdout(io.StringIO()):
        count = count_products(
            main, ["verify", "exact", "--law", "miscenko", "--order", str(order)])
    assert count <= products


def test_beta_table_products_stay_within_their_recorded_count():
    # the law build checks its inverse by the division that builds Phi;
    # composing f with ubar as well cost 40,559 here.  The law is the Lie
    # series of its log's invariant vector field; reverting g and composing
    # g^{-1} with g(u) + g(v) cost 38,138
    with contextlib.redirect_stdout(io.StringIO()):
        count = count_products(main, "beta --law miscenko --order 12".split())
    assert 0 < count <= 29510


@pytest.mark.parametrize("run, products", [
    (functools.partial(main, "verify all --law mult:1 --order 20".split()), 2506),
    (functools.partial(fgl.multiplicative_law, 3, 65), 258),
], ids=["verify-all-mult1-order20", "multiplicative-law-3-65"])
def test_closed_form_products_stay_within_their_recorded_counts(run, products):
    # checking a closed form against its log by the invariant differential
    # composes nothing; composing g with f cost 4,850 and 50,210 here, and
    # comparing two products of g' by a derivative of f 2,801 and 387.  A
    # call refused before any work would count 0
    with contextlib.redirect_stdout(io.StringIO()):
        count = count_products(run)
    assert 0 < count <= products


@pytest.mark.parametrize("argv", [
    "verify exact --law miscenko --order 9", "beta --law miscenko --order 12",
    "verify all --law mult:1 --order 20", "chi recursion --max 17"])
def test_benchmark_invocations_make_no_division_or_substitution(
        monkeypatch, argv):
    # divided_difference, substitute and reversion are kept as the tests'
    # reference routes; no program path may reach them.  Nor may it reach
    # the other five, which only the benchmark's tracer and the tests name,
    # so they can be deleted or moved to the test oracles once the tracer
    # stops wrapping them
    calls = []
    targets = [(TruncatedSeries, name) for name in (
        "divided_difference", "substitute", "reversion", "reciprocal",
        "restrict", "__pow__")]
    targets += [(coeffring, "mono_mul"), (pc.QuotientRingA, "two_series")]
    for owner, name in targets:
        def call(*args, _real=getattr(owner, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(owner, name, call)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0
    assert calls == []


def test_caller_built_law_reports_two_series_hom_at_its_order():
    # the first row is exact at the law's own order although a(f) is
    # trusted one order less; Phi, and so chained_phi, stops one short
    for n in range(2, 9):
        rows = pc.verify_identity_suite(fgl.miscenko_law(n), "two_series_hom", n)
        assert [(r.identity, r.order, r.passed) for r in rows] == [
            ("two_series_hom", n, True), ("chained_phi", n - 1, True)]


# -- gamma and the one-sided series ----------------------------------------------------


def test_gamma_closed_forms():
    assert pc.gamma_line(fgl.additive_law(6)) == \
        TruncatedSeries.constant(-1, ("c",), 5)
    assert pc.gamma_line(fgl.multiplicative_law(1, 6)) == \
        TruncatedSeries.from_terms({(0,): -1, (1,): -1}, ("c",), 5)


def test_gamma_leading_term(miscenko8):
    for law in (miscenko8, fgl.multiplicative_law(-2, 6)):
        assert pc.gamma_line(law).constant_term() == CoeffPoly.const(-1)


def test_cor63_additive_is_u_minus_v():
    # no alpha terms: u - v; equal to b = u + v only modulo (2v)
    got = pc.cor63_series(fgl.additive_law(8))
    assert got == s2({(1, 0): 1, (0, 1): -1}, got.order)


def test_cor63_closed_form_multiplicative():
    got = pc.cor63_series(fgl.multiplicative_law(1, 8))
    # u - v - (u + v + uv) v
    expected = s2({(1, 0): 1, (0, 1): -1, (1, 1): -1, (0, 2): -1, (1, 2): -1},
                  got.order)
    assert got == expected


def test_cor63_equals_raw_alpha_sum(miscenko8):
    table = fgl.alpha_table(miscenko8)
    n = miscenko8.order
    f_pow = {1: miscenko8.f}
    for k in range(2, n):
        f_pow[k] = f_pow[k - 1] * miscenko8.f
    raw = (TruncatedSeries.variable("u", UV, n)
           - TruncatedSeries.variable("v", UV, n))
    for (i, j), c in sorted(table.items()):
        raw = raw - f_pow[i + j - 1].times_monomial((0, 1)).scale(c)
    got = pc.cor63_series(miscenko8)
    assert (raw - got).is_zero()


# -- integer lattice ----------------------------------------------------------------------


def test_lattice_reduction_canonical():
    # relations 2u + u^2, 2u^2 + u^3, 2u^3 in columns ordered u^3, u^2, u
    rows = [{2: 2, 1: 1}, {1: 2, 0: 1}, {0: 2}]
    lat = IntegerLattice(rows, 3)
    assert lat.reduce({1: 1}) == {2: -2}          # u^2 -> -2u
    assert not lat.reduce({2: 2, 1: 1})           # a relation row lies in it
    assert lat.reduce({2: 1})
    vec = lat.reduce({0: 1, 1: 1, 2: 5})
    assert lat.reduce(vec) == vec                 # idempotent


# -- quotient ring -----------------------------------------------------------------------


def test_reduce_examples_multiplicative(mult14):
    ring = pc.QuotientRingA(mult14, UV, 12)
    u_sq = s2({(2, 0): 1}, 12)
    assert ring.reduce(u_sq) == s2({(1, 0): -2}, 12)
    member = ring.two_series("u") * (TruncatedSeries.one(UV, 12)
                                     + TruncatedSeries.variable("v", UV, 12))
    assert ring.reduce(member).is_zero()
    assert ring.reduce(ring.two_series("u")).is_zero()
    assert ring.reduce(ring.two_series("v")).is_zero()


def test_reduce_example_additive(additive12):
    ring = pc.QuotientRingA(additive12, UV, 12)
    s = s2({(1, 0): 2, (1, 1): 3}, 12)
    assert ring.reduce(s) == s2({(1, 1): 1}, 12)


def test_reduce_rejects_non_integral_input(mult14):
    ring = pc.QuotientRingA(mult14, UV, 12)
    with pytest.raises(pc.NonIntegralLaw):
        ring.reduce(s2({(1, 0): Fraction(1, 2)}, 12))


def test_quotient_ring_rejects_rational_law():
    with pytest.raises(pc.NonIntegralLaw):
        pc.QuotientRingA(fgl.multiplicative_law(Fraction(1, 2), 8), UV, 8)
    with pytest.raises(pc.NonIntegralLaw):
        pc.QuotientRingA(fgl.miscenko_law(6), UV, 6)


def test_u_equals_ubar_in_quotient(mult14):
    ring = pc.QuotientRingA(mult14, UV, 12)
    u2 = TruncatedSeries.variable("u", UV, mult14.order)
    assert ring.reduce(u2 - mult14.inverse.extend(UV)).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9), max_size=5))
def test_reduce_idempotent_and_kills_ideal(sparse):
    law = fgl.multiplicative_law(1, 8)
    ring = pc.QuotientRingA(law, UV, 8)
    x = TruncatedSeries.from_terms(sparse, UV, 8)
    reduced = ring.reduce(x)
    assert ring.reduce(reduced) == reduced
    assert ring.reduce(x * ring.two_series("u")).is_zero()
    assert ring.reduce(x - reduced).is_zero()


def test_gamma_squares_to_one_mod_c2(mult14):
    gamma = pc.gamma_line(mult14)
    ring = pc.QuotientRingA(mult14, ("c",), 8)
    sq = gamma * gamma
    one = TruncatedSeries.one(("c",), sq.order)
    assert ring.reduce(sq - one).is_zero()


# -- identity suites ---------------------------------------------------------------------


def test_suite_names_normalize():
    assert pc.normalize_suite_name("lemma6.1") == "lemma61"
    assert pc.normalize_suite_name("Thm6.6-in-A") == "thm66_in_A"
    assert pc.normalize_suite_name("in-a") == "in_A"
    with pytest.raises(fgl.LawError):
        pc.normalize_suite_name("lemma99")


def test_exact_suite_miscenko():
    rows = pc.verify_identity_suite("miscenko", "exact", 8)
    assert rows and all(r.passed for r in rows)
    assert {r.identity for r in rows} >= {
        "lemma61", "phi_factorization", "phi_diagonal",
        "two_series_hom", "chained_phi"}


IN_A_ROWS = {"u_equals_ubar_in_A", "v_equals_vbar_in_A",
             "lemma62_delta_to_d_in_A", "lemma62_uv_shift_in_A",
             "a_transfer_in_A", "phi_a_delta_in_A", "cor63_equals_b_in_A",
             "assoc_b_in_A"}


def test_in_a_suite_multiplicative():
    rows = pc.verify_identity_suite("mult:1", "in_A", 10)
    assert rows and all(r.passed for r in rows)
    assert {r.identity for r in rows} == IN_A_ROWS


def test_in_a_suite_additive():
    rows = pc.verify_identity_suite("additive", "in_A", 10)
    assert rows and all(r.passed for r in rows)


def test_in_a_suite_refuses_rational_beta():
    with pytest.raises(pc.NonIntegralLaw):
        pc.verify_identity_suite("mult:1/2", "lemma62", 8)


def test_two_parameter_law_specializes_to_the_package_laws():
    for order in (2, 7):
        for law, known in ((two_parameter_law(0, 2, order),
                            fgl.multiplicative_law(-2, order)),
                           (two_parameter_law(0, 0, order), fgl.additive_law(order))):
            assert (law.f, law.log, law.inverse) == (known.f, known.log,
                                                     known.inverse)


@pytest.mark.parametrize("order", [6, 9, 12])
@pytest.mark.parametrize("a, b", TWO_PARAMETER_GRID)
def test_in_a_suite_two_parameter_law(a, b, order):
    law = two_parameter_law(a, b, order + 1)
    # [u]_2 reaches the top degree of the ring, where mult:beta stops at 2
    top = max(k for (k,) in fgl.n_series(law, 2).truncate(order).terms)
    assert top in (order - 1, order)
    rows = pc.verify_identity_suite(law, "in_A", order)
    assert {r.identity for r in rows} == IN_A_ROWS
    assert all(r.passed and r.order == order for r in rows)


@pytest.mark.parametrize("order", [6, 9])
@pytest.mark.parametrize("a, b", [(1, -1), (2, 3), (1, 1), (3, -1)])
def test_all_suite_two_parameter_law(a, b, order):
    rows = pc.verify_identity_suite(two_parameter_law(a, b, order + 1), "all", order)
    assert len(rows) == 18
    assert all(r.passed and r.order == order for r in rows)


@pytest.mark.parametrize("i, j", [(1, 2), (2, 3)])
def test_in_a_suite_detects_mutation_of_a_two_parameter_law(i, j):
    law = mutate_alpha(two_parameter_law(2, 3, 10), i, j, 1)
    rows = pc.verify_identity_suite(law, "in_A", 9)
    assert {r.identity for r in rows} == IN_A_ROWS
    assert {r.identity for r in rows if not r.passed} == {
        "phi_a_delta_in_A", "cor63_equals_b_in_A"}


@pytest.mark.parametrize("law", [two_parameter_law(2, 3, 10), two_parameter_law(1, 2, 10),
                                 fgl.multiplicative_law(1, 10)], ids=lambda law: law.tag)
def test_bumped_alpha11_fails_the_same_rows(law):
    # The in-A rows are known to be blind to this mutation; the exact rows
    # catch it.  Pinned so the quotient ring neither gains nor loses a row
    # here.  On mult:1 the bumped f is mult:2's, and only lemma61 (which
    # reads the kept mult:1 log) fails.
    rows = pc.verify_identity_suite(mutate_alpha(law, 1, 1, 1), "all", 9)
    assert len(rows) == 18
    failed = {r.identity: r.first_failing_degree for r in rows if not r.passed}
    if law.tag == "mult:1":
        assert failed == {"lemma61": 1}
    else:
        assert failed == {"associativity": 4, "lemma61": 1, "two_series_hom": 4,
                          "chained_phi": 4}


def test_suite_detects_mutation():
    law = mutate_alpha(fgl.miscenko_law(6), 1, 1, 1)
    rows = pc.verify_identity_suite(law, "all", 6)
    failed = {r.identity: r for r in rows if not r.passed}
    assert failed["associativity"].first_failing_degree == 4
    assert "lemma61" in failed


def test_mutation_beyond_the_requested_order_is_not_reported():
    # alpha_34 has degree 7: every degree <= 6 of the law is intact
    law = mutate_alpha(fgl.miscenko_law(7), 3, 4, 1)
    rows = pc.verify_identity_suite(law, "axioms", 6)
    assert [(r.identity, r.order, r.passed) for r in rows] == [
        (name, 6, True) for name in ("unitality_right", "unitality_left",
                                     "commutativity", "associativity", "inverse")]
    # at order 7 the mutation is in range and is reported at degree 7
    rows = pc.verify_identity_suite(law, "axioms", 7)
    failed = {r.identity: r.first_failing_degree for r in rows if not r.passed}
    assert failed == {"commutativity": 7, "associativity": 7}


@pytest.mark.parametrize("spec", [
    "miscenko", "additive", "mult:1", "mult:-1", "mult:2", "mult:-2", "mult:3",
    "mult:1/2"])
def test_every_row_reports_exactly_the_requested_order(spec):
    # a selector law is built one order deeper; at no margin the lemma61 and
    # Phi rows would stop one order short, and mult:BETA could not be built
    # at order 1
    for n in range(1, 10):
        rows = pc.verify_identity_suite(spec, "all", n)
        assert len(rows) == (18 if pc.is_integral_law(fgl.parse_law(spec, 2)) else 10)
        assert [(r.identity, r.order, r.passed) for r in rows] == [
            (r.identity, n, True) for r in rows]


@pytest.mark.parametrize("spec, order", [("miscenko", 6), ("mult:1", 8)])
def test_group_builders_return_only_named_differences(spec, order):
    law = fgl.parse_law(spec, order + 1)
    for group, build in pc._GROUPS.items():
        pairs = build(law, order)
        assert pairs and all(
            len(pair) == 2 and isinstance(pair[0], str)
            and isinstance(pair[1], TruncatedSeries) for pair in pairs), group


@pytest.mark.parametrize("law", [
    fgl.parse_law("mult:1", 9), fgl.parse_law("mult:4", 9),
    two_parameter_law(2, 3, 10)], ids=lambda law: law.tag)
def test_in_a_differences_live_in_their_rings_variables(law):
    # the ring is built from the registry before the builder runs, so each
    # difference must already be a series in exactly those variables
    for group, variables in pc._IN_A.items():
        for name, difference in pc._GROUPS[group](law, law.order - 1):
            assert difference.variables == variables, name


def test_the_suite_loop_reduces_and_checks_every_row(monkeypatch):
    checked, reduced = [], []
    check_zero, reduce = pc.check_zero, pc.QuotientRingA.reduce

    def counted_check(name, tag, difference):
        checked.append(name)
        return check_zero(name, tag, difference)

    def counted_reduce(ring, s):
        reduced.append(ring.variables)
        return reduce(ring, s)

    monkeypatch.setattr(pc, "check_zero", counted_check)
    monkeypatch.setattr(pc.QuotientRingA, "reduce", counted_reduce)
    rows = pc.verify_identity_suite("mult:1", "all", 6)
    assert all(r.passed for r in rows)
    assert checked == [r.identity for r in rows]
    assert reduced == [UV] * 7 + [("u", "v", "w")]
    assert len([r for r in rows if r.identity.endswith("_in_A")]) == len(reduced)


def test_in_a_groups_share_one_ring_per_variable_set(monkeypatch):
    built = []

    class Counted(pc.QuotientRingA):
        def __init__(self, law, variables, order):
            built.append((variables, order))
            super().__init__(law, variables, order)

    monkeypatch.setattr(pc, "QuotientRingA", Counted)
    rows = pc.verify_identity_suite("mult:1", "all", 6)
    assert all(r.passed for r in rows)
    assert built == [(("u", "v"), 6), (("u", "v", "w"), 6)]


@pytest.fixture
def lattice_builds(monkeypatch):
    """The column count of every IntegerLattice a quotient ring builds."""
    ncols = []

    class Counted(IntegerLattice):
        def __init__(self, rows, n):
            ncols.append(n)
            super().__init__(rows, n)

    monkeypatch.setattr(pc, "IntegerLattice", Counted)
    return ncols


@pytest.mark.parametrize("beta", [1, -1, 2, -2, 3])
def test_cli_laws_build_only_the_uv_lattice(lattice_builds, beta):
    # b of mult:beta is exactly associative: the (u, v, w) ring only ever
    # reduces zero, so it builds no lattice of its 1,770 columns
    rows = pc.verify_identity_suite(f"mult:{beta}", "all", 20)
    assert len(rows) == 18 and all(r.passed for r in rows)
    assert lattice_builds == [230]


@pytest.mark.parametrize("a, b", TWO_PARAMETER_GRID)
def test_two_parameter_assoc_reduces_against_the_uvw_lattice(
        monkeypatch, lattice_builds, a, b):
    # here b(b(u,v),w) - b(u,b(v,w)) is nonzero before reduction, so the
    # (u, v, w) lattice is built and must reduce it to zero
    sizes = []

    class Recorded(pc.QuotientRingA):
        def reduce(self, s):
            sizes.append(sum(1 for ev in s.truncate(self.order).terms if sum(ev)))
            return super().reduce(s)

    monkeypatch.setattr(pc, "QuotientRingA", Recorded)
    rows = pc.verify_identity_suite(two_parameter_law(a, b, 10), "assoc_in_A", 9)
    assert [(r.identity, r.passed) for r in rows] == [("assoc_b_in_A", True)]
    assert len(sizes) == 1 and 40 <= sizes[0] <= 68
    assert lattice_builds == [219]


def test_in_a_suite_detects_mutation_of_mult1():
    law = mutate_alpha(fgl.multiplicative_law(1, 10), 2, 3, 1)
    rows = pc.verify_identity_suite(law, "in_A", 9)
    assert {r.identity for r in rows} == IN_A_ROWS
    assert {r.identity for r in rows if not r.passed} == {
        "phi_a_delta_in_A", "cor63_equals_b_in_A"}


def test_ring_builds_its_lattice_once_on_the_first_non_constant_reduce(
        lattice_builds, mult14):
    ring = pc.QuotientRingA(mult14, UV, 12)
    for s in (TruncatedSeries.zero(UV, 12), s2({(0, 0): 5}, 14)):
        assert ring.reduce(s) == s.truncate(12)
    assert lattice_builds == []
    for _ in range(2):
        assert ring.reduce(s2({(0, 0): 5, (2, 0): 1}, 12)) == s2(
            {(0, 0): 5, (1, 0): -2}, 12)
    assert lattice_builds == [90]


def test_alias_groups_run_in_report_order():
    rows = pc.verify_identity_suite("mult:1", "all", 4)
    singles = [r for group in ("axioms", "lemma61", "phi_factorization",
                               "two_series_hom", "u_equals_ubar_in_A", "lemma62",
                               "thm66_in_A", "assoc_in_A")
               for r in pc.verify_identity_suite("mult:1", group, 4)]
    assert rows == singles
    assert pc.SUITES[-3:] == ("exact", "in_A", "all")


# -- Whitney signs ----------------------------------------------------------------------


def test_whitney_examples_from_low_dimensions():
    assert pc.whitney_sign_formula(1, 1, 1) == [(1, 0, 1), (0, 1, -1)]
    assert pc.whitney_sign_formula(2, 2, 2) == [(2, 0, 1), (1, 1, -1), (0, 2, 1)]
    assert pc.whitney_sign_formula(3, 2, 0) == [(0, 0, 1)]
    with pytest.raises(ValueError):
        pc.whitney_sign_formula(2, 2, 5)


def test_whitney_signs_match_direct_exponent():
    for n1 in range(7):
        for n2 in range(7):
            for k in range(n1 + n2 + 1):
                terms = pc.whitney_sign_formula(n1, n2, k)
                assert sorted(k1 for k1, _, _ in terms) == sorted(
                    k1 for k1 in range(n1 + 1) if 0 <= k - k1 <= n2)
                for k1, k2, sign in terms:
                    assert sign == (-1) ** ((n1 - k1) * k2)


def test_even_grade_decompositions_are_unsigned():
    # both grades even forces exponent (n1-k1)*k2 even: no signs survive,
    # the even-class addition formula has plain coefficients
    for n1 in range(7):
        for n2 in range(7):
            for k in range(0, n1 + n2 + 1, 2):
                for k1, k2, sign in pc.whitney_sign_formula(n1, n2, k):
                    if k1 % 2 == 0 and k2 % 2 == 0:
                        assert sign == 1


def test_stability_collapse_and_parity():
    for n1 in range(1, 7):
        for k in range(n1 + 1):
            assert pc.stability_surviving_terms(n1, k) == [(k, 0, 1)]
    for k in range(1, 9):
        assert pc.parity_sign(k) == (-1) ** k
        if k % 2 == 1:
            assert pc.parity_sign(k) != 1


# -- mutation sensitivity of reductions (guards vacuous passes) ---------------------------


def test_random_elements_do_not_reduce_to_zero():
    # the reduction must not be trivially zero on everything
    law = fgl.multiplicative_law(1, 8)
    ring = pc.QuotientRingA(law, UV, 8)
    rng = random.Random(7)
    nonzero = 0
    for _ in range(50):
        terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                 for _ in range(3)}
        if ring.reduce(TruncatedSeries.from_terms(terms, UV, 8)).is_zero():
            continue
        nonzero += 1
    assert nonzero > 25
