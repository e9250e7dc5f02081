"""The addition-theorem series zoo and its identity verifiers.

Everything here is derived from a formal group law and its series Phi,
f(u,v) - f(u,ubar) = (v - ubar) Phi(u,v), which the law builds as the
check of its inverse (:func:`cobcalc.fgl.phi_series`): the symmetric
divided differences delta(u,v) = (a(u) - a(v))/(u - v) and
d(u,v) = (v a(u) - u a(v))/(u - v), placed from a's coefficients; the
addition series b(u,v) = u + v - uv [alpha0(uv) delta(u,v) +
alpha1(uv) d(u,v)], whose mixed coefficients beta_kl (k, l >= 1) are the
beta table; the line-bundle index series gamma(c) = 1 - a(c); and the
one-sided addition series u + v - a(f(u,v)) v.  delta/d, a(f(u,v)), b and
(v - ubar) Phi are memoized on the law (:func:`cobcalc.fgl.per_law`).
Lemma 6.1's left side g'(f) df/dv is d/dv of g(f(u,v)), by the chain rule.

Each identity group returns (row name, difference) pairs, and
:func:`verify_identity_suite` alone turns them into rows.  Identities that
only hold modulo the ideal ([u]_2, [v]_2) are reduced first in
:class:`QuotientRingA`, a truncated quotient over an integer
specialization of the law.  Over the rationalized universal law that
ideal collapses (a(u) is a unit), so the quotient is only decidable, and
only meaningful, for integral laws; the universal statements are covered
by the exact pre-quotient identities plus the integral specializations.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd

from .coeffring import CoeffPoly
from .fgl import (U, UV, UVW, V, Differences, FormalGroupLaw, LawError,
                  a_series, alpha_series, associator, axiom_differences,
                  cp_series, n_series, parse_law, per_law, phi_series)
from .intlattice import IntegerLattice
from .localize import whitney_sign_formula
from .pseries import CheckFailed, OrderExceeded, TruncatedSeries
from .report import IdentityResult, check_zero


# -- series constructions ----------------------------------------------------


@per_law
def delta_d_series(law: FormalGroupLaw) -> tuple[TruncatedSeries, TruncatedSeries]:
    """delta = sum a_(i+j+1) u^i v^j over i + j <= m - 1, trusted to
    m - 1, and d = -a_0 + sum a_(i+j) u^i v^j over i, j >= 1 and
    i + j <= m, trusted to m, for a = sum a_k u^k trusted to m: placed with
    no division, as (u^k - v^k)/(u - v) = sum_(i+j=k-1) u^i v^j."""
    a = a_series(law)
    delta, d = {}, {}
    for (k,), c in a.terms.items():
        delta.update({(i, k - 1 - i): c for i in range(k)})
        d.update({(i, k - i): c for i in range(1, k)} if k else {(0, 0): -c})
    m = a.order
    return TruncatedSeries(UV, m - 1, delta), TruncatedSeries(UV, m, d)


@per_law
def b_series(law: FormalGroupLaw) -> TruncatedSeries:
    """The addition series of the first half-integer class."""
    delta, d = delta_d_series(law)
    _, alpha0, alpha1 = alpha_series(law)
    n = law.order
    uv = TruncatedSeries.from_terms({(1, 1): 1}, UV, n)
    bracket = alpha0.evaluate({U: uv}) * delta + alpha1.evaluate({U: uv}) * d
    return (TruncatedSeries.variable(U, UV, bracket.order + 2)
            + TruncatedSeries.variable(V, UV, bracket.order + 2)
            - bracket.times_monomial((1, 1)))


@per_law
def phi_numerator(law: FormalGroupLaw) -> TruncatedSeries:
    """(v - ubar) Phi = f(u,v) - f(u,ubar) to n - 1, read by every Phi row."""
    v2 = TruncatedSeries.variable(V, UV, law.order)
    return (v2 - law.inverse.extend(UV)) * phi_series(law)


@per_law
def a_of_f(law: FormalGroupLaw) -> TruncatedSeries:
    """a(f(u,v)), trusted to order n - 1 like a itself."""
    return a_series(law).evaluate({U: law.f})


def gamma_line(law: FormalGroupLaw) -> TruncatedSeries:
    """gamma(c) = -1 - sum alpha_ij c^(i+j-1) = 1 - a(c), the index series
    of a line bundle."""
    a = a_series(law).rename({U: "c"})
    return TruncatedSeries.one(("c",), a.order) - a


def cor63_series(law: FormalGroupLaw) -> TruncatedSeries:
    """The one-sided addition series u - v - sum alpha_ij f(u,v)^(i+j-1) v,
    i.e. u + v - a(f(u,v)) v; it agrees with the b series only modulo the
    ideal ([u]_2, [v]_2)."""
    af = a_of_f(law)
    n = af.order + 1
    return (TruncatedSeries.variable(U, UV, n)
            + TruncatedSeries.variable(V, UV, n)
            - af.times_monomial((0, 1)))


# -- quotient ring -----------------------------------------------------------


class NonIntegralLaw(LawError):
    """Quotient-ring reduction needs an integer-coefficient law."""


def is_integral_law(law: FormalGroupLaw) -> bool:
    return all(c.is_constant() and c.is_integral() for c in law.f.terms.values())


def _series_int_vector(s: TruncatedSeries, col_of) -> dict[int, int]:
    vec: dict[int, int] = {}
    for ev, c in s.terms.items():
        if sum(ev) == 0:
            continue
        if not (c.is_constant() and c.is_integral()):
            raise NonIntegralLaw(
                f"coefficient {c} of {ev} is not an integer scalar; the ideal "
                "([u]_2, ...) is not decidable by this rewriting over Q")
        vec[col_of[ev]] = c.as_int()
    return vec


class QuotientRingA:
    """Truncated quotient by ([x]_2 for each variable x) over an integral law.

    The monomial multiples of the 2-series, truncated at the ring order,
    span an integer lattice of coefficient vectors, one column per monomial.
    Reduction takes least-absolute residues against the pivot values of an
    echelon basis, column by column from the top degree downward, so e.g.
    u^2 reduces to -2u under the relation 2u + u^2 = 0.  The normal form is
    unique per coset (``intlattice`` gives the argument), so reduction is
    idempotent and zero exactly on members of the truncated ideal.

    The lattice L is spanned by the rows row(m; i) = m g(x_i) truncated at
    the ring order, where g = c_1 x + ... + c_K x^K is [x]_2 so truncated
    (c_1 = 2) and m runs over monomials.  Let e = gcd(c_k) and c' = c_K / e.
    When c' is odd, the rows whose multiplier m has exponent >= K in some
    variable x_j before x_i are redundant (the Koszul syzygies of the
    regular sequence g(x_1), ..., g(x_n)), and only the others are built:

    1. g(x_j) m' g(x_i) = g(x_i) m' g(x_j), and truncation is linear, so
       sum_k c_k row(x_j^k m'; i) = sum_k c_k row(x_i^k m'; j).  Divided by
       e, this writes c' row(x_j^K m'; i) through rows lower in the order
       (multiplier degree, then variable).  By induction c'^t R lies in
       L' = span(kept rows) for every skipped row R.
    2. For every monomial M, with x the first variable of M, the kept rows
       include row(M/x; x), whose lowest-degree term is 2M.  So each M has
       2-power order in Z^n/L' (downward in degree), a 2-group.
    3. L/L' lies in that 2-group and is killed by an odd number, so
       L' = L.  The columns are unchanged, so the normal form, which
       depends only on the lattice and the column order, is too.

    When c' is even (mult:4, say) the argument fails and every row is kept.

    Columns, rows and lattice are built once, by the first reduction of a
    series with a non-constant term.  The b series of every law the CLI
    names is exactly associative, so their (u, v, w) rings never build them.
    """

    def __init__(self, law: FormalGroupLaw, variables: tuple[str, ...],
                 order: int):
        if not is_integral_law(law):
            raise NonIntegralLaw(
                f"law {law.tag!r} has non-integer coefficients; in-A "
                "identities run only over integral specializations")
        if order > law.order:
            raise OrderExceeded(f"law is only trusted to order {law.order}")
        self.variables = tuple(variables)
        self.order = order
        # [u]_2 = f(u, u) is integral because f is.
        self._two = n_series(law, 2).truncate(order)

    @cached_property
    def _basis(self) -> tuple[list[tuple[int, ...]], dict, IntegerLattice]:
        """The columns, their index and the lattice, built on first use."""
        order, axes = self.order, range(len(self.variables))
        # Columns: degrees order..1, each in descending exponent-vector
        # order, which is the elimination order.
        monos = [tuple(map(c.count, axes)) for d in range(order, 0, -1)
                 for c in combinations_with_replacement(axes, d)]
        col_of = {ev: i for i, ev in enumerate(monos)}
        rel_coeffs = [(k, c.as_int()) for (k,), c in self._two.terms.items()]

        # Koszul row selection (see the class docstring): cap the exponents
        # of the variables before the row's own at K - 1 when c' is odd.  A
        # cap of `order` caps nothing; at order 0 there are no coefficients.
        cap = order
        if rel_coeffs:
            top, c_top = max(rel_coeffs)
            if c_top // gcd(*(c for _, c in rel_coeffs)) % 2:
                cap = top - 1
        # Row m [x_i]_2 is read off the column M = m x_i of its lowest term
        # 2M, and kept while no variable before x_i exceeds the cap in M.
        rows = []
        for ev in monos:
            room = order - sum(ev)
            for i in axes:
                if ev[i]:
                    rows.append({col_of[ev[:i] + (ev[i] + k - 1,) + ev[i + 1:]]: c
                                 for k, c in rel_coeffs if k - 1 <= room})
                if ev[i] > cap:
                    break
        return monos, col_of, IntegerLattice(rows, len(monos))

    def two_series(self, var: str) -> TruncatedSeries:
        """The relation [x]_2 embedded in the quotient-ring variables."""
        if var not in self.variables:
            raise LawError(f"{var!r} is not a quotient-ring variable")
        return self._two.rename({U: var}).extend(self.variables)

    def reduce(self, s: TruncatedSeries) -> TruncatedSeries:
        """The normal form of s, unique per coset of the ideal, at the ring order."""
        if s.variables != self.variables:
            s = s.extend(self.variables)
        if s.order < self.order:
            raise OrderExceeded(
                f"series trusted to {s.order} < ring order {self.order}")
        s = s.truncate(self.order)
        if not any(map(sum, s.terms)):
            return s
        monos, col_of, lattice = self._basis
        vec = lattice.reduce(_series_int_vector(s, col_of))
        terms = {monos[i]: CoeffPoly.const(v) for i, v in vec.items()}
        const = s.constant_term()
        if not const.is_zero():
            terms[(0,) * len(self.variables)] = const
        return TruncatedSeries(self.variables, self.order, terms)


# -- Whitney sign bookkeeping --------------------------------------------------


def stability_surviving_terms(n1: int, k: int) -> list[tuple[int, int, int]]:
    """The n2 = 1 instance with the trivial line: p_(1/2)(1) = 0 kills every
    k2 = 1 term, so only (k, 0) with sign +1 can survive."""
    return [(k1, k2, s) for k1, k2, s in whitney_sign_formula(n1, 1, k) if k2 == 0]


def parity_sign(k: int) -> int:
    """Sign of the surviving term of the 1 + xi instance: (-1)^k; for odd k
    it differs from +1, forcing the class into 2-torsion."""
    terms = [(k1, k2, s) for k1, k2, s in whitney_sign_formula(1, k, k) if k1 == 0]
    if len(terms) != 1:
        raise CheckFailed(f"the 1 + xi instance has {len(terms)} k1 = 0 terms, not one")
    return terms[0][2]


# -- identity suite --------------------------------------------------------------


def _lemma61(law: FormalGroupLaw, order: int) -> Differences:
    lhs = law.log.evaluate({U: law.f}).partial_derivative(V)
    rhs = cp_series(law).rename({U: V}).extend(UV)
    return [("lemma61", lhs - rhs)]


def _phi_factorization(law: FormalGroupLaw, order: int) -> Differences:
    # Setting v = u keeps degrees: the diagonal is (u - ubar) Phi(u,u).
    u1 = TruncatedSeries.variable(U, (U,), law.order)
    numerator = phi_numerator(law)
    return [("phi_factorization", law.f - numerator),
            ("phi_diagonal", numerator.evaluate({U: u1, V: u1}) - n_series(law, 2))]


def _two_series_hom(law: FormalGroupLaw, order: int) -> Differences:
    two = n_series(law, 2)
    two_u = two.extend(UV)
    two_v = two.rename({U: V}).extend(UV)
    af = a_of_f(law)
    # The first row needs no extra order: it is checked on the law and the
    # 2-series truncated to m.  [f]_2 = f a(f) is exact to m although a(f)
    # is trusted only to n - 1 >= m - 1, since f has no constant term.
    m = min(order, law.order)
    f = law.f.truncate(m)
    f_two = f.evaluate({U: two_u.truncate(m), V: two_v.truncate(m)})
    two_of_f = f * af._assume_order(m)
    hom = f_two - two_of_f

    two_ubar = two.evaluate({U: law.inverse}).extend(UV)
    lhs = (two_v - two_ubar) * phi_series(law).evaluate({U: two_u, V: two_v})
    return [("two_series_hom", hom), ("chained_phi", lhs - phi_numerator(law) * af)]


@per_law
def _quotient_ring(law: FormalGroupLaw, variables: tuple[str, ...],
                   order: int) -> QuotientRingA:
    """The quotient ring A shared by the in-A groups of one law and order."""
    return QuotientRingA(law, variables, order)


def _u_equals_ubar(law: FormalGroupLaw, order: int) -> Differences:
    u2, v2 = (TruncatedSeries.variable(x, UV, law.order) for x in UV)
    ub2 = law.inverse.extend(UV)
    vb2 = law.inverse.rename({U: V}).extend(UV)
    return [("u_equals_ubar_in_A", u2 - ub2), ("v_equals_vbar_in_A", v2 - vb2)]


def _lemma62(law: FormalGroupLaw, order: int) -> Differences:
    delta, d = delta_d_series(law)
    return [("lemma62_delta_to_d_in_A",
             delta.times_monomial((1, 2)) - d.times_monomial((1, 1))),
            ("lemma62_uv_shift_in_A",
             delta.times_monomial((1, 3)) - delta.times_monomial((2, 2)))]


def _thm66(law: FormalGroupLaw, order: int) -> Differences:
    delta, _ = delta_d_series(law)
    af = a_of_f(law)
    phi = phi_series(law)
    return [("a_transfer_in_A", af.times_monomial((0, 1)) - af.times_monomial((1, 0))),
            ("phi_a_delta_in_A",
             (phi * af).times_monomial((0, 1)) - delta.times_monomial((1, 1))),
            ("cor63_equals_b_in_A", cor63_series(law) - b_series(law))]


def _assoc(law: FormalGroupLaw, order: int) -> Differences:
    return [("assoc_b_in_A", associator(b_series(law)))]


#: Each identity group and the builder of its (row name, difference) pairs, in
#: CLI help order.  A builder calls the series functions by their module names
#: at run time, so rebinding one of them (as a tracer does) is seen.
_GROUPS = {
    "axioms": axiom_differences,
    "lemma61": _lemma61,
    "phi_factorization": _phi_factorization,
    "two_series_hom": _two_series_hom,
    "lemma62": _lemma62,
    "u_equals_ubar_in_A": _u_equals_ubar,
    "thm66_in_A": _thm66,
    "assoc_in_A": _assoc,
}
_EXACT = ("axioms", "lemma61", "phi_factorization", "two_series_hom")
#: The groups whose differences vanish in A, and their quotient rings' variables.
_IN_A = {"u_equals_ubar_in_A": UV, "lemma62": UV, "thm66_in_A": UV, "assoc_in_A": UVW}
#: Aliases and the groups they run, in report order.
_ALIASES = {"exact": _EXACT, "in_A": (*_IN_A,), "all": (*_EXACT, *_IN_A)}

#: Suite names accepted by verify_identity_suite (aliases included).
SUITES = (*_GROUPS, *_ALIASES)


def normalize_suite_name(name: str) -> str:
    key = "".join(ch for ch in name.lower() if ch.isalnum())
    for suite in SUITES:
        if key == "".join(ch for ch in suite.lower() if ch.isalnum()):
            return suite
    raise LawError(f"unknown identity suite {name!r}; expected one of {SUITES}")


def verify_identity_suite(law, which: str = "all",
                          order: int = 10) -> list[IdentityResult]:
    """Run a named identity suite; its loop builds every row, each checked
    at exactly ``order``.

    ``law`` may be a selector string or a constructed law.  A selector is
    built one order deeper, because a derivative (lemma61) and a divided
    difference (every Phi row) each lose one order; a multiplicative law
    also needs order 2 for its own degree-2 term.  A constructed law is
    used as given, so a row whose difference is trusted to less than
    ``order`` reports the lower order.  An in-A group's differences are
    reduced in its quotient ring, built before its builder runs, so an
    explicitly requested in-A suite refuses a non-integral law before any
    work; ``all`` silently runs only the exact identities on such laws
    (the in-A quotient is not decidable there).
    """
    which = normalize_suite_name(which)
    if not isinstance(law, FormalGroupLaw):
        law = parse_law(law, order + 1)
    groups = _ALIASES.get(which, (which,))
    if which == "all" and not is_integral_law(law):
        groups = _EXACT
    rows = []
    for group in groups:
        ring = _quotient_ring(law, _IN_A[group], order) if group in _IN_A else None
        for name, difference in _GROUPS[group](law, order):
            if ring is not None:
                difference = ring.reduce(difference)
            rows.append(check_zero(name, law.tag, difference.truncate(
                min(order, difference.order))))
    return rows
