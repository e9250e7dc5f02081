"""The addition-theorem series zoo and its identity verifiers.

Everything here is derived from a formal group law: the factorization
series Phi with f(u,v) - f(u,ubar) = (v - ubar) Phi(u,v); the symmetric
divided differences delta(u,v) = (a(u) - a(v))/(u - v) and
d(u,v) = (v a(u) - u a(v))/(u - v); the addition series
b(u,v) = u + v - uv [alpha0(uv) delta(u,v) + alpha1(uv) d(u,v)], whose
mixed coefficients beta_kl (k, l >= 1) are the beta table; the
line-bundle index series gamma(c) = 1 - a(c); and the one-sided addition
series u + v - a(f(u,v)) v.  Phi, delta/d, a(f(u,v)) and b are memoized
on the law (:func:`cobcalc.fgl.per_law`), so each is built at most once
per law however many identities use it.

Identities that only hold modulo the ideal ([u]_2, [v]_2) are checked in
:class:`QuotientRingA`, a truncated quotient over an integer
specialization of the law.  Over the rationalized universal law that
ideal collapses (a(u) is a unit), so the quotient is only decidable, and
only meaningful, for integral laws; the universal statements are covered
by the exact pre-quotient identities plus the integral specializations.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd

from .coeffring import CoeffPoly
from .fgl import (U, UV, UVW, V, FormalGroupLaw, LawError, a_series,
                  alpha_series, cp_series, n_series, parse_law, per_law,
                  verify_axioms)
from .intlattice import IntegerLattice
from .localize import whitney_sign_formula
from .pseries import (CheckFailed, NonzeroRemainder, OrderExceeded,
                      TruncatedSeries)
from .report import IdentityResult, check_zero


# -- series constructions ----------------------------------------------------


@per_law
def phi_series(law: FormalGroupLaw) -> TruncatedSeries:
    """Phi(u,v) = (f(u,v) - f(u,ubar)) / (v - ubar), trusted to order n - 1.

    Built by synthetic division by v - ubar(u), that is, Horner's rule
    (Knuth, TAOCP vol. 2, sec. 4.6.4), over series in u alone: with
    f = sum_k F_k(u) v^k, Phi = sum_j Q_j(u) v^j, where Q_j = 0 from the
    top power of v on and Q_j = F_(j+1) + ubar Q_(j+1) below it.  F_(j+1)
    is trusted to degree n - 1 - j, and so is ubar Q_(j+1), as ubar has no
    constant term; so each step is one product of two series in u, and Phi
    is trusted to order n - 1: its degree-n part would need the alpha_ij
    with i + j = n + 1.  The remainder F_0 + ubar Q_0 is f(u, ubar(u)) to
    order n; a nonzero one raises NonzeroRemainder.
    """
    n = law.order
    columns: dict[int, dict] = {}
    for (i, k), c in law.f.terms.items():
        columns.setdefault(k, {})[(i,)] = c
    top = max(columns, default=0)
    q = TruncatedSeries.zero((U,), n - top)
    terms = {}
    for j in range(top - 1, -2, -1):
        m = n - 1 - j
        q = (TruncatedSeries((U,), m, columns.get(j + 1, {}))
             + law.inverse.truncate(m) * q._assume_order(m))
        if j >= 0:
            terms.update({(i, j): c for (i,), c in q.terms.items()})
    if not q.is_zero():
        (i,), c = min(q.terms.items())
        raise NonzeroRemainder(
            f"division by (v - ubar(u)) leaves remainder term {c} at u^{i}: "
            "f(u, ubar(u)) is not zero")
    return TruncatedSeries(UV, n - 1, terms)


@per_law
def delta_d_series(law: FormalGroupLaw) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The symmetric series delta and d; exact division, remainder-checked."""
    a = a_series(law)
    au = a.extend(UV)
    av = a.rename({U: V}).extend(UV)
    delta = (au - av).divided_difference(U, V)
    dnum = au.times_monomial((0, 1)) - av.times_monomial((1, 0))
    d = dnum.divided_difference(U, V)
    return delta, d


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
def _f_powers(law: FormalGroupLaw, order: int) -> list[TruncatedSeries]:
    """The table [1, f, f^2, ...] at ``order``; compositions extend it."""
    return [TruncatedSeries.one(UV, order)]


def _of_f(law: FormalGroupLaw, s: TruncatedSeries) -> TruncatedSeries:
    """s(f(u,v)) for a series s in u.  f has lowest degree 1, so the result
    order is min(order of s, n), and every such composition of one law
    shares the table of f's powers at that order."""
    return s.evaluate({U: law.f}, {U: _f_powers(law, min(s.order, law.order))})


@per_law
def a_of_f(law: FormalGroupLaw) -> TruncatedSeries:
    """a(f(u,v)), trusted to order n - 1 like a itself.

    It is the last composition with f that the suite makes (cp(f) in
    lemma61 runs first), so the table of f's powers is released here
    instead of living as long as the law."""
    a = a_series(law)
    af = _of_f(law, a)
    law.derived.pop(("_f_powers", min(a.order, law.order)), None)
    return af


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
    unique per coset without back-reducing the basis: two results of one
    coset differ by a lattice vector whose first nonzero entry would be a
    multiple of its pivot value g yet smaller than g in absolute value (see
    ``intlattice``).  So reduction is idempotent and zero exactly on members
    of the truncated ideal.

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
    """

    def __init__(self, law: FormalGroupLaw, variables: tuple[str, ...],
                 order: int):
        if not is_integral_law(law):
            raise NonIntegralLaw(
                f"law {law.tag!r} has non-integer coefficients; in-A "
                "identities run only over integral specializations")
        if order > law.order:
            raise OrderExceeded(f"law is only trusted to order {law.order}")
        self.law = law
        self.variables = tuple(variables)
        self.order = order
        axes = range(len(self.variables))

        # Columns: degrees order..1, each in descending exponent-vector
        # order, which is the elimination order.
        monos = [tuple(map(c.count, axes)) for d in range(order, 0, -1)
                 for c in combinations_with_replacement(axes, d)]
        self._col_of = col_of = {ev: i for i, ev in enumerate(monos)}
        self._monos = monos

        # [u]_2 = f(u, u) is integral because f is.
        self._two = n_series(law, 2).truncate(order)
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
        self._lattice = IntegerLattice(rows, len(monos))

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
        vec = self._lattice.reduce(_series_int_vector(s, self._col_of))
        terms = {self._monos[i]: CoeffPoly.const(v) for i, v in vec.items()}
        const = s.constant_term()
        if not const.is_zero():
            terms[(0,) * len(self.variables)] = const
        return TruncatedSeries(self.variables, self.order, terms)

    def is_zero(self, s: TruncatedSeries) -> bool:
        return self.reduce(s).is_zero()


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


def _row(name: str, law: FormalGroupLaw, difference: TruncatedSeries,
         order: int) -> IdentityResult:
    """The one path for a result row: the difference is compared at the
    requested order, or at the lower order it is trusted to."""
    return check_zero(name, law.tag,
                      difference.truncate(min(order, difference.order)))


def _axioms(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    # Each axiom difference is trusted to the law's order, so the truncated
    # law checks exactly the requested degrees.
    return verify_axioms(law.truncate(min(order, law.order)))


def _lemma61(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    cp = cp_series(law)
    dfdv = law.f.partial_derivative(V)
    lhs = dfdv * _of_f(law, cp)
    rhs = cp.rename({U: V}).extend(UV)
    return [_row("lemma61", law, lhs - rhs, order)]


def _phi_factorization(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    n = law.order
    phi = phi_series(law)
    u1 = TruncatedSeries.variable(U, (U,), n)
    u2 = TruncatedSeries.variable(U, UV, n)
    v2 = TruncatedSeries.variable(V, UV, n)
    ub2 = law.inverse.extend(UV)
    f_u_ubar = law.f.evaluate({U: u2, V: ub2})
    phi_diag = phi.evaluate({U: u1, V: u1})
    return [_row("phi_factorization", law,
                 (law.f - f_u_ubar) - (v2 - ub2) * phi, order),
            _row("phi_diagonal", law,
                 (u1 - law.inverse) * phi_diag - n_series(law, 2), order)]


def _two_series_hom(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    n = law.order
    two = n_series(law, 2)
    two_u = two.extend(UV)
    two_v = two.rename({U: V}).extend(UV)
    af = a_of_f(law)
    # The first row needs no extra order: it is checked on the law and the
    # 2-series truncated to m.  [f]_2 = f a(f) is exact to m although a(f)
    # is trusted only to n - 1 >= m - 1, since f has no constant term.
    m = min(order, n)
    f = law.f.truncate(m)
    f_two = f.evaluate({U: two_u.truncate(m), V: two_v.truncate(m)})
    two_of_f = f * af._assume_order(m)
    rows = [_row("two_series_hom", law, f_two - two_of_f, order)]

    phi = phi_series(law)
    ub2 = law.inverse.extend(UV)
    two_ubar = two.evaluate({U: law.inverse}).extend(UV)
    v2 = TruncatedSeries.variable(V, UV, n)
    lhs = (two_v - two_ubar) * phi.evaluate({U: two_u, V: two_v})
    rhs = (v2 - ub2) * phi * af
    rows.append(_row("chained_phi", law, lhs - rhs, order))
    return rows


@per_law
def _quotient_ring(law: FormalGroupLaw, variables: tuple[str, ...],
                   order: int) -> QuotientRingA:
    """The quotient ring A shared by the in-A groups of one law and order."""
    return QuotientRingA(law, variables, order)


def _u_equals_ubar(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    ring = _quotient_ring(law, UV, order)
    u2, v2 = (TruncatedSeries.variable(x, UV, law.order) for x in UV)
    ub2 = law.inverse.extend(UV)
    vb2 = law.inverse.rename({U: V}).extend(UV)
    return [_row("u_equals_ubar_in_A", law, ring.reduce(u2 - ub2), order),
            _row("v_equals_vbar_in_A", law, ring.reduce(v2 - vb2), order)]


def _lemma62(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    ring = _quotient_ring(law, UV, order)
    delta, d = delta_d_series(law)
    return [_row("lemma62_delta_to_d_in_A", law, ring.reduce(
                delta.times_monomial((1, 2)) - d.times_monomial((1, 1))), order),
            _row("lemma62_uv_shift_in_A", law, ring.reduce(
                delta.times_monomial((1, 3)) - delta.times_monomial((2, 2))), order)]


def _thm66(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    ring = _quotient_ring(law, UV, order)
    delta, _ = delta_d_series(law)
    af = a_of_f(law)
    phi = phi_series(law)
    return [_row("a_transfer_in_A", law, ring.reduce(
                af.times_monomial((0, 1)) - af.times_monomial((1, 0))), order),
            _row("phi_a_delta_in_A", law, ring.reduce(
                (phi * af).times_monomial((0, 1)) - delta.times_monomial((1, 1))),
                order),
            _row("cor63_equals_b_in_A", law, ring.reduce(
                cor63_series(law) - b_series(law)), order)]


def _assoc(law: FormalGroupLaw, order: int) -> list[IdentityResult]:
    ring = _quotient_ring(law, UVW, order)
    b = b_series(law)
    u3, v3, w3 = (TruncatedSeries.variable(x, UVW, b.order) for x in UVW)
    lhs = b.evaluate({U: b.evaluate({U: u3, V: v3}), V: w3})
    rhs = b.evaluate({U: u3, V: b.evaluate({U: v3, V: w3})})
    return [_row("assoc_b_in_A", law, ring.reduce(lhs - rhs), order)]


#: Each identity group and the builder of its rows, in the order the CLI
#: help lists them.  A builder calls the series functions by their module
#: names at run time, so rebinding one of them (as a tracer does) is seen.
_GROUPS = {
    "axioms": _axioms,
    "lemma61": _lemma61,
    "phi_factorization": _phi_factorization,
    "two_series_hom": _two_series_hom,
    "lemma62": _lemma62,
    "u_equals_ubar_in_A": _u_equals_ubar,
    "thm66_in_A": _thm66,
    "assoc_in_A": _assoc,
}
_EXACT = ("axioms", "lemma61", "phi_factorization", "two_series_hom")
_IN_A = ("u_equals_ubar_in_A", "lemma62", "thm66_in_A", "assoc_in_A")
#: Aliases and the groups they run, in report order.
_ALIASES = {"exact": _EXACT, "in_A": _IN_A, "all": _EXACT + _IN_A}

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
    """Run a named identity suite; every row is checked at exactly ``order``.

    ``law`` may be a selector string or a constructed law.  A selector is
    built one order deeper, because a derivative (lemma61) and a divided
    difference (every Phi row) each lose one order; a multiplicative law
    also needs order 2 for its own degree-2 term.  A constructed law is
    used as given, so a row whose difference is trusted to less than
    ``order`` reports the lower order.  Explicitly requested in-A suites
    refuse non-integral laws; ``all`` silently runs only the exact
    identities on such laws (the in-A quotient is not decidable there).
    """
    which = normalize_suite_name(which)
    if not isinstance(law, FormalGroupLaw):
        law = parse_law(law, order + 1)
    groups = _ALIASES.get(which, (which,))
    if which == "all" and not is_integral_law(law):
        groups = _EXACT
    return [row for group in groups for row in _GROUPS[group](law, order)]
