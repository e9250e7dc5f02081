"""The addition-theorem series zoo and its identity verifiers.

Everything here is derived from a formal group law: the factorization
series Phi with f(u,v) - f(u,ubar) = (v - ubar) Phi(u,v); the symmetric
divided differences delta(u,v) = (a(u) - a(v))/(u - v) and
d(u,v) = (v a(u) - u a(v))/(u - v); the addition series
b(u,v) = u + v - uv [alpha0(uv) delta(u,v) + alpha1(uv) d(u,v)] with its
beta coefficient table; the line-bundle index series gamma(c) = 1 - a(c);
and the one-sided addition series u + v - a(f(u,v)) v.  Phi, delta/d and
b are memoized on the law (:func:`cobcalc.fgl.per_law`), so each is built
at most once per law however many identities use it.

Identities that only hold modulo the ideal ([u]_2, [v]_2) are checked in
:class:`QuotientRingA`, a truncated quotient over an integer
specialization of the law.  Over the rationalized universal law that
ideal collapses (a(u) is a unit), so the quotient is only decidable, and
only meaningful, for integral laws; the universal statements are covered
by the exact pre-quotient identities plus the integral specializations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .coeffring import CoeffPoly
from .fgl import (U, UV, UVW, V, W, FormalGroupLaw, LawError, a_series,
                  alpha_series, cp_series, n_series, parse_law, per_law,
                  verify_axioms)
from .intlattice import IntegerLattice
from .localize import whitney_sign_formula
from .pseries import CheckFailed, OrderExceeded, TruncatedSeries
from .report import IdentityResult, check_zero


# -- series constructions ----------------------------------------------------


@per_law
def phi_series(law: FormalGroupLaw) -> TruncatedSeries:
    """Phi(u,v) = (f(u,v) - f(u,ubar)) / (v - ubar), trusted to order n - 1.

    Built as the exact divided difference (f(u,v) - f(u,w)) / (v - w),
    whose remainder check and postcondition verify the division, followed
    by the substitution w := ubar(u).  Like every divided difference it is
    trusted to one order below the law: its degree-n part would need the
    alpha_ij with i + j = n + 1.
    """
    f_uw = law.f.rename({V: W}).extend(UVW)
    quotient = (law.f.extend(UVW) - f_uw).divided_difference(V, W)
    return quotient.substitute(W, law.inverse.extend(UV))


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


@dataclass(frozen=True, eq=False)
class AdditionSeries:
    """b(u,v) = u + v + sum beta_kl u^k v^l and its coefficient table."""
    law: str
    b: TruncatedSeries
    beta: dict[tuple[int, int], CoeffPoly] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"AdditionSeries({self.law}, order={self.b.order})"


@per_law
def b_series(law: FormalGroupLaw) -> AdditionSeries:
    """The addition series of the first half-integer class."""
    delta, d = delta_d_series(law)
    _, alpha0, alpha1 = alpha_series(law)
    n = law.order
    uv = TruncatedSeries.from_terms({(1, 1): 1}, UV, n)
    bracket = alpha0.evaluate({U: uv}) * delta + alpha1.evaluate({U: uv}) * d
    b = (TruncatedSeries.variable(U, UV, bracket.order + 2)
         + TruncatedSeries.variable(V, UV, bracket.order + 2)
         + bracket.times_monomial((1, 1), -1))
    beta = {(k, l): c for (k, l), c in b.terms.items() if k >= 1 and l >= 1}
    return AdditionSeries(law.tag, b, beta)


def gamma_line(law: FormalGroupLaw) -> TruncatedSeries:
    """gamma(c) = -1 - sum alpha_ij c^(i+j-1) = 1 - a(c), the index series
    of a line bundle."""
    a = a_series(law).rename({U: "c"})
    return TruncatedSeries.one(("c",), a.order) - a


def cor63_series(law: FormalGroupLaw) -> TruncatedSeries:
    """The one-sided addition series u - v - sum alpha_ij f(u,v)^(i+j-1) v,
    i.e. u + v - a(f(u,v)) v; it agrees with the b series only modulo the
    ideal ([u]_2, [v]_2)."""
    af = a_series(law).evaluate({U: law.f})
    n = af.order + 1
    return (TruncatedSeries.variable(U, UV, n)
            + TruncatedSeries.variable(V, UV, n)
            - af.times_monomial((0, 1)))


# -- quotient ring -----------------------------------------------------------


class NonIntegralLaw(LawError):
    """Quotient-ring reduction needs an integer-coefficient law."""


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
    """

    def __init__(self, law: FormalGroupLaw, variables: tuple[str, ...] = UV,
                 order: int | None = None):
        if order is None:
            order = law.order
        if order > law.order:
            raise OrderExceeded(f"law is only trusted to order {law.order}")
        self.law = law
        self.variables = tuple(variables)
        self.order = order
        width = len(self.variables)

        # Columns: monomials of degree 1..order, eliminated highest-first.
        monos = [ev for ev in _expvecs(width, order) if sum(ev) >= 1]
        monos.sort(key=lambda ev: (sum(ev), ev), reverse=True)
        self._col_of = {ev: i for i, ev in enumerate(monos)}
        self._monos = monos

        self._two = n_series(law, 2).truncate(order)
        rel_coeffs = []
        for (k,), c in self._two.terms.items():
            if not (c.is_constant() and c.is_integral()):
                raise NonIntegralLaw(
                    f"[u]_2 coefficient {c} is not an integer scalar")
            rel_coeffs.append((k, c.as_int()))

        rows = []
        for axis in range(width):
            for m in _expvecs(width, order - 1):
                row: dict[int, int] = {}
                for k, c in rel_coeffs:
                    ev = list(m)
                    ev[axis] += k
                    if sum(ev) <= order:
                        row[self._col_of[tuple(ev)]] = c
                if row:
                    rows.append(row)
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


def _expvecs(width: int, max_degree: int):
    if width == 0:
        yield ()
        return
    for head in range(max_degree + 1):
        for tail in _expvecs(width - 1, max_degree - head):
            yield (head,) + tail


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


def _lemma61(law: FormalGroupLaw) -> list[IdentityResult]:
    cp = cp_series(law)
    dfdv = law.f.partial_derivative(V)
    lhs = dfdv * cp.evaluate({U: law.f})
    rhs = cp.rename({U: V}).extend(UV)
    return [check_zero("lemma61", law.tag, lhs - rhs)]


def _phi_factorization(law: FormalGroupLaw) -> list[IdentityResult]:
    n = law.order
    phi = phi_series(law)
    u1 = TruncatedSeries.variable(U, (U,), n)
    u2 = TruncatedSeries.variable(U, UV, n)
    v2 = TruncatedSeries.variable(V, UV, n)
    ub = law.inverse
    ub2 = ub.extend(UV)
    f_u_ubar = law.f.evaluate({U: u2, V: ub2})
    rows = [check_zero("phi_factorization", law.tag,
                       (law.f - f_u_ubar) - (v2 - ub2) * phi)]
    phi_diag = phi.evaluate({U: u1, V: u1})
    rows.append(check_zero("phi_diagonal", law.tag,
                           (u1 - ub) * phi_diag - n_series(law, 2)))
    return rows


def _two_series_hom(law: FormalGroupLaw) -> list[IdentityResult]:
    n = law.order
    two = n_series(law, 2)
    two_u = two.extend(UV)
    two_v = two.rename({U: V}).extend(UV)
    f_two = law.f.evaluate({U: two_u, V: two_v})
    two_of_f = two.evaluate({U: law.f})
    rows = [check_zero("two_series_hom", law.tag, f_two - two_of_f)]

    phi = phi_series(law)
    ub2 = law.inverse.extend(UV)
    two_ubar = two.evaluate({U: law.inverse}).extend(UV)
    v2 = TruncatedSeries.variable(V, UV, n)
    af = a_series(law).evaluate({U: law.f})
    lhs = (two_v - two_ubar) * phi.evaluate({U: two_u, V: two_v})
    rhs = (v2 - ub2) * phi * af
    rows.append(check_zero("chained_phi", law.tag, lhs - rhs))
    return rows


def is_integral_law(law: FormalGroupLaw) -> bool:
    return all(c.is_constant() and c.is_integral() for c in law.f.terms.values())


def _require_integral(law: FormalGroupLaw) -> None:
    if not is_integral_law(law):
        raise NonIntegralLaw(
            f"law {law.tag!r} has non-integer coefficients; in-A "
            "identities run only over integral specializations")


def _in_a_rows(law: FormalGroupLaw, order: int,
               names: set[str]) -> list[IdentityResult]:
    _require_integral(law)
    ring = QuotientRingA(law, UV, order)
    n = law.order
    u2 = TruncatedSeries.variable(U, UV, n)
    v2 = TruncatedSeries.variable(V, UV, n)
    ub2 = law.inverse.extend(UV)
    vb2 = law.inverse.rename({U: V}).extend(UV)

    def reduced(name: str, diff: TruncatedSeries) -> IdentityResult:
        return check_zero(name, law.tag, ring.reduce(diff))

    rows = []
    if "u_equals_ubar" in names:
        rows.append(reduced("u_equals_ubar_in_A", u2 - ub2))
        rows.append(reduced("v_equals_vbar_in_A", v2 - vb2))
    if "lemma62" in names:
        delta, d = delta_d_series(law)
        rows.append(reduced("lemma62_delta_to_d_in_A",
                            delta.times_monomial((1, 2)) - d.times_monomial((1, 1))))
        rows.append(reduced("lemma62_uv_shift_in_A",
                            delta.times_monomial((1, 3)) - delta.times_monomial((2, 2))))
    if "thm66" in names:
        delta, _ = delta_d_series(law)
        af = a_series(law).evaluate({U: law.f})
        phi = phi_series(law)
        rows.append(reduced("a_transfer_in_A",
                            af.times_monomial((0, 1)) - af.times_monomial((1, 0))))
        rows.append(reduced("phi_a_delta_in_A",
                            (phi * af).times_monomial((0, 1))
                            - delta.times_monomial((1, 1))))
        rows.append(reduced("cor63_equals_b_in_A",
                            cor63_series(law) - b_series(law).b))
    if "assoc" in names:
        ring3 = QuotientRingA(law, UVW, order)
        b = b_series(law).b
        u3 = TruncatedSeries.variable(U, UVW, b.order)
        v3 = TruncatedSeries.variable(V, UVW, b.order)
        w3 = TruncatedSeries.variable(W, UVW, b.order)
        lhs = b.evaluate({U: b.evaluate({U: u3, V: v3}), V: w3})
        rhs = b.evaluate({U: u3, V: b.evaluate({U: v3, V: w3})})
        rows.append(check_zero("assoc_b_in_A", law.tag, ring3.reduce(lhs - rhs)))
    return rows


#: Suite names accepted by verify_identity_suite (aliases included).
SUITES = ("axioms", "lemma61", "phi_factorization", "two_series_hom",
          "lemma62", "u_equals_ubar_in_A", "thm66_in_A", "assoc_in_A",
          "exact", "in_A", "all")

_EXACT_MARGIN = 1   # lemma61 / chained identities lose one derivative order
_IN_A_MARGIN = 2    # divided differences lose two orders before the uv shift


def normalize_suite_name(name: str) -> str:
    key = "".join(ch for ch in name.lower() if ch.isalnum())
    for suite in SUITES:
        if key == "".join(ch for ch in suite.lower() if ch.isalnum()):
            return suite
    raise LawError(f"unknown identity suite {name!r}; expected one of {SUITES}")


def verify_identity_suite(law, which: str = "all",
                          order: int = 10) -> list[IdentityResult]:
    """Run a named identity suite at the requested order.

    ``law`` may be a selector string or a constructed law; strings are
    built with enough extra order that every reported identity is verified
    at exactly ``order``.  Explicitly requested in-A suites refuse
    non-integral laws; ``all`` silently runs only the exact identities on
    such laws (the in-A quotient is not decidable there).
    """
    which = normalize_suite_name(which)
    exact_groups = {"axioms", "lemma61", "phi_factorization", "two_series_hom"}
    in_a_groups = {"lemma62", "u_equals_ubar_in_A", "thm66_in_A", "assoc_in_A"}
    selected_exact = (exact_groups if which in ("all", "exact")
                      else {which} & exact_groups)
    selected_in_a = (in_a_groups if which in ("all", "in_A")
                     else {which} & in_a_groups)

    margin = _IN_A_MARGIN if selected_in_a else _EXACT_MARGIN
    if not isinstance(law, FormalGroupLaw):
        law = parse_law(law, order + margin)
    if which == "all" and not is_integral_law(law):
        selected_in_a = set()

    exact_rows: list[IdentityResult] = []
    if "axioms" in selected_exact:
        exact_rows += verify_axioms(law)
    if "lemma61" in selected_exact:
        exact_rows += _lemma61(law)
    if "phi_factorization" in selected_exact:
        exact_rows += _phi_factorization(law)
    if "two_series_hom" in selected_exact:
        exact_rows += _two_series_hom(law)
    # A pass at a deeper order covers the requested one; a failure is
    # reported where it actually happened.
    rows = [replace(row, order=min(order, row.order)) if row.passed else row
            for row in exact_rows]

    in_a_names = set()
    if "u_equals_ubar_in_A" in selected_in_a:
        in_a_names.add("u_equals_ubar")
    if "lemma62" in selected_in_a:
        in_a_names.add("lemma62")
    if "thm66_in_A" in selected_in_a:
        in_a_names.add("thm66")
    if "assoc_in_A" in selected_in_a:
        in_a_names.add("assoc")
    if in_a_names:
        rows += _in_a_rows(law, order, in_a_names)
    return rows
