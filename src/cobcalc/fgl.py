"""Formal group laws built from their logarithms.

A law is the bundle (log g, two-variable law f, formal inverse ubar) at a
fixed truncation order.  The universal law here is normalized by the
logarithm g(u) = sum cp_n u^(n+1)/(n+1) with cp0 = 1, so g'(u) is the
series 1 + cp1 u + cp2 u^2 + ...; every coefficient sign downstream is
whatever f = g^{-1}(g(u) + g(v)) yields.  At order N, :func:`from_log`
builds f as the Lie series sum_j g(u)^j T_j(v) of g's invariant vector
field (1/g'(v)) d/dv, where T_0 = v and j g'(v) T_j = dT_(j-1)/dv is
trusted to order N - j, and ubar from the same powers of g: no reversion
and no composition.  The additive and multiplicative specializations are
built from closed form, inverse included.  Every law is checked against
its log by the invariant differential (:func:`_check_log_route`), and its
inverse once, by the Phi division, whose remainder is the ``inverse`` row.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .coeffring import CoeffPoly
from .pseries import CheckFailed, NonzeroRemainder, TruncatedSeries
from .report import IdentityResult, check_zero

U, V, W = "u", "v", "w"
UV = (U, V)
UVW = (U, V, W)

#: (row name, difference) pairs: each difference must vanish.
Differences = list[tuple[str, TruncatedSeries]]


class LawError(ValueError):
    """A law selector or construction input is invalid."""


def miscenko_log(order: int) -> TruncatedSeries:
    """g(u) = u + cp1 u^2/2 + cp2 u^3/3 + ... truncated at the order."""
    if order < 1:
        raise LawError("order must be >= 1")
    terms: dict[tuple[int, ...], CoeffPoly] = {(1,): CoeffPoly.one()}
    for n in range(1, order):
        terms[(n + 1,)] = CoeffPoly.gen(n).scale(Fraction(1, n + 1))
    return TruncatedSeries.from_terms(terms, (U,), order)


def additive_log(order: int) -> TruncatedSeries:
    return TruncatedSeries.variable(U, (U,), order)


def multiplicative_log(beta: Fraction, order: int) -> TruncatedSeries:
    """log(1 + beta*u)/beta = sum (-beta)^(n-1) u^n / n."""
    terms = {}
    sign = Fraction(1)
    for n in range(1, order + 1):
        terms[(n,)] = CoeffPoly.const(sign / n)
        sign *= -beta
    return TruncatedSeries.from_terms(terms, (U,), order)


class FormalGroupLaw:
    """A law at a fixed order: f in (u, v), its inverse ubar(u) and its log
    g(u), each one variable.  The law's order is f's, and f carries a table
    of its powers.  Laws compare by identity, and ``derived`` holds this
    law's memoized series (see :func:`per_law`)."""
    __slots__ = ("tag", "f", "inverse", "log", "derived")

    def __init__(self, tag: str, f: TruncatedSeries,
                 inverse: TruncatedSeries, log: TruncatedSeries):
        self.tag = tag
        self.f = f.with_power_table()
        self.inverse = inverse
        self.log = log
        self.derived: dict = {}

    @property
    def order(self) -> int:
        return self.f.order

    def __repr__(self) -> str:
        return f"FormalGroupLaw({self.tag}, order={self.order})"


def per_law(fn):
    """Memoize a derived series in ``law.derived``, keyed by the function's
    name and its remaining arguments; the cache is freed with the law."""
    @functools.wraps(fn)
    def cached(law: FormalGroupLaw, *args):
        key = (fn.__name__, *args)
        if key not in law.derived:
            law.derived[key] = fn(law, *args)
        return law.derived[key]
    return cached


@per_law
def phi_division(law: FormalGroupLaw) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Phi(u,v) = (f(u,v) - f(u,ubar)) / (v - ubar), trusted to order n - 1,
    and the remainder f(u, ubar(u)), trusted to order n.

    Built by synthetic division by v - ubar(u), that is, Horner's rule
    (Knuth, TAOCP vol. 2, sec. 4.6.4), over series in u alone: with
    f = sum_k F_k(u) v^k, Phi = sum_j Q_j(u) v^j, where Q_j = 0 from the
    top power of v on and Q_j = F_(j+1) + ubar Q_(j+1) below it.  F_(j+1)
    is trusted to degree n - 1 - j, and so is ubar Q_(j+1), as ubar has no
    constant term; so each step is one product of two series in u, and Phi
    is trusted to order n - 1: its degree-n part would need the alpha_ij
    with i + j = n + 1.  The remainder is F_0 + ubar Q_0, the last step."""
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
    return TruncatedSeries(UV, n - 1, terms), q


@per_law
def phi_series(law: FormalGroupLaw) -> TruncatedSeries:
    """Phi of :func:`phi_division`, whose remainder f(u, ubar(u)) must be 0."""
    phi, remainder = phi_division(law)
    if not remainder.is_zero():
        (i,), c = min(remainder.terms.items())
        raise NonzeroRemainder(
            f"division by (v - ubar(u)) leaves remainder term {c} at u^{i}: "
            "f(u, ubar(u)) is not zero")
    return phi


def _flow_coefficients(dg: TruncatedSeries, n: int) -> list[list[CoeffPoly]]:
    """T_0, ..., T_n of the Lie series, T_j as its coefficients in degrees
    0 to n - j: T_0 = v and j g'(v) T_j = dT_(j-1)/dv, solved degree by
    degree from g'(v), whose constant term is a nonzero scalar."""
    lead = Fraction(1) / dg.constant_term().constant_value()
    minus_dg = [dg.terms.get((i,), CoeffPoly.zero()).scale(-lead)
                for i in range(n)]
    flow = [[CoeffPoly.zero(), CoeffPoly.one()] + [CoeffPoly.zero()] * (n - 1)]
    for j in range(1, n + 1):
        prev, t = flow[-1], []
        for k in range(n - j + 1):
            pairs = [(prev[k + 1], CoeffPoly.const((k + 1) * lead / j))]
            pairs += [(minus_dg[i], t[k - i]) for i in range(1, k + 1)]
            t.append(CoeffPoly.dot(pairs))
        flow.append(t)
    return flow


def from_log(log: TruncatedSeries, tag: str = "custom") -> FormalGroupLaw:
    """The law f(u, v) = g^{-1}(g(u) + g(v)) of a log g at its order N, with
    ubar(u) = g^{-1}(-g(u)), as the Lie series of g's invariant vector field.

    D = (1/g'(v)) d/dv satisfies D g(v) = 1, so its flow for time t moves v
    to the point whose log is g(v) + t; run for t = g(u) it gives f, and as
    a Lie series (Groebner, *Die Lie-Reihen und ihre Anwendungen*, 1960)
    f = exp(g(u) D) v = sum_j g(u)^j T_j(v) with T_j = D^j v / j!, that is
    T_0 = v and j g'(v) T_j = dT_(j-1)/dv.  g'(0) = c is a unit scalar, so
    each T_j is solved degree by degree dividing by c; T_(j-1) is trusted
    to order N - j + 1, its derivative to N - j, and so is T_j.  With
    G_j = g(u)^j, which starts at u^j, the coefficient of u^a v^b in f is
    sum_(j <= a) G_j[a] T_j[b], and a + b <= N keeps b <= N - j.  f is
    symmetric, so only a <= b is summed and mirrored.  At v = 0 the flow
    is g^{-1}, so T_j(0) are its coefficients: f(u, 0) = sum_j T_j(0) G_j
    must be u, and ubar = sum_j (-1)^j T_j(0) G_j, the even j minus the
    odd.  No series is reverted and none in (u, v) is composed; the law
    then gets the check of every closed form against its log."""
    x, _ = log._reversion_checks()
    g = log.rename({x: U})
    n = g.order
    flow = _flow_coefficients(g.partial_derivative(U), n)
    powers = [g]
    while len(powers) < n:
        powers.append(powers[-1] * g)
    # grid[j - 1][a] is G_j[a], the coefficient of u^a in g(u)^j
    grid = [[p.terms.get((a,), CoeffPoly.zero()) for a in range(n + 1)]
            for p in powers]
    terms = {(0, 1): CoeffPoly.one(), (1, 0): CoeffPoly.one()}
    for a in range(1, n // 2 + 1):
        for b in range(a, n - a + 1):
            c = CoeffPoly.dot([(grid[j - 1][a], flow[j][b])
                               for j in range(1, a + 1)])
            if c:
                terms[(a, b)] = terms[(b, a)] = c
    inverse = {}
    for a in range(1, n + 1):
        even, odd = (CoeffPoly.dot([(grid[j - 1][a], flow[j][0])
                                    for j in range(first, a + 1, 2)])
                     for first in (2, 1))
        if even + odd != (CoeffPoly.one() if a == 1 else CoeffPoly.zero()):
            raise CheckFailed("constructed law is not unital")
        inverse[(a,)] = even - odd
    f = TruncatedSeries(UV, n, terms)
    ubar = TruncatedSeries.from_terms(inverse, (U,), n)
    return _check_log_route(from_f(f, tag, g, ubar))


def from_f(f: TruncatedSeries, tag: str, log: TruncatedSeries,
           inverse: TruncatedSeries) -> FormalGroupLaw:
    """Bundle f with its log and its formal inverse, at f's order, checked
    once: building Phi (kept on the law) must leave the remainder
    f(u, ubar) = 0."""
    law = FormalGroupLaw(tag, f, inverse, log)
    try:
        phi_series(law)
    except NonzeroRemainder as exc:
        raise CheckFailed(f"law {tag}: f(u, ubar(u)) is not zero") from exc
    return law


def _check_log_route(law: FormalGroupLaw) -> FormalGroupLaw:
    """Cross-validate f against its log g by the invariant differential:
    g(0) = 0, g'(0) = c a nonzero scalar, f(u, 0) = u at the law's order N,
    and g'(u) df/dv = g'(v) df/du at order N - 1, checked as the swap
    invariance of f and of P = g'(v) df/du.

    The relation is Lemma 6.1's g'(f) df/dv = g'(v) with g'(f) eliminated
    against its u-twin g'(f) df/du = g'(u) (Silverman, *The Arithmetic of
    Elliptic Curves*, IV.4), so f0 = g^{-1}(g(u) + g(v)) satisfies it, and
    f0(u, 0) = u.  It is linear in f.  On a difference f - f0 whose lowest
    part h has degree d <= N, its lowest part is c (d/dv - d/du) h in
    degree d - 1, which vanishes only for h = k (u + v)^d, and f(u, 0) = u
    forces k = 0.  So the conditions hold exactly when f = f0 modulo
    degree N + 1, which is what g(f(u, v)) = g(u) + g(v) states.

    Swapping u and v turns P into g'(u) dF/dv, where F is f swapped.  For
    a symmetric f that is g'(u) df/dv, so the relation says P is swap
    invariant.  Conversely the relation makes f = f0, which is symmetric.
    So the relation holds exactly when f and P are both swap invariant:
    one product of g' by a derivative of f, no composition, no reversion."""
    f, g = law.f, law.log
    dg = cp_series(law)
    c = dg.constant_term()
    if (not g.constant_term().is_zero() or not c.is_constant() or c.is_zero()
            or {ev: t for ev, t in f.terms.items() if not ev[1]}
            != {(1, 0): CoeffPoly.one()}
            or not f._swap_invariant()
            or not (dg.rename({U: V}).extend(UV)
                    * f.partial_derivative(U))._swap_invariant()):
        raise CheckFailed(
            f"law {law.tag}: the logarithm and the closed form disagree")
    return law


def miscenko_law(order: int) -> FormalGroupLaw:
    return from_log(miscenko_log(order), tag="miscenko")


def additive_law(order: int) -> FormalGroupLaw:
    f = TruncatedSeries.from_terms({(1, 0): 1, (0, 1): 1}, UV, order)
    inverse = TruncatedSeries.from_terms({(1,): -1}, (U,), order)
    return _check_log_route(from_f(f, "additive", additive_log(order), inverse))


def multiplicative_law(beta, order: int) -> FormalGroupLaw:
    beta = Fraction(beta)
    if beta == 0:
        raise LawError("multiplicative law needs beta != 0; use the additive law")
    if order < 2:
        raise LawError(
            f"multiplicative law needs order >= 2 for its degree-2 term beta*u*v, "
            f"got {order}")
    f = TruncatedSeries.from_terms({(1, 0): 1, (0, 1): 1, (1, 1): beta}, UV, order)
    # ubar = -u/(1 + beta*u) = sum -(-beta)^(k-1) u^k
    inverse = TruncatedSeries.from_terms(
        {(k,): -(-beta) ** (k - 1) for k in range(1, order + 1)}, (U,), order)
    return _check_log_route(
        from_f(f, f"mult:{beta}", multiplicative_log(beta, order), inverse))


#: Most digits a mult:BETA may spell out, a decimal exponent counting as
#: that many zeros: 10^100 is accepted, 10^101 and 1e5000 are refused.
MAX_BETA_DIGITS = 101


def _beta_digits(raw: str) -> int:
    """A bound, read off the text alone, on the digits of BETA's numerator
    and denominator together; four exponent digits already exceed the cap."""
    mantissa, _, exponent = raw.partition("e")
    shift = exponent.lstrip("+-").replace("_", "").lstrip("0")[:4] or "0"
    return (sum(ch.isdigit() for ch in mantissa)
            + (int(shift) if shift.isdecimal() else 0))


def parse_law(selector: str, order: int) -> FormalGroupLaw:
    """Law selector used by the CLI: miscenko | additive | mult:BETA."""
    selector = selector.strip().lower()
    if selector == "miscenko":
        return miscenko_law(order)
    if selector == "additive":
        return additive_law(order)
    if selector.startswith(("mult:", "multiplicative:")):
        raw = selector.split(":", 1)[1]
        if _beta_digits(raw) > MAX_BETA_DIGITS:
            raise LawError(
                f"mult:BETA must have at most {MAX_BETA_DIGITS} digits, an "
                "exponent counting as that many zeros")
        try:
            beta = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise LawError(f"bad multiplicative parameter {raw!r}") from exc
        return multiplicative_law(beta, order)
    raise LawError(
        f"unknown law {selector!r} (expected miscenko | additive | mult:BETA)")


# -- derived series ----------------------------------------------------------


@per_law
def cp_series(law: FormalGroupLaw) -> TruncatedSeries:
    """g'(u); for the universal law this is 1 + cp1 u + cp2 u^2 + ..."""
    return law.log.partial_derivative(U)


@per_law
def n_series(law: FormalGroupLaw, n: int) -> TruncatedSeries:
    """[u]_n by iterated substitution: [u]_1 = u, [u]_(k+1) = f(u, [u]_k)."""
    if n < 1:
        raise LawError("n-series needs n >= 1")
    u1 = TruncatedSeries.variable(U, (U,), law.order)
    ser = u1
    for _ in range(n - 1):
        ser = law.f.evaluate({U: u1, V: ser})
    return ser


@per_law
def a_series(law: FormalGroupLaw) -> TruncatedSeries:
    """a(u) = [u]_2 / u = 2 + sum alpha_ij u^(i+j-1)."""
    return n_series(law, 2).divided_by_variable(U)


def alpha_table(law: FormalGroupLaw) -> dict[tuple[int, int], CoeffPoly]:
    """All stored alpha_ij = coefficient of u^i v^j in f, i, j >= 1."""
    table = {}
    for (i, j), c in law.f.terms.items():
        if i >= 1 and j >= 1:
            table[(i, j)] = c
    return table


@per_law
def alpha_series(law: FormalGroupLaw) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """alpha(u) = df/du at u = 0, read off the u^1 column of f, plus its
    even/odd split alpha(u) = alpha0(u^2) + u*alpha1(u^2)."""
    m = law.f.order - 1
    alpha = TruncatedSeries(
        (U,), m, {(j,): c for (i, j), c in law.f.terms.items() if i == 1})
    even = {(e // 2,): c for (e,), c in alpha.terms.items() if e % 2 == 0}
    odd = {(e // 2,): c for (e,), c in alpha.terms.items() if e % 2 == 1}
    alpha0 = TruncatedSeries(alpha.variables, m // 2, even)
    alpha1 = TruncatedSeries(alpha.variables, (m - 1) // 2, odd)
    return alpha, alpha0, alpha1


# -- axiom verification --------------------------------------------------------


def associator(s: TruncatedSeries) -> TruncatedSeries:
    """s(s(u,v), w) - s(u, s(v,w)) in (u, v, w) at the order of s.

    The inner s(u,v) is s itself in three variables, so it shares the table
    of powers s carries, if any (a law's f does).  A swap-invariant s
    (checked on every call) is a symmetric polynomial, so s(u, s(v,w)) =
    s(s(w,v), u), the left side with u and w exchanged; any other s
    composes its right side and reports its own associator."""
    w = TruncatedSeries.variable(W, UVW, s.order)
    lhs = s.evaluate({U: s.extend(UVW), V: w})
    if s._swap_invariant():
        return lhs - lhs.rename({U: W, W: U}).extend(UVW)
    u = TruncatedSeries.variable(U, UVW, s.order)
    return lhs - s.evaluate({U: u, V: s.rename({U: V, V: W}).extend(UVW)})


def axiom_differences(law: FormalGroupLaw, order: int) -> Differences:
    """Unitality (right, left), commutativity, associativity (see
    :func:`associator`) of f at n = min(order, law order), and inverse: the
    remainder f(u, ubar(u)) of :func:`phi_division` truncated to n."""
    n = min(order, law.order)
    f = law.f.truncate(n)
    u1 = TruncatedSeries.variable(U, (U,), n)
    zero1 = TruncatedSeries.zero((U,), n)
    right_unit = f.evaluate({U: u1, V: zero1}) - u1
    left_unit = f.evaluate({U: zero1, V: u1}) - u1
    commutativity = f - f.rename({U: V, V: U}).extend(UV)
    return [("unitality_right", right_unit), ("unitality_left", left_unit),
            ("commutativity", commutativity),
            ("associativity", associator(f)),
            ("inverse", phi_division(law)[1].truncate(n))]


def verify_axioms(law: FormalGroupLaw) -> list[IdentityResult]:
    """:func:`axiom_differences` at the law's order as rows, failures included."""
    return [check_zero(name, law.tag, d) for name, d in axiom_differences(law, law.order)]
