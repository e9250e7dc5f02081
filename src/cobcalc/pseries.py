"""Truncated multivariate power series over the graded coefficient ring.

A :class:`TruncatedSeries` stores the terms of total degree <= ``order``
of a power series in named weight-1 variables; terms above the order are
unknown, not zero, and every operation tracks how far its result can be
trusted.  Ring operations return ``min`` of the operand orders; exact
monomial shifts raise the order by the shift degree; composition sharpens
the bound using the lowest degree of the substituted values.  Order -1
trusts no term: it is what a derivative or a division by a variable of
an order-0 series can claim.

A product with a factor that is one term with coefficient 1 (``one``, a
variable, a monomial such as u*v) is an exponent shift: every term of
the other factor moves and keeps its coefficient, terms past the result
order are dropped, and no coefficient is multiplied.  Composition builds
each value's powers once, up to the highest exponent a kept term uses,
and starts each term's product from the first power it needs, so a term
that uses one variable costs no product at all.  A series may carry a
table of its own powers, which composition grows in place and reads
truncated and extended: each law's f carries one, so each power of f is
built once per law.  Only ``truncate`` and ``extend`` pass a table on, so
it holds powers of the series that carries it.  A product sorts the
second factor's terms by degree once, so each term of the first factor
visits only the terms that fit under the result order.  A difference is
built in one pass: equal coefficients cancel with no arithmetic, and no
negated copy is made.

A product of two series that are unchanged when the first two variables
are swapped, and a composition whose substituted values all are, is
itself unchanged by the swap (the law f(u,v) is commutative, so its
powers, a(f), f·a(f) and f(f(u,v), w) are such series).  Each operand is
checked in one pass over its terms; when all pass, only the exponent
vectors with e0 <= e1 are bucketed and summed, and each coefficient is
copied to its mirror.  Nothing is assumed: an operand that fails the
check takes the general path.  A composition is also unchanged by the
swap when its outer series is, its value for the second variable is the
mirror of its value for the first (as [v]_2 is of [u]_2), and its other
values are unchanged.  The mirror relation is checked in one pass over
the two values; when it holds, the second value's powers are the mirrors
of the first's, built with no product, whatever the outer series.  When
the other values are unchanged too, the product for a term x^j y^i with
j > i > 0 is the mirror of the one for x^i y^j, so each such pair of terms
makes one product.

Division by a variable difference (u - v) is exact polynomial division
with a hard error on a nonzero remainder.  It is the tests' reference
route for the series fgl and pontclass build without it.

Series reversion runs Newton iteration with a doubling working order.
Like division by (u - v), it is the tests' reference route: fgl builds
g^{-1}(g(u) + g(v)) and g^{-1}(-g(u)) from a log without reverting it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping
from operator import add

from .coeffring import CoeffPoly, ScalarLike, as_coeff

ExpVec = tuple[int, ...]

_BIG = 10**9  # stands in for "exact to all orders" in order arithmetic
_ONE = CoeffPoly.one()


class VariableMismatch(ValueError):
    """Operands live over different variable universes."""


class OrderExceeded(ValueError):
    """A coefficient or truncation beyond the trusted order was requested."""


class NonzeroConstantTerm(ValueError):
    """A substituted value has a constant term, so truncation would lie."""


class NonUnitLeadingTerm(ValueError):
    """Reversion/reciprocal needs a unit where none is available."""


class NonzeroRemainder(ValueError):
    """Exact division left a remainder; the claimed divisibility is false."""


class CheckFailed(ValueError):
    """A postcondition or cross-check failed; the result cannot be trusted."""


def _add_into(dst: dict[ExpVec, CoeffPoly], src: Mapping[ExpVec, CoeffPoly]) -> None:
    """Add the terms of src into dst, dropping sums that cancel."""
    for ev, c in src.items():
        s = dst.get(ev)
        s = c if s is None else s + c
        if s.is_zero():
            dst.pop(ev, None)
        else:
            dst[ev] = s


def _dot_buckets(buckets: dict[ExpVec, list[tuple[CoeffPoly, CoeffPoly]]],
                 mirror: bool) -> dict[ExpVec, CoeffPoly]:
    """The nonzero sums of products, one per exponent vector; with
    ``mirror`` the buckets hold only e0 <= e1 and each sum is also stored
    at the exponent vector with e0 and e1 swapped."""
    dot = CoeffPoly.dot
    terms = {}
    for ev, pairs in buckets.items():
        c = dot(pairs)
        if c:
            terms[ev] = c
            if mirror and ev[0] < ev[1]:
                terms[(ev[1], ev[0]) + ev[2:]] = c
    return terms


class TruncatedSeries:
    __slots__ = ("variables", "order", "terms", "_powers")

    def __init__(self, variables: tuple[str, ...], order: int,
                 terms: dict[ExpVec, CoeffPoly],
                 _powers: list["TruncatedSeries"] | None = None):
        # Assumes clean input; use the classmethod constructors.
        self.variables = variables
        self.order = order
        self.terms = terms
        # [x, x^2, ...] for the x the table was started on: self is x,
        # truncated and extended.
        self._powers = _powers

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str], order: int) -> "TruncatedSeries":
        return cls(tuple(variables), order, {})

    @classmethod
    def constant(cls, value: CoeffPoly | ScalarLike,
                 variables: Iterable[str], order: int) -> "TruncatedSeries":
        variables = tuple(variables)
        if order < -1:
            raise OrderExceeded(f"order {order} is below -1, which trusts no term")
        c = as_coeff(value)
        if c.is_zero() or order < 0:
            return cls(variables, order, {})
        return cls(variables, order, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables: Iterable[str], order: int) -> "TruncatedSeries":
        return cls.constant(1, variables, order)

    @classmethod
    def variable(cls, name: str, variables: Iterable[str], order: int) -> "TruncatedSeries":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"{name!r} not among {variables}")
        if order < 1:
            raise OrderExceeded(f"order {order} cannot hold a degree-1 term")
        ev = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, order, {ev: CoeffPoly.one()})

    @classmethod
    def from_terms(cls, terms: Mapping[ExpVec, CoeffPoly | ScalarLike],
                   variables: Iterable[str], order: int) -> "TruncatedSeries":
        variables = tuple(variables)
        clean: dict[ExpVec, CoeffPoly] = {}
        for ev, val in terms.items():
            ev = tuple(int(e) for e in ev)
            if len(ev) != len(variables):
                raise VariableMismatch(f"exponent vector {ev} does not fit {variables}")
            if any(e < 0 for e in ev):
                raise ValueError(f"negative exponent in {ev}")
            if sum(ev) > order:
                raise OrderExceeded(f"term of degree {sum(ev)} above order {order}")
            c = as_coeff(val)
            if not c.is_zero():
                clean[ev] = clean[ev] + c if ev in clean else c
                if clean[ev].is_zero():
                    del clean[ev]
        return cls(variables, order, clean)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expvec: ExpVec) -> CoeffPoly:
        expvec = tuple(expvec)
        if len(expvec) != len(self.variables):
            raise VariableMismatch(f"exponent vector {expvec} does not fit {self.variables}")
        if sum(expvec) > self.order:
            raise OrderExceeded(
                f"degree {sum(expvec)} beyond order {self.order}: unknown, not zero")
        return self.terms.get(expvec, CoeffPoly.zero())

    def constant_term(self) -> CoeffPoly:
        return self.terms.get((0,) * len(self.variables), CoeffPoly.zero())

    def lowest_degree(self) -> int:
        """Degree of the lowest stored term; _BIG when no terms are stored."""
        if not self.terms:
            return _BIG
        return min(sum(ev) for ev in self.terms)

    def _is_mirror_of(self, other: "TruncatedSeries") -> bool:
        """Whether self is other with its first two variables swapped: both
        store as many terms, and each term of other finds its mirror stored
        in self with an equal coefficient."""
        terms = self.terms
        return (len(self.variables) >= 2 and len(terms) == len(other.terms)
                and all(terms.get((ev[1], ev[0]) + ev[2:]) == c
                        for ev, c in other.terms.items()))

    def _swap_invariant(self) -> bool:
        """Whether swapping the first two variables leaves self unchanged."""
        return self._is_mirror_of(self)

    def _mirrored(self) -> "TruncatedSeries":
        """Self with the exponents of its first two variables exchanged."""
        return TruncatedSeries(self.variables, self.order, {
            (ev[1], ev[0]) + ev[2:]: c for ev, c in self.terms.items()})

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        part = {ev: c for ev, c in self.terms.items() if sum(ev) == degree}
        return TruncatedSeries(self.variables, self.order, part)

    def is_graded(self, total_weight: int) -> bool:
        """Degree-d coefficients are homogeneous of weight d - total_weight.

        With cpn of weight n and the variables of weight 1, a series of
        declared total weight t stores, at degree d, coefficients that are
        homogeneous of weight d - t (t = 1 for f, ubar, [u]_2; t = 0 for
        a, alpha, delta, d, Phi).
        """
        return all(c.is_homogeneous(sum(ev) - total_weight)
                   for ev, c in self.terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables == other.variables and self.order == other.order
                and self.terms == other.terms)

    def __str__(self) -> str:
        return series_str(self)

    def __repr__(self) -> str:
        return f"TruncatedSeries[{','.join(self.variables)}; O({self.order})]({self})"

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variable universes differ: {self.variables} vs {other.variables}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        terms = {ev: c for ev, c in self.terms.items() if sum(ev) <= order}
        _add_into(terms, {ev: c for ev, c in other.terms.items() if sum(ev) <= order})
        return TruncatedSeries(self.variables, order, terms)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        terms = {ev: c for ev, c in self.terms.items() if sum(ev) <= order}
        for ev, c in other.terms.items():
            if sum(ev) > order:
                continue
            s = terms.get(ev)
            if s is None:
                terms[ev] = -c
            elif s == c:
                del terms[ev]       # canonical coefficients: equal means s - c = 0
            else:
                terms[ev] = s - c
        return TruncatedSeries(self.variables, order, terms)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.order,
                               {ev: -c for ev, c in self.terms.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        for unit, rest in ((other, self), (self, other)):
            if len(unit.terms) == 1:
                (shift, c), = unit.terms.items()
                if c == _ONE:
                    return rest._shifted(shift, order)
        # The coefficient pairs of each output exponent vector go to one
        # CoeffPoly.dot, which normalizes once per output coefficient.
        half = self._swap_invariant() and other._swap_invariant()
        buckets: dict[ExpVec, list[tuple[CoeffPoly, CoeffPoly]]] = {}
        # other's terms sorted by degree once, so each term of self
        # visits only the prefix that fits under the order.
        bkeys = sorted(other.terms, key=sum)
        degrees = list(map(sum, bkeys))
        bitems = list(zip(bkeys, map(other.terms.__getitem__, bkeys)))
        for ea, ca in self.terms.items():
            room = order - sum(ea)
            if room < 0:
                continue
            for eb, cb in bitems[:bisect_right(degrees, room)]:
                ev = tuple(map(add, ea, eb))
                if half and ev[0] > ev[1]:
                    continue
                pairs = buckets.get(ev)
                if pairs is None:
                    buckets[ev] = [(ca, cb)]
                else:
                    pairs.append((ca, cb))
        return TruncatedSeries(self.variables, order, _dot_buckets(buckets, half))

    def scale(self, value: CoeffPoly | ScalarLike) -> "TruncatedSeries":
        c = as_coeff(value)
        terms = {}
        for ev, t in self.terms.items():
            prod = t * c
            if not prod.is_zero():
                terms[ev] = prod
        return TruncatedSeries(self.variables, self.order, terms)

    def with_power_table(self) -> "TruncatedSeries":
        """Self carrying a table of its powers for :meth:`evaluate`; a
        series that carries one already is returned as is."""
        return self if self._powers is not None else TruncatedSeries(
            self.variables, self.order, self.terms, [self])

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative power of a series")
        result = TruncatedSeries.one(self.variables, self.order)
        for _ in range(n):
            result = result * self
        return result

    def _shifted(self, shift: ExpVec, order: int) -> "TruncatedSeries":
        """The product by the unit monomial of exponent vector ``shift``,
        trusted to ``order``: every term moves and keeps its coefficient,
        and those past the order are dropped."""
        room = order - sum(shift)
        return TruncatedSeries(self.variables, order, {
            tuple(map(add, ev, shift)): t
            for ev, t in self.terms.items() if sum(ev) <= room})

    def times_monomial(self, expvec: ExpVec) -> "TruncatedSeries":
        """Multiply by an exact unit monomial; the trusted order rises by its
        degree, so no term is dropped."""
        expvec = tuple(expvec)
        if len(expvec) != len(self.variables):
            raise VariableMismatch(f"{expvec} does not fit {self.variables}")
        return self._shifted(expvec, self.order + sum(expvec))

    # -- order management ----------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderExceeded(
                f"cannot extend order {self.order} to {order}: tail is unknown")
        if order < -1:
            raise OrderExceeded(f"order {order} is below -1, which trusts no term")
        if order == self.order:
            return self             # a series is never changed once built
        terms = {ev: c for ev, c in self.terms.items() if sum(ev) <= order}
        return TruncatedSeries(self.variables, order, terms, self._powers)

    def _assume_order(self, order: int) -> "TruncatedSeries":
        # Internal escape for spots where the conservative min-rule
        # under-reports a bound that is provably valid (see reversion).
        if order <= self.order:
            return self.truncate(order)
        return TruncatedSeries(self.variables, order, self.terms)

    # -- variable plumbing --------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "TruncatedSeries":
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(new_vars)) != len(new_vars):
            raise VariableMismatch(f"renaming collides: {new_vars}")
        return TruncatedSeries(new_vars, self.order, self.terms)

    def extend(self, variables: Iterable[str]) -> "TruncatedSeries":
        """Re-embed into a larger variable universe."""
        variables = tuple(variables)
        if variables == self.variables:
            return self             # a series is never changed once built
        positions = []
        for v in self.variables:
            if v not in variables:
                raise VariableMismatch(f"{v!r} missing from {variables}")
            positions.append(variables.index(v))
        width = len(variables)
        terms = {}
        for ev, c in self.terms.items():
            new_ev = [0] * width
            for pos, e in zip(positions, ev):
                new_ev[pos] = e
            terms[tuple(new_ev)] = c
        return TruncatedSeries(variables, self.order, terms, self._powers)

    def restrict(self, variables: Iterable[str]) -> "TruncatedSeries":
        """Drop variables that occur with exponent zero everywhere."""
        variables = tuple(variables)
        keep = []
        for i, v in enumerate(self.variables):
            if v in variables:
                keep.append(i)
            else:
                if any(ev[i] for ev in self.terms):
                    raise VariableMismatch(f"{v!r} occurs and cannot be dropped")
        index_of = {v: i for i, v in enumerate(self.variables)}
        order_map = [index_of[v] for v in variables]
        terms = {tuple(ev[i] for i in order_map): c for ev, c in self.terms.items()}
        return TruncatedSeries(variables, self.order, terms)

    # -- calculus -------------------------------------------------------------

    def partial_derivative(self, var: str) -> "TruncatedSeries":
        i = self.variables.index(var)
        terms: dict[ExpVec, CoeffPoly] = {}
        for ev, c in self.terms.items():
            e = ev[i]
            if not e:
                continue
            # Distinct source terms land on distinct exponent vectors.
            terms[ev[:i] + (e - 1,) + ev[i + 1:]] = c.scale(e)
        return TruncatedSeries(self.variables, max(self.order - 1, -1), terms)

    # -- composition ------------------------------------------------------------

    def evaluate(self, values: Mapping[str, "TruncatedSeries"]) -> "TruncatedSeries":
        """Substitute a series for every variable at once (capture-free).

        All values must share one variable universe and order, and must
        have zero constant term so the discarded tail of ``self`` cannot
        contaminate stored degrees.  The result order sharpens with the
        lowest degree among the substituted values.

        A value's table of powers (:meth:`with_power_table`) is grown in
        place up to the highest exponent a kept term uses, and read
        truncated to the result order and extended to the values'
        variables.
        """
        if not self.variables:
            raise VariableMismatch("a series in no variables has none to substitute")
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise VariableMismatch(f"no value given for {missing}")
        vals = [values[v] for v in self.variables]
        target_vars = vals[0].variables
        target_order = min(v.order for v in vals)
        for v in vals:
            if v.variables != target_vars:
                raise VariableMismatch("substituted values disagree on variables")
            if not v.constant_term().is_zero():
                raise NonzeroConstantTerm(
                    "substituted value has a nonzero constant term")
        lmin = min(v.lowest_degree() for v in vals)
        result_order = min(target_order, (self.order + 1) * lmin - 1)

        # The result is unchanged by swapping u and v when every value is,
        # or when self is, the second value mirrors the first and every
        # other value is unchanged.  Under the last two conditions the
        # product for a term with exponents e1, e0 is the mirror of the one
        # for e0, e1, so each such pair of terms makes one product.
        mirror = len(vals) >= 2 and vals[1]._is_mirror_of(vals[0])
        twins = mirror and all(v._swap_invariant() for v in vals[2:])
        half = twins and self._swap_invariant() or all(
            v._swap_invariant() for v in vals)

        lows = [min(v.lowest_degree(), result_order + 1) for v in vals]
        # (exponents of the product read, read mirrored?, coefficient)
        kept = []
        for ev, c in self.terms.items():
            if sum(e * low for e, low in zip(ev, lows)) <= result_order:
                flip = twins and ev[0] > ev[1] > 0
                kept.append(((ev[1], ev[0]) + ev[2:] if flip else ev, flip, c))
        tops = [max((ev[idx] for ev, _, _ in kept), default=0)
                for idx in range(len(vals))]
        if mirror:
            tops[0] = max(tops[:2])
        # Each value's powers up to the highest exponent a kept term uses;
        # with mirror, the second value's are the first's, mirrored.
        one = TruncatedSeries.one(target_vars, result_order)
        tables: list[list[TruncatedSeries]] = []
        for idx, (val, top) in enumerate(zip(vals, tops)):
            pw = [one]
            table = val._powers
            if table is not None:
                while len(table) < top:
                    table.append(table[-1] * table[0])
                pw += [p.truncate(result_order).extend(target_vars)
                       for p in table[:top]]
            while len(pw) <= top:
                pw.append(tables[0][len(pw)]._mirrored() if mirror and idx == 1
                          else pw[-1] * val)
            tables.append(pw)

        buckets: dict[ExpVec, list[tuple[CoeffPoly, CoeffPoly]]] = {}
        shared: dict[ExpVec, TruncatedSeries] = {}
        for ev, flip, c in kept:
            prod = shared.pop(ev, None)
            if prod is None:
                # The first power needed starts the product; one is only
                # kept for the constant term.
                prod = one
                for idx, e in enumerate(ev):
                    if e:
                        prod = tables[idx][e] if prod is one else prod * tables[idx][e]
                if twins and 0 < ev[0] < ev[1]:
                    shared[ev] = prod       # for the twin term, if it comes
            for pev, pc in prod.terms.items():
                if flip:
                    pev = (pev[1], pev[0]) + pev[2:]
                if half and pev[0] > pev[1]:
                    continue
                pairs = buckets.get(pev)
                if pairs is None:
                    buckets[pev] = [(pc, c)]
                else:
                    pairs.append((pc, c))
        # prod is truncated at result_order, so every bucket
        # is a stored degree of the result.
        return TruncatedSeries(target_vars, result_order, _dot_buckets(buckets, half))

    def substitute(self, var: str, value: "TruncatedSeries") -> "TruncatedSeries":
        """Replace one variable; the others map to themselves in the
        value's universe."""
        if var not in self.variables:
            raise VariableMismatch(f"{var!r} not among {self.variables}")
        values: dict[str, TruncatedSeries] = {var: value}
        for v in self.variables:
            if v == var:
                continue
            values[v] = TruncatedSeries.variable(v, value.variables, value.order)
        return self.evaluate(values)

    # -- division ------------------------------------------------------------------

    def divided_by_variable(self, var: str) -> "TruncatedSeries":
        """Exact division by one variable; errors if any term lacks it."""
        i = self.variables.index(var)
        terms = {}
        for ev, c in self.terms.items():
            if ev[i] == 0:
                raise NonzeroRemainder(
                    f"term {ev} has no factor {var}; not divisible")
            terms[ev[:i] + (ev[i] - 1,) + ev[i + 1:]] = c
        return TruncatedSeries(self.variables, max(self.order - 1, -1), terms)

    def divided_difference(self, var_a: str, var_b: str) -> "TruncatedSeries":
        """Exact quotient by (var_a - var_b), with a remainder check.

        The remainder of synthetic division is self with var_a set to
        var_b; it must vanish identically or the division is refused.
        """
        ia = self.variables.index(var_a)
        ib = self.variables.index(var_b)
        if ia == ib:
            raise VariableMismatch("divided difference needs two distinct variables")
        # View self as a polynomial in var_a; coefficients keep full width
        # with the var_a slot zeroed.
        by_deg: dict[int, dict[ExpVec, CoeffPoly]] = {}
        for ev, c in self.terms.items():
            k = ev[ia]
            stripped = ev[:ia] + (0,) + ev[ia + 1:]
            by_deg.setdefault(k, {})[stripped] = c
        top = max(by_deg, default=0)

        def shift_b(terms: dict[ExpVec, CoeffPoly]) -> dict[ExpVec, CoeffPoly]:
            return {ev[:ib] + (ev[ib] + 1,) + ev[ib + 1:]: c for ev, c in terms.items()}

        quotient: dict[ExpVec, CoeffPoly] = {}
        carry: dict[ExpVec, CoeffPoly] = {}
        for k in range(top, 0, -1):
            _add_into(carry, by_deg.get(k, {}))
            # Carry keys hold 0 in the var_a slot and no zero values, so each
            # k writes nonzero coefficients to keys no other k writes.
            quotient.update({ev[:ia] + (k - 1,) + ev[ia + 1:]: c
                             for ev, c in carry.items()})
            carry = shift_b(carry)
        remainder = dict(carry)
        _add_into(remainder, by_deg.get(0, {}))
        if remainder:
            ev = min(remainder, key=lambda e: (sum(e), e))
            raise NonzeroRemainder(
                f"division by ({var_a} - {var_b}) leaves remainder term "
                f"{remainder[ev]} at {ev}: the claimed identity is false")
        q = TruncatedSeries(self.variables, self.order - 1, quotient)
        # Re-verify the factorization on every call: q * (var_a - var_b) is
        # two exponent shifts of q, so it multiplies no coefficient.
        n = self.order
        e_a = tuple(int(i == ia) for i in range(len(self.variables)))
        e_b = tuple(int(i == ib) for i in range(len(self.variables)))
        if not (q._shifted(e_a, n) - q._shifted(e_b, n) - self).is_zero():
            raise CheckFailed("divided_difference postcondition failed")
        return q

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.constant_term()
        if not c0.is_constant() or c0.is_zero():
            raise NonUnitLeadingTerm(
                f"constant term {c0} is not an invertible scalar")
        num, den = c0.constant_ratio()
        inv_c0 = CoeffPoly.const(den, num)
        rest = (self - TruncatedSeries.constant(c0, self.variables, self.order)).scale(inv_c0)
        # 1 / (c0 (1 + r)) = (1/c0) * sum (-r)^k, r has no constant term.
        result = TruncatedSeries.one(self.variables, self.order)
        power = TruncatedSeries.one(self.variables, self.order)
        for _ in range(self.order):
            power = power * (-rest)
            if power.is_zero():
                break
            result = result + power
        return result.scale(inv_c0)

    # -- reversion --------------------------------------------------------------------

    def _reversion_checks(self) -> tuple[str, CoeffPoly]:
        """The variable and the linear coefficient, a nonzero scalar, of a
        one-variable series with no constant term."""
        if len(self.variables) != 1:
            raise VariableMismatch("reversion needs a one-variable series")
        x = self.variables[0]
        if not self.constant_term().is_zero():
            raise NonUnitLeadingTerm("reversion needs a zero constant term")
        c1 = self.coefficient((1,)) if self.order >= 1 else CoeffPoly.zero()
        if not c1.is_constant() or c1.is_zero():
            raise NonUnitLeadingTerm(
                f"linear coefficient {c1} is not an invertible scalar")
        return x, c1

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse by Newton iteration with a doubling working
        order (Brent & Kung 1978).  The step t <- t - (g(t) - x) t' uses the
        iterate's own derivative: if t is exact to degree p, then t' equals
        1/g'(t) to degree p - 1, g(t) - x starts at degree p + 1, and one
        step makes t exact to degree 2p.  So each step runs at order
        p = min(2p, n) on ``self`` truncated to p."""
        x, c1 = self._reversion_checks()
        n = self.order
        ident = TruncatedSeries.variable(x, self.variables, n)
        num, den = c1.constant_ratio()
        t = ident.truncate(1).scale(CoeffPoly.const(den, num))
        p = 1
        while p < n:
            p = min(2 * p, n)
            # t is exact to its old order q; one step makes it exact to p.
            # err starts at degree q + 1, so degrees <= p <= 2q of the
            # product read t' only to its stored order q - 1.
            dt = t.partial_derivative(x)._assume_order(p)
            t = t._assume_order(p)
            err = self.truncate(p).evaluate({x: t}) - ident.truncate(p)
            t = t - err * dt
        if self.evaluate({x: t})._assume_order(n) != ident:
            raise CheckFailed("reversion postcondition failed")
        return t


def series_str(s: TruncatedSeries) -> str:
    """Canonical text rendering, terms by (total degree, exponent vector)."""
    if not s.terms:
        return "0"
    parts = []
    for ev in sorted(s.terms, key=lambda e: (sum(e), tuple(-x for x in e))):
        c = s.terms[ev]
        mono = "*".join(
            (v if e == 1 else f"{v}^{e}")
            for v, e in zip(s.variables, ev) if e)
        body = str(c)
        wrapped = f"({body})" if (" " in body) else body
        if not mono:
            parts.append(wrapped)
        elif wrapped == "1":
            parts.append(mono)
        elif wrapped == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{wrapped}*{mono}")
    return " + ".join(parts)

