"""Exact scalar and graded-polynomial arithmetic for series coefficients.

The scalar field is the rationals with unbounded integer parts,
:class:`fractions.Fraction`, which keeps every value in lowest terms with
a positive denominator.  :class:`CoeffPoly` is a sparse polynomial in
generators cp1, cp2, ... over that field; the generator cpn carries
weight n, so weights add under multiplication.  There is no cp0
generator: the empty monomial is the constant 1.

Inside a :class:`CoeffPoly` each monomial is one packed non-negative
integer (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007): the exponent of cpg sits
in the ``FIELD_BITS``-bit field starting at bit ``FIELD_BITS * (g - 1)``,
the empty monomial is 0, and the product of two monomials is one integer
addition.  Every stored exponent stays below half the field (128 for the
8-bit field), so the sum of two stored exponents never carries into the
next generator's field.  The guard refuses with :class:`ExponentOverflow`
an exponent of 128 or more where a monomial is packed, and any product
whose keys have a field's top bit set.  CLI inputs stay far below the
limit: an exponent of cpg in a coefficient of weight w is at most w / g,
and at ``--order <= 24`` (plus the one order a suite adds) the series
built carry coefficients of weight below 30.  The tuple form
:data:`Monomial` appears only at the API boundary (``from_terms``,
``terms``, ``coefficient``, rendering, ``specialize``, ``weights``).

:meth:`CoeffPoly.dot` is the one multiplication kernel: it sums the
products of a list of pairs over one common denominator, accumulates
integer numerators on packed keys and normalizes once, so a series
product normalizes once per output coefficient rather than once per
coefficient product.

All values are immutable and all operations are pure functions, so
independent computations may run concurrently without synchronization.
No floating point is used anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import or_

#: A monomial is a tuple of (generator index, exponent) pairs, sorted by
#: generator index, with indices >= 1 and exponents >= 1.  () is 1.
Monomial = tuple[tuple[int, int], ...]

ScalarLike = int | Fraction

#: Bits per generator in a packed monomial: one byte, so ``int.to_bytes``
#: reads the exponents of cp1, cp2, ... in order.  Exponents stay below half.
FIELD_BITS = 8
_LIMIT = 1 << (FIELD_BITS - 1)       # the first exponent refused (128)


class MissingGenerator(ValueError):
    """A specialization omitted a generator that occurs in the polynomial."""


class ExponentOverflow(ValueError):
    """An exponent does not fit below half of its packed field."""


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials in tuple form."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for g, e in b:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items()))


def mono_weight(m: Monomial) -> int:
    return sum(g * e for g, e in m)


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for g, e in m:
        parts.append(f"cp{g}" if e == 1 else f"cp{g}^{e}")
    return "*".join(parts)


def _mono_validate(m: Iterable[tuple[int, int]]) -> Monomial:
    """The canonical monomial of (generator, exponent) pairs: a repeated
    generator gets the sum of its exponents, zero exponents are dropped."""
    exps: dict[int, int] = {}
    for g, e in sorted((int(g), int(e)) for g, e in m if e):
        if g < 1:
            raise ValueError(f"generator index must be >= 1, got cp{g}")
        if e < 0:
            raise ValueError(f"negative exponent on cp{g}")
        exps[g] = exps.get(g, 0) + e
    return tuple(exps.items())


def _pack(m: Monomial) -> int:
    """The packed key of a canonical monomial."""
    key = 0
    for g, e in m:
        if e >= _LIMIT:
            raise ExponentOverflow(
                f"exponent {e} of cp{g} exceeds the packed limit {_LIMIT - 1}")
        key |= e << (FIELD_BITS * (g - 1))
    return key


def _fields(key: int) -> int:
    """The number of fields up to the highest nonzero one."""
    return -(-key.bit_length() // FIELD_BITS)


def _dense_mono(exps: bytes) -> Monomial:
    """The monomial of a dense exponent vector, cp1 first."""
    return tuple([(g, e) for g, e in enumerate(exps, 1) if e])


def _unpack(key: int) -> Monomial:
    return _dense_mono(key.to_bytes(_fields(key), "little"))


@lru_cache(maxsize=4096)
def _mono_render(key: int) -> tuple[int, bytes, str]:
    """Weight, exponent vector (cp1 first, up to the last nonzero exponent)
    and text of a packed monomial; a table renders each monomial many times.

    Vectors without trailing zeros order like the zero-padded ones, since a
    zero sorts below every exponent."""
    dense = key.to_bytes(_fields(key), "little")
    m = _dense_mono(dense)
    return mono_weight(m), dense, mono_str(m)


@lru_cache(maxsize=None)
def _guard_bits(fields: int) -> int:
    """The top bit of each of the lowest ``fields`` fields."""
    return sum(_LIMIT << (FIELD_BITS * k) for k in range(fields))


def _check_keys(keys: Iterable[int]) -> None:
    """Refuse product keys with an exponent at or above the limit.

    Each key is a sum of two keys whose fields are below the limit, so no
    field carried and an overflowing field has its top bit set."""
    bits = reduce(or_, keys, 0)
    over = bits & _guard_bits(_fields(bits))
    if over:
        g = _fields(over)
        raise ExponentOverflow(
            f"a product raises cp{g} past the packed exponent limit {_LIMIT - 1}")


class CoeffPoly:
    """Sparse polynomial in cp1, cp2, ... with exact rational coefficients.

    Internally all coefficients share one positive denominator and the
    integer numerators, keyed by packed monomials, have no common factor
    with it, so ring operations run on plain integers and normalize once
    per result.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[int, int], den: int):
        # Assumes normalized input; use the classmethod constructors.
        self._num = num
        self._den = den

    @staticmethod
    def _make(num: dict[int, int], den: int) -> "CoeffPoly":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not all(num.values()):
            num = {m: c for m, c in num.items() if c}
        if not num:
            return _ZERO
        if den < 0:
            den = -den
            num = {m: -c for m, c in num.items()}
        if den != 1:
            g = gcd(den, *num.values())
            if g > 1:
                den //= g
                num = {m: c // g for m, c in num.items()}
        return CoeffPoly(num, den)

    @classmethod
    def zero(cls) -> "CoeffPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "CoeffPoly":
        return _ONE

    @classmethod
    def const(cls, value: ScalarLike) -> "CoeffPoly":
        q = Fraction(value)
        if not q:
            return _ZERO
        return cls._make({0: q.numerator}, q.denominator)

    @classmethod
    def gen(cls, n: int) -> "CoeffPoly":
        """The generator cpn (weight n); n must be >= 1."""
        if n < 1:
            raise ValueError("generator index must be >= 1 (cp0 is the constant 1)")
        return CoeffPoly({_pack(((n, 1),)): 1}, 1)

    @classmethod
    def from_terms(cls, terms: Mapping[Monomial, ScalarLike]) -> "CoeffPoly":
        """The sum of the terms; monomials equal in canonical form add up."""
        fracs = [(_pack(_mono_validate(m)), Fraction(c)) for m, c in terms.items()]
        den = 1
        for _, q in fracs:
            den = den * q.denominator // gcd(den, q.denominator)
        num: dict[int, int] = {}
        for key, q in fracs:
            num[key] = num.get(key, 0) + q.numerator * (den // q.denominator)
        return cls._make(num, den)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_value(self) -> Fraction:
        """Coefficient of the empty monomial."""
        return Fraction(self._num.get(0, 0), self._den)

    def is_integral(self) -> bool:
        return self._den == 1

    def as_int(self) -> int:
        """The value of a constant integer polynomial."""
        if not self.is_constant() or self._den != 1:
            raise ValueError(f"not a constant integer: {self}")
        return self._num.get(0, 0)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self._num.get(_pack(_mono_validate(mono)), 0), self._den)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        den = self._den
        for m, c in self._num.items():
            yield _unpack(m), Fraction(c, den)

    def weights(self) -> set[int]:
        return {mono_weight(_unpack(m)) for m in self._num}

    def is_homogeneous(self, weight: int | None = None) -> bool:
        """True if every monomial has the same weight (the zero polynomial
        is homogeneous of any weight)."""
        ws = self.weights()
        if not ws:
            return True
        if weight is None:
            return len(ws) == 1
        return ws == {weight}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "CoeffPoly") -> "CoeffPoly":
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        da, db = self._den, other._den
        if da == db:
            num = dict(self._num)
            for m, c in other._num.items():
                num[m] = num.get(m, 0) + c
            return self._make(num, da)
        g = gcd(da, db)
        la, lb = db // g, da // g
        num = {m: c * la for m, c in self._num.items()}
        for m, c in other._num.items():
            num[m] = num.get(m, 0) + c * lb
        return self._make(num, da * la)

    def __sub__(self, other: "CoeffPoly") -> "CoeffPoly":
        return self + (-other)

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly({m: -c for m, c in self._num.items()}, self._den)

    @staticmethod
    def dot(pairs: Sequence[tuple["CoeffPoly", "CoeffPoly"]]) -> "CoeffPoly":
        """The sum of a * b over the (a, b) pairs, normalized once.

        All products go over one common denominator, the lcm of the
        operand denominator products, so the numerators accumulate as
        integers on packed keys; an empty list sums to zero."""
        den = 1
        for a, b in pairs:
            d = a._den * b._den
            if den % d:
                den = den // gcd(den, d) * d
        num: dict[int, int] = {}
        get = num.get
        for a, b in pairs:
            scale = den // (a._den * b._den)
            bitems = b._num.items()
            for ma, ca in a._num.items():
                ca *= scale
                for mb, cb in bitems:
                    m = ma + mb
                    num[m] = get(m, 0) + ca * cb
        if not num:
            return _ZERO
        _check_keys(num)
        return CoeffPoly._make(num, den)

    def __mul__(self, other: "CoeffPoly") -> "CoeffPoly":
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return CoeffPoly.dot(((self, other),))

    def scale(self, value: ScalarLike) -> "CoeffPoly":
        q = Fraction(value)
        if not q:
            return _ZERO
        num = {m: c * q.numerator for m, c in self._num.items()}
        return self._make(num, self._den * q.denominator)

    def specialize(self, assignment: Mapping[int, ScalarLike]) -> Fraction:
        """Evaluate under cpn -> assignment[n]; a ring homomorphism to Q."""
        values = {g: Fraction(v) for g, v in assignment.items()}
        total = Fraction(0)
        for m, c in self.terms():
            term = c
            for g, e in m:
                if g not in values:
                    raise MissingGenerator(f"no value assigned to cp{g}")
                term *= values[g] ** e
            total += term
        return total

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def _sorted_rows(self) -> list[tuple[int, bytes, str, int]]:
        """(weight, exponent vector, text, numerator) of each term, sorted by
        weight, then by the exponent vector (cp1 first)."""
        return sorted([(*_mono_render(m), c) for m, c in self._num.items()])

    def __str__(self) -> str:
        if not self._num:
            return "0"
        den = self._den
        chunks: list[str] = []
        for weight, _, text, c in self._sorted_rows():
            g = gcd(c, den)
            n, d = abs(c) // g, den // g
            mag = str(n) if d == 1 else f"{n}/{d}"
            if not weight:
                body = mag
            elif mag == "1":
                body = text
            else:
                body = f"{mag}*{text}"
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"CoeffPoly({self})"


_ZERO = CoeffPoly({}, 1)
_ONE = CoeffPoly({0: 1}, 1)


def as_coeff(value: CoeffPoly | ScalarLike) -> CoeffPoly:
    """Coerce an int/Fraction scalar (or pass a CoeffPoly through)."""
    if isinstance(value, CoeffPoly):
        return value
    return CoeffPoly.const(value)
