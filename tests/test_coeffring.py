from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobcalc.coeffring import CoeffPoly, ExponentOverflow, MissingGenerator, mono_weight

from conftest import coeff_polys, small_fractions
from oracles import sorted_terms

cp1 = CoeffPoly.gen(1)
cp2 = CoeffPoly.gen(2)
half = Fraction(1, 2)


def test_additive_inverse():
    assert (cp1 + (-cp1)).is_zero()


def test_additive_identity():
    assert CoeffPoly.zero() + cp2 == cp2


def test_rational_halves_sum_to_generator():
    assert cp1.scale(half) + cp1.scale(half) == cp1


def test_square_weight():
    sq = cp1 * cp1
    assert sq == CoeffPoly.from_terms({((1, 2),): 1})
    assert sq.weights() == {2}


def test_zero_annihilates():
    assert (cp1 * CoeffPoly.zero()).is_zero()


def test_distributivity_example():
    assert (cp1 + cp2) * cp1 == cp1 * cp1 + cp2 * cp1


def test_specialize_examples():
    assert cp1.specialize({1: -1}) == -1
    assert (cp1 * cp1).specialize({1: -1}) == 1
    assert CoeffPoly.one().specialize({}) == 1


def test_specialize_missing_generator_names_it():
    with pytest.raises(MissingGenerator, match="cp2"):
        (cp1 + cp2).specialize({1: 0})


def test_generator_zero_rejected():
    with pytest.raises(ValueError):
        CoeffPoly.gen(0)


def test_rendering_canonical():
    p = -cp1 + (cp1 * cp1).scale(half)
    assert str(p) == "-cp1 + 1/2*cp1^2"
    assert str(CoeffPoly.zero()) == "0"
    assert str(CoeffPoly.const(Fraction(3, 4))) == "3/4"
    assert str(CoeffPoly.const(-2) * cp2) == "-2*cp2"


def test_weight_ordering_in_rendering():
    p = cp1 * cp1 + cp2 + cp1
    # weight 1 first, then the weight-2 monomials by exponent vector
    assert str(p) == "cp1 + cp2 + cp1^2"


@given(coeff_polys, coeff_polys, coeff_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(coeff_polys)
def test_neutral_elements(a):
    assert a + CoeffPoly.zero() == a
    assert a * CoeffPoly.one() == a
    assert (a - a).is_zero()


@given(coeff_polys, coeff_polys)
def test_homogeneous_weight_additivity(a, b):
    for wa in a.weights():
        for wb in b.weights():
            ha = CoeffPoly.from_terms(
                {m: c for m, c in a.terms() if mono_weight(m) == wa})
            hb = CoeffPoly.from_terms(
                {m: c for m, c in b.terms() if mono_weight(m) == wb})
            prod = ha * hb
            if not prod.is_zero():
                assert prod.weights() == {wa + wb}


@given(coeff_polys, coeff_polys)
def test_specialize_is_ring_homomorphism(a, b):
    assignment = {1: Fraction(-1), 2: Fraction(1, 2), 3: Fraction(2)}
    assert (a * b).specialize(assignment) == \
        a.specialize(assignment) * b.specialize(assignment)
    assert (a + b).specialize(assignment) == \
        a.specialize(assignment) + b.specialize(assignment)


@given(coeff_polys)
def test_hash_consistent_with_eq(a):
    clone = CoeffPoly.from_terms(dict(a.terms()))
    assert clone == a
    assert hash(clone) == hash(a)


# -- canonical monomials ---------------------------------------------------------


def test_repeated_generator_merges_exponents():
    twice = CoeffPoly.from_terms({((1, 1), (1, 1)): 1})
    assert twice == cp1 * cp1
    assert twice * CoeffPoly.one() == cp1 * cp1
    assert str(twice) == "cp1^2"
    assert dict(twice.terms()) == {((1, 2),): 1}
    assert twice.coefficient(((1, 1), (1, 1))) == 1


def test_terms_with_one_canonical_monomial_add_up():
    p = CoeffPoly.from_terms({((1, 2),): 1, ((1, 1), (1, 1)): half, ((2, 0), (1, 2)): 1})
    assert p == (cp1 * cp1).scale(Fraction(5, 2))


# -- packed exponents and their guard ----------------------------------------------

TOP = 127   # the largest exponent a packed field holds


def test_largest_exponent_packs_multiplies_and_round_trips():
    top3 = CoeffPoly.from_terms({((3, TOP),): Fraction(2, 3)})
    top2 = CoeffPoly.from_terms({((2, TOP),): -1})
    assert dict(top3.terms()) == {((3, TOP),): Fraction(2, 3)}
    prod = top3 * top2 * cp1
    assert dict(prod.terms()) == {((1, 1), (2, TOP), (3, TOP)): Fraction(-2, 3)}
    assert max(g for m, _ in prod.terms() for g, _ in m) == 3
    assert prod.weights() == {1 + 2 * TOP + 3 * TOP}
    power = CoeffPoly.one()
    for _ in range(TOP):
        power = power * cp1
    assert power == CoeffPoly.from_terms({((1, TOP),): 1})


def test_exponent_past_the_limit_is_refused_where_packed():
    with pytest.raises(ExponentOverflow, match="cp2"):
        CoeffPoly.from_terms({((2, TOP + 1),): 1})
    with pytest.raises(ExponentOverflow):
        CoeffPoly.from_terms({((2, 100), (2, 28)): 1})
    assert issubclass(ExponentOverflow, ValueError)   # the CLI's exit 2


@pytest.mark.parametrize("g", [1, 2, 5])
def test_product_crossing_a_field_boundary_raises(g):
    half_top = CoeffPoly.from_terms({((g, 64),): 1})
    top = CoeffPoly.from_terms({((g, TOP),): 1})
    # 64 + 64 = 128 sets the field's top (guard) bit; 127 + 127 = 254 would
    # carry into the next generator's field at the next product.
    for a, b in ((half_top, half_top), (top, top), (top, cp1 * CoeffPoly.gen(g))):
        with pytest.raises(ExponentOverflow, match=f"cp{g} "):
            a * b
    with pytest.raises(ExponentOverflow):
        CoeffPoly.dot([(cp1, cp2), (half_top, half_top)])
    # Unguarded, cp_g^256 would read as cp_(g+1).
    power = CoeffPoly.one()
    with pytest.raises(ExponentOverflow):
        for _ in range(256):
            power = power * CoeffPoly.gen(g)


# -- oracle: a plain Fraction-dict multiply over tuple monomials --------------------


def _canon_mono(pairs) -> tuple:
    exps: dict = {}
    for g, e in pairs:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted((g, e) for g, e in exps.items() if e))


def _canon(raw: dict) -> dict:
    """Canonical {monomial: Fraction} of raw (generator, exponent) lists."""
    out: dict = {}
    for pairs, c in raw.items():
        m = _canon_mono(pairs)
        out[m] = out.get(m, 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _canon_mono(ma + mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _overflows(a: dict, b: dict) -> bool:
    """Whether a monomial of a times one of b has an exponent above TOP,
    which the packed form refuses even where the coefficients cancel."""
    return any(e > TOP for ma in a for mb in b for _, e in _canon_mono(ma + mb))


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


# Up to 12 generators with exponents up to 30, repeated generators allowed.
_raw_monomials = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 30)),
                          max_size=4).map(tuple)
_raw_polys = st.dictionaries(_raw_monomials, small_fractions, max_size=4)
_raw_consts = st.dictionaries(st.just(()), small_fractions, max_size=1)
_raw_operands = st.one_of(_raw_polys, _raw_consts)


@given(_raw_operands)
def test_from_terms_matches_oracle(raw):
    assert dict(CoeffPoly.from_terms(raw).terms()) == _canon(raw)


@given(_raw_operands, _raw_operands)
def test_mul_matches_oracle(ra, rb):
    a, b = CoeffPoly.from_terms(ra), CoeffPoly.from_terms(rb)
    if _overflows(_canon(ra), _canon(rb)):
        with pytest.raises(ExponentOverflow):
            a * b
        return
    assert dict((a * b).terms()) == _ref_mul(_canon(ra), _canon(rb))


@given(st.lists(st.tuples(_raw_operands, _raw_operands), max_size=6), st.booleans())
def test_dot_matches_oracle(raw_pairs, cancel):
    pairs = [(CoeffPoly.from_terms(ra), CoeffPoly.from_terms(rb)) for ra, rb in raw_pairs]
    expected: dict = {}
    for ra, rb in raw_pairs:
        expected = _ref_add(expected, _ref_mul(_canon(ra), _canon(rb)))
    if cancel:
        # Each product again with the opposite sign: everything cancels.
        pairs += [(-a, b) for a, b in pairs]
        expected = {}
    if any(_overflows(_canon(ra), _canon(rb)) for ra, rb in raw_pairs):
        with pytest.raises(ExponentOverflow):
            CoeffPoly.dot(pairs)
        return
    got = CoeffPoly.dot(pairs)
    assert dict(got.terms()) == expected
    assert got == CoeffPoly.from_terms(expected)


@given(_raw_operands)
def test_sorted_terms_follow_weight_then_dense_vector(raw):
    p = CoeffPoly.from_terms(raw)
    width = max((g for m, _ in p.terms() for g, _ in m), default=0)

    def dense(m):
        exps = dict(m)
        return tuple(exps.get(g, 0) for g in range(1, width + 1))

    expected = sorted(_canon(raw).items(), key=lambda mq: (mono_weight(mq[0]), dense(mq[0])))
    assert sorted_terms(p) == expected


def test_dot_of_no_pairs_is_zero():
    assert CoeffPoly.dot([]) == CoeffPoly.zero()


def test_dot_of_constants_normalizes_once():
    third, sixth = CoeffPoly.const(Fraction(1, 3)), CoeffPoly.const(Fraction(1, 6))
    two = CoeffPoly.const(2)
    got = CoeffPoly.dot([(third, sixth), (two, sixth), (sixth, CoeffPoly.const(-5))])
    assert got == CoeffPoly.const(Fraction(1, 18) + Fraction(1, 3) - Fraction(5, 6))
    assert got.is_constant() and not got.is_integral()


# -- exact scalars -------------------------------------------------------------

_exact_scalars = st.one_of(st.integers(-10**30, 10**30), small_fractions)


@given(_exact_scalars, st.integers(-6, 6).filter(bool), coeff_polys)
def test_int_and_fraction_scalars_keep_their_values(value, den, p):
    # read through numerator and denominator, they give what Fraction(value)
    # gave, stored in lowest terms over a positive denominator
    q = Fraction(value)
    cases = [
        (CoeffPoly.const(value), {(): q}),
        (CoeffPoly.const(value, den), {(): q / den}),
        (p.scale(value), {m: c * q for m, c in p.terms()}),
        (p.scale(value, den), {m: c * q / den for m, c in p.terms()}),
        (CoeffPoly.from_terms({(): value, ((1, 1),): half, ((1, 1), (1, 0)): value}),
         {(): q, ((1, 1),): q + half}),
    ]
    for got, expected in cases:
        assert dict(got.terms()) == {m: c for m, c in expected.items() if c}
        assert got._den > 0 and gcd(got._den, *got._num.values()) == 1
    assert CoeffPoly.const(value, den).constant_ratio() == (
        (q / den).numerator, (q / den).denominator)


def test_constant_ratio_is_in_lowest_terms():
    p = CoeffPoly.from_terms({(): half, ((1, 1),): Fraction(1, 4)})
    assert (p._num[0], p._den) == (2, 4)
    assert p.constant_ratio() == (1, 2)
    assert cp1.constant_ratio() == (0, 1)


@pytest.mark.parametrize("value", [
    0.1, 0.5, float("nan"), "1/2", Decimal("0.1"), 1j, None, (1, 2)])
def test_inexact_scalars_are_refused_before_any_work(value):
    # CoeffPoly.const(0.1) was 3602879701896397/36028797018963968; the
    # monomial past the packed limit would raise ExponentOverflow if
    # from_terms packed it before reading every value
    calls = [lambda: CoeffPoly.const(value), lambda: cp1.scale(value),
             lambda: CoeffPoly.from_terms({((1, 200),): 1, (): value}),
             lambda: (cp1 + cp2).specialize({1: 1, 2: value})]
    for call in calls:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == ("a scalar must be an exact rational with integer "
                                   f"numerator and denominator, got {type(value).__name__}")


def test_a_divisor_must_be_a_nonzero_int():
    with pytest.raises(TypeError, match="^a scalar's divisor must be an int, got float$"):
        CoeffPoly.const(1, 2.0)
    with pytest.raises(ZeroDivisionError):
        cp1.scale(1, 0)
    assert CoeffPoly.const(3, -6) == CoeffPoly.const(Fraction(-1, 2))
