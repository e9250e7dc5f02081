"""Coset invariance of the quotient-ring normal form.

The lattices are the ones ``QuotientRingA`` builds for integral laws
over one to three variables.  Adding any integer
combination of the full set of generator rows (not of the echelon pivots,
and including the rows the ring skips as Koszul-redundant) must leave the
normal form unchanged, every pivot-column entry of a normal form must be a
least-absolute residue, and the normal form must equal the one reduced
against a back-reduced basis, which is how the lattice used to be built.
The ring's lattice must also equal the one built from every generator row,
pivot for pivot, and its columns must come in elimination order.
"""

import random

import pytest

from cobcalc import fgl, pontclass
from cobcalc.intlattice import IntegerLattice
from oracles import (TWO_PARAMETER_GRID, relation_rows, ring_columns,
                     two_parameter_law)

BETAS = (1, -1, 2, -2, 3)
ORDERS = (3, 6, 10)


def _ring_lattice(law, variables, order):
    """The lattice of QuotientRingA(law, variables, order) and the generator
    rows it was built from."""
    captured = []

    class Recording(IntegerLattice):
        def __init__(self, rows, ncols):
            captured.extend(dict(r) for r in rows)
            super().__init__(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pontclass, "IntegerLattice", Recording)
        # the ring builds its lattice on first use, so read it here
        lattice = pontclass.QuotientRingA(law, variables, order)._basis[2]
    return lattice, captured


def _add(vec, factor, row):
    out = dict(vec)
    for col, val in row.items():
        out[col] = out.get(col, 0) + factor * val
    return {c: v for c, v in out.items() if v}


def _residue(value, g):
    """value mod g, in (-g/2, g/2]."""
    r = value % g
    return r - g if 2 * r > g else r


def _back_reduced(lattice):
    """Oracle: a copy of the lattice whose earlier pivot rows are
    back-reduced by every later pivot, to least-absolute residues."""
    old = IntegerLattice([], lattice.ncols)
    old.pivots = [(col, dict(row)) for col, row in lattice.pivots]
    for idx in range(len(old.pivots) - 1, -1, -1):
        col, prow = old.pivots[idx]
        g = prow[col]
        for jdx in range(idx):
            upper_col, upper = old.pivots[jdx]
            if upper.get(col):
                q = (upper[col] - _residue(upper[col], g)) // g
                old.pivots[jdx] = (upper_col, _add(upper, -q, prow))
    return old


def _random_vector(rng, ncols):
    cols = rng.sample(range(ncols), min(ncols, rng.randint(1, 12)))
    return {c: rng.choice([-1, 1]) * rng.randint(1, 9) for c in cols}


@pytest.mark.parametrize("variables", [("u", "v"), ("u", "v", "w")])
@pytest.mark.parametrize("beta", BETAS)
def test_normal_form_is_invariant_on_each_coset(beta, variables):
    law = fgl.multiplicative_law(beta, max(ORDERS))
    for order in ORDERS:
        lattice, kept = _ring_lattice(law, variables, order)
        assert kept and lattice.pivots
        rows = relation_rows(law, variables, order)
        rng = random.Random(f"{beta} {variables} {order}")
        for _ in range(6):
            vec = _random_vector(rng, lattice.ncols)
            shifted = vec
            for row in rows:
                shifted = _add(shifted, rng.randint(-3, 3), row)
            assert lattice.reduce(shifted) == lattice.reduce(vec)
        for row in rows:
            assert lattice.reduce(row) == {}


def _row_multiset(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


KOSZUL_LAWS = ["additive"] + [f"mult:{b}" for b in (1, -1, 2, -2, 3, -3, 4, -4,
                                                    5, 6, 8, 12)]
KEEPS_EVERY_ROW = {"mult:4", "mult:-4", "mult:8", "mult:12"}


def _assert_equals_full_lattice(law, variables, order, seed):
    """The ring's lattice against the one built from every generator row,
    pivot for pivot and on random reductions; returns the kept and the full
    generator rows."""
    lattice, kept = _ring_lattice(law, variables, order)
    rows = relation_rows(law, variables, order)
    oracle = IntegerLattice(rows, lattice.ncols)
    assert lattice.ncols == oracle.ncols
    assert ([(col, prow[col]) for col, prow in lattice.pivots]
            == [(col, prow[col]) for col, prow in oracle.pivots])
    rng = random.Random(seed)
    for _ in range(10 if lattice.ncols else 0):
        vec = _random_vector(rng, lattice.ncols)
        assert lattice.reduce(vec) == oracle.reduce(vec)
    return _row_multiset(kept), _row_multiset(rows)


@pytest.mark.parametrize("variables", [("u",), ("u", "v"), ("u", "v", "w")])
@pytest.mark.parametrize("selector", KOSZUL_LAWS)
def test_ring_lattice_equals_the_full_generator_lattice(selector, variables):
    law = fgl.parse_law(selector, 12)
    for order in range(11 if len(variables) == 3 else 13):
        kept_rows, all_rows = _assert_equals_full_lattice(
            law, variables, order, f"{selector} {variables} {order} koszul")
        if selector in KEEPS_EVERY_ROW or len(variables) == 1:
            assert kept_rows == all_rows
        else:
            assert set(kept_rows) <= set(all_rows)


@pytest.mark.parametrize("selector, rows_in", [("mult:1", 2016), ("additive", 1770),
                                               ("mult:4", 4620)])
def test_ring_hands_the_lattice_only_the_koszul_rows(selector, rows_in):
    # 1,770 columns over (u, v, w) at order 20; additive keeps one row per
    # column, mult:1 drops 2,604 of 4,620 rows, mult:4 (c' even) drops none
    lattice, kept = _ring_lattice(fgl.parse_law(selector, 20), ("u", "v", "w"), 20)
    assert lattice.ncols == 1770
    assert len(kept) == rows_in


def test_order_zero_ring_builds_an_empty_lattice():
    lattice, kept = _ring_lattice(fgl.multiplicative_law(1, 4), ("u", "v"), 0)
    assert kept == [] and lattice.ncols == 0 and lattice.pivots == []


@pytest.mark.parametrize("variables", [("u",), ("u", "v"), ("u", "v", "w")])
def test_ring_columns_come_in_elimination_order(variables):
    # degree descending, then exponent vector descending, as the oracle sorts
    law = fgl.multiplicative_law(1, 12)
    for order in range(13):
        ring = pontclass.QuotientRingA(law, variables, order)
        assert ring._basis[0] == ring_columns(len(variables), order)


@pytest.mark.parametrize("variables", [("u", "v"), ("u", "v", "w")])
@pytest.mark.parametrize("beta", BETAS)
def test_pivot_entries_are_least_absolute_residues(beta, variables):
    law = fgl.multiplicative_law(beta, max(ORDERS))
    for order in ORDERS:
        lattice, _ = _ring_lattice(law, variables, order)
        rng = random.Random(f"{beta} {variables} {order} residues")
        for _ in range(20):
            got = lattice.reduce(_random_vector(rng, lattice.ncols))
            assert lattice.reduce(got) == got
            for col, prow in lattice.pivots:
                g = prow[col]
                assert g > 0 and min(prow) == col
                assert -g < 2 * got.get(col, 0) <= g


@pytest.mark.parametrize("variables", [("u", "v"), ("u", "v", "w")])
@pytest.mark.parametrize("beta", BETAS)
def test_normal_form_equals_back_reduced_basis(beta, variables):
    law = fgl.multiplicative_law(beta, max(ORDERS))
    for order in ORDERS:
        lattice, rows = _ring_lattice(law, variables, order)
        old = _back_reduced(lattice)
        rng = random.Random(f"{beta} {variables} {order} oracle")
        vectors = [_random_vector(rng, lattice.ncols) for _ in range(20)]
        vectors += [_add(rows[i], 1, {0: 1}) for i in range(0, len(rows), 7)]
        for vec in vectors:
            assert lattice.reduce(vec) == old.reduce(vec)


def test_random_lattices_match_back_reduced_oracle():
    # small dense lattices, where back-reduction does change pivot rows
    rng = random.Random("random lattices")
    changed = 0
    for _ in range(200):
        ncols = rng.randint(1, 8)
        rows = [_random_vector(rng, ncols) for _ in range(rng.randint(1, 6))]
        lattice = IntegerLattice(rows, ncols)
        old = _back_reduced(lattice)
        changed += old.pivots != lattice.pivots
        for _ in range(5):
            vec = _random_vector(rng, ncols)
            got = lattice.reduce(vec)
            assert got == old.reduce(vec)
            shifted = vec
            for row in rows:
                shifted = _add(shifted, rng.randint(-4, 4), row)
            assert lattice.reduce(shifted) == got
    assert changed > 50


@pytest.mark.parametrize("variables", [("u",), ("u", "v"), ("u", "v", "w")])
@pytest.mark.parametrize("a, b", TWO_PARAMETER_GRID)
def test_ring_lattice_equals_the_full_generator_lattice_two_parameter_law(a, b, variables):
    # here [u]_2 truncates at degree order - 1 or order, not 2
    law = two_parameter_law(a, b, 12)
    for order in (6, 9, 12):
        kept_rows, all_rows = _assert_equals_full_lattice(
            law, variables, order, f"{a},{b} {variables} {order} koszul")
        assert set(kept_rows) <= set(all_rows)


def test_two_parameter_grid_takes_both_koszul_branches():
    # an odd top coefficient c' skips the Koszul-redundant rows, an even one
    # keeps every row; the grid must exercise both
    skips = set()
    for a, b in TWO_PARAMETER_GRID:
        law = two_parameter_law(a, b, 12)
        for order in (6, 9, 12):
            kept = _ring_lattice(law, ("u", "v"), order)[1]
            skips.add(len(kept) < len(relation_rows(law, ("u", "v"), order)))
    assert skips == {True, False}
