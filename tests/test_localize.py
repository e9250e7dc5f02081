from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import localize as lz
from cobcalc.report import IdentityResult
from oracles import (chains_under_inclusion, chi_grassmann_by_partitions,
                     chi_grassmann_flat, colex_unrank, is_orientable_by_rotations,
                     partitions_in_box, recursion_rows_by_case)

ledgers = st.builds(lz.IndexLedger, st.integers(-20, 20), st.integers(0, 1))


# -- index ledger -------------------------------------------------------------


def test_index_square_is_one():
    ind = lz.IndexLedger(-1, 1)
    assert ind * ind == lz.LEDGER_ONE


def test_klein_ledger_sum_is_generator():
    total = lz.LEDGER_ONE + lz.IndexLedger(-1, 1)
    assert total == lz.LEDGER_U
    assert total.epsilon == 0


def test_epsilon_kills_reduced_part():
    assert lz.IndexLedger(-1, 1).epsilon == -1


def test_torsion_part_is_reduced_mod_two_on_construction():
    assert lz.IndexLedger(0, 3) == lz.IndexLedger(0, 1)
    assert lz.IndexLedger(2, -1).tor == 1


def test_empty_ledger_sum_is_zero():
    assert lz.ledger_sum([]) == lz.IndexLedger(0)


def test_ledger_rendering():
    assert str(lz.IndexLedger(-1, 1)) == "-1 + u"
    assert str(lz.LEDGER_U) == "u"
    assert str(lz.IndexLedger(3)) == "3"


@given(ledgers, ledgers, ledgers)
def test_ledger_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).epsilon == a.epsilon * b.epsilon


@given(ledgers)
def test_torsion_squares_to_zero(a):
    torsion = lz.IndexLedger(0, a.tor)
    assert torsion * torsion == lz.IndexLedger(0)


# -- Grassmannian chi ---------------------------------------------------------


def test_chi_small_projective_spaces():
    assert lz.chi_grassmann(2, 1) == 0    # RP^1 = S^1
    assert lz.chi_grassmann(3, 1) == 1    # RP^2
    assert lz.chi_grassmann(4, 2) == 2    # enumeration over the 2x2 box


def test_chi_out_of_range():
    with pytest.raises(ValueError):
        lz.chi_grassmann(3, 4)


def test_chi_duality():
    for n in range(11):
        for k in range(n + 1):
            assert lz.chi_grassmann(n, k) == lz.chi_grassmann(n, n - k)


def test_chi_matches_gaussian_binomial_closed_form():
    # cross-check only: [n k]_(q=-1) = 0 for n even, k odd, else
    # C(floor(n/2), floor(k/2)); the enumeration stays the ground truth.
    for n in range(21):
        for k in range(n + 1):
            expected = 0 if (n % 2 == 0 and k % 2 == 1) else comb(n // 2, k // 2)
            assert lz.chi_grassmann(n, k) == expected


def test_chi_matches_partition_enumeration():
    # the cells as k-subsets against the cells as partitions in a box
    for n in range(15):
        for k in range(n + 1):
            assert lz.chi_grassmann(n, k) == chi_grassmann_by_partitions(n, k)


@pytest.fixture(scope="module")
def flat_chi():
    return {(n, k): chi_grassmann_flat(n, k) for n in range(21) for k in range(n + 1)}


#: The cached functions themselves, which a test may rebind in the module.
CHI, ODD_CELLS = lz.chi_grassmann, lz._odd_cells


def _cold() -> None:
    CHI.cache_clear()
    ODD_CELLS.cache_clear()


@pytest.mark.parametrize("ns", [range(21), range(20, -1, -1)],
                         ids=["ascending", "descending"])
def test_chi_matches_flat_enumeration(flat_chi, ns):
    # ascending n finds every smaller n cached; descending n starts each k
    # with a cold recursion down from n = 20
    _cold()
    for n in ns:
        for k in range(n + 1):
            assert lz.chi_grassmann(n, k) == flat_chi[n, k]


def _colex_cells(n: int, k: int) -> list[tuple[int, ...]]:
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


def test_odd_cells_has_one_bit_per_cell_in_colex_order():
    for n in range(13):
        for k in range(n + 1):
            cells = _colex_cells(n, k)
            bits = lz._odd_cells(n, k)
            assert bits.bit_length() <= len(cells)
            assert [bits >> rank & 1 for rank in range(len(cells))] == [
                sum(cell) % 2 for cell in cells]


def test_colex_unrank_matches_sorted_combinations():
    for n in range(10):
        for k in range(n + 1):
            cells = _colex_cells(n, k)
            assert [colex_unrank(rank, k) for rank in range(len(cells))] == cells


@st.composite
def colex_ranks(draw):
    n = draw(st.integers(0, 24))
    k = draw(st.integers(0, n))
    return n, k, draw(st.integers(0, comb(n, k) - 1))


@given(colex_ranks())
def test_odd_cells_bit_is_the_parity_of_the_unranked_cell(cell):
    n, k, rank = cell
    subset = colex_unrank(rank, k)
    assert len(subset) == k and set(subset) <= set(range(n))
    assert lz._odd_cells(n, k) >> rank & 1 == sum(subset) % 2


def _record_bitstrings(monkeypatch) -> dict:
    # _odd_cells recurses through its module name, so a rebinding sees
    # every bitstring the recursion reaches
    seen = {}

    def recording(n, k):
        seen[n, k] = ODD_CELLS(n, k)
        return seen[n, k]

    monkeypatch.setattr(lz, "_odd_cells", recording)
    return seen


def _bits_built(seen: dict) -> int:
    """The bits that the misses on ``seen`` added.  A miss on (n, k),
    0 < k < n, keeps the bits of (n-1, k) as its low C(n-1, k) bits and adds
    one bit above them for each S = T + {n-1}, copied from the bit of T in
    (n-1, k-1); k = 0 and k = n are one cell each and add none."""
    added = 0
    for (n, k), bits in seen.items():
        if 0 < k < n:
            low, high = comb(n - 1, k), comb(n - 1, k - 1)
            flip = (1 << high) - 1 if (n - 1) % 2 else 0
            assert bits & ((1 << low) - 1) == seen[n - 1, k]
            assert bits >> low == seen[n - 1, k - 1] ^ flip
            added += high
    return added


def test_each_cell_is_visited_once_across_n(monkeypatch):
    # the report reaches n = 10: each nonempty subset S of range(10) gets
    # its bit once, at the miss on (max S + 1, |S|), except the 10 initial
    # segments {0, ..., m - 1}, which are the one-cell cases k = n
    seen = _record_bitstrings(monkeypatch)
    _cold()
    lz.localization_recursion_report(10)
    assert ODD_CELLS.cache_info().misses == len(seen)
    assert _bits_built(seen) == 2 ** 10 - 10 - 1 == 1_013
    seen.clear()
    _cold()
    lz.chi_grassmann(20, 10)
    # the bits of (n, k) need those of (n - 1, k - 1) as well as (n - 1, k),
    # so a cold (20, 10) builds every (n, k) with k <= 10 and n - k <= 10:
    # more than the C(20, 10) - 1 = 184,755 cells a walk down (n - 1, 10)
    # alone would reach
    assert ODD_CELLS.cache_info().misses == len(seen)
    assert (len(seen), _bits_built(seen)) == (120, 352_705)


def test_odd_cells_working_set_at_the_cap(monkeypatch):
    # chi grass --n 24 --k 12 leaves 168 bitstrings cached, every one no
    # longer than its C(n, k) cells, about 1.4 MB of ints in all
    seen = _record_bitstrings(monkeypatch)
    _cold()
    lz.chi_grassmann(24, 12)
    assert len(seen) == ODD_CELLS.cache_info().currsize == 168
    assert all(bits.bit_length() <= comb(n, k) for (n, k), bits in seen.items())
    assert sum(comb(n, k) for n, k in seen) == 10_400_598
    assert _bits_built(seen) == 5_200_287


def test_cache_misses_equal_the_distinct_arguments_seen_by_a_rebinding(monkeypatch):
    # the benchmark tracer rebinds the module name and checks this; every
    # call must go through that name, or its cache misses go unseen
    cached = lz.chi_grassmann
    seen = set()

    def recording(n, k):
        seen.add((n, k))
        return cached(n, k)

    monkeypatch.setattr(lz, "chi_grassmann", recording)
    cached.cache_clear()
    lz.localization_recursion_report(8)
    assert cached.cache_info().misses == len(seen) == 44
    lz.chi_grassmann(12, 5)
    assert cached.cache_info().misses == len(seen) == 45


def test_partitions_in_box_count():
    assert sum(1 for _ in partitions_in_box(2, 2)) == 6
    assert list(partitions_in_box(0, 5)) == [()]


# -- localization recursion ------------------------------------------------------


def test_localization_sum_examples():
    assert lz.localization_sum(2, 1, 1) == 1        # chi(RP^2)
    assert lz.localization_sum(1, 1, 1) == 0        # chi(RP^1)
    assert lz.localization_sum(4, 3, 0) == 1


def test_localization_recursion_exhaustive():
    rows = lz.localization_recursion_report(10)
    assert rows
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("max_total", range(2, 13))
def test_recursion_report_matches_the_per_case_route(max_total):
    assert lz.localization_recursion_report(max_total) == recursion_rows_by_case(max_total)


def test_recursion_case_counts():
    assert [len(lz.localization_recursion_report(m)) for m in (10, 17, 20)] == [
        375, 1768, 2850]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))), st.sampled_from([-2, -1, 1, 3]))
def test_a_corrupted_chi_fails_the_cases_the_per_case_route_fails(max_total, nk, delta):
    # both routes ask the module's chi_grassmann, so rebinding it to a value
    # off by delta at one (n, k) must fail the same cases with the same rows
    cached = lz.chi_grassmann

    def corrupted(n, k):
        return cached(n, k) + (delta if (n, k) == nk else 0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lz, "chi_grassmann", corrupted)
        rows = lz.localization_recursion_report(max_total)
        expected = recursion_rows_by_case(max_total)
    assert rows == expected
    failed = [r.identity for r in rows if not r.passed]
    n, k = nk
    # chi(RG_k^n) with n >= 2 is the right side of the cases n1 + n2 = n
    if 2 <= n <= max_total:
        assert {f"chi_recursion[{n1},{n - n1},{k}]" for n1 in range(1, n)} <= set(failed)
    if n > max_total:
        assert failed == []


# -- simplicial complexes -----------------------------------------------------------


def test_triangle_boundary_is_circle():
    assert lz.circle_complex().euler_characteristic() == 0


def _disk():
    return lz.SimplicialComplex.from_simplices([("a", "b", "c")])


def test_full_simplex_is_disk():
    assert _disk().euler_characteristic() == 1


def test_face_closure_on_load():
    k = lz.load_complex_text("a b c\n# comment\n\nd e\n")
    assert frozenset(["a", "b"]) in k.simplices
    assert k.euler_characteristic() == 1 + 1  # disk plus an interval


def test_load_rejects_empty_input():
    with pytest.raises(ValueError):
        lz.load_complex_text("# nothing here\n")


def test_klein_bottle_fixture():
    k = lz.klein_bottle_complex()
    assert k.euler_characteristic() == 0
    assert lz.is_closed_surface(k)
    assert not lz.is_orientable(k)
    fv = k.f_vector()
    assert fv == {0: 16, 1: 48, 2: 32}


def test_projective_plane_fixture():
    k = lz.projective_plane_complex()
    assert k.euler_characteristic() == 1
    assert lz.is_closed_surface(k)
    assert not lz.is_orientable(k)
    assert len(k.vertices()) == 6


def test_orientability_detects_torus_like_surfaces():
    # boundary of the 3-simplex: the 2-sphere, orientable
    sphere = lz.SimplicialComplex.from_simplices(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert lz.is_closed_surface(sphere)
    assert lz.is_orientable(sphere)
    assert sphere.euler_characteristic() == 2
    assert not lz.is_closed_surface(_disk())


def test_orientability_matches_the_rotation_search_on_fixtures():
    sphere = lz.SimplicialComplex.from_simplices(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    fixtures = [lz.klein_bottle_complex(), lz.projective_plane_complex(), sphere,
                _disk(), lz.circle_complex(), lz.point_complex()]
    got = [lz.is_orientable(k) for k in fixtures]
    assert got == [is_orientable_by_rotations(k) for k in fixtures]
    assert got == [False, False, True, True, True, True]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=3, max_size=3), max_size=14))
def test_orientability_matches_the_rotation_search(triangles):
    complex_ = lz.SimplicialComplex.from_simplices(triangles or [(0,)])
    assert lz.is_orientable(complex_) == is_orientable_by_rotations(complex_)


def test_barycentric_subdivision_preserves_chi():
    fixtures = [lz.circle_complex(), _disk(),
                lz.klein_bottle_complex(), lz.projective_plane_complex()]
    for k in fixtures:
        sd = k.barycentric_subdivision()
        assert sd.euler_characteristic() == k.euler_characteristic()


def test_subdivision_statistics_of_circle():
    sd = lz.circle_complex().barycentric_subdivision()
    # hexagon: 6 vertices, 6 edges
    assert sd.f_vector() == {0: 6, 1: 6}


def _subdivision_fixtures():
    sphere = lz.SimplicialComplex.from_simplices(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    simplices = [lz.SimplicialComplex.from_simplices([range(m)]) for m in range(1, 6)]
    mixed = lz.load_complex_text("a b c d\nc d e\ne f\ng\n")
    return [lz.circle_complex(), _disk(), lz.point_complex(),
            lz.klein_bottle_complex(), lz.projective_plane_complex(), sphere,
            mixed, *simplices]


def test_barycentric_subdivision_matches_pairwise_chains():
    for k in _subdivision_fixtures():
        sd = k.barycentric_subdivision()
        assert sd.simplices == chains_under_inclusion(k.simplices)


def test_subdivision_size_counts_the_chains():
    for k in _subdivision_fixtures():
        assert k.subdivision_size() == len(k.barycentric_subdivision().simplices)
    # chains in an m-simplex: sum of C(m, j) times the ordered Bell number of j
    full = [lz.SimplicialComplex.from_simplices([range(m)]).subdivision_size()
            for m in range(1, 8)]
    assert full == [1, 5, 25, 149, 1081, 9365, 94585]


def test_bundled_triangulations_are_far_inside_the_caps():
    assert lz.klein_bottle_complex().subdivision_size() == 576
    assert lz.projective_plane_complex().subdivision_size() == 181
    assert 100 * 576 < lz.MAX_SUBDIVISION_SIMPLICES
    for k in (lz.klein_bottle_complex(), lz.projective_plane_complex()):
        assert max(map(len, k.simplices)) == 3 < lz.MAX_SIMPLEX_VERTICES


def _no_work(*_):
    raise AssertionError("work started before the size check")


@pytest.mark.parametrize("text, vertices, line", [
    ("a b c d e f g h\n", 8, 1),
    ("a b\n# comment\n" + " ".join(f"v{i}" for i in range(30)) + "\n", 30, 3),
])
def test_load_refuses_a_simplex_over_the_vertex_cap(monkeypatch, text, vertices, line):
    # refused before any face is closed
    monkeypatch.setattr(lz, "_faces", _no_work)
    with pytest.raises(ValueError) as err:
        lz.load_complex_text(text)
    assert str(err.value) == (f"a simplex must have <= 7 vertices, "
                              f"got {vertices} on line {line}")


def test_load_accepts_a_simplex_at_the_vertex_cap():
    assert lz.MAX_SIMPLEX_VERTICES == 7
    k = lz.load_complex_text("a b c d e f g\n")
    assert len(k.simplices) == 127
    # a repeated label is one vertex
    assert lz.load_complex_text("a b c d e f g g a\n").simplices == k.simplices


def _text_with_subdivision_size(size: int) -> str:
    # one 7-vertex simplex (94,585 chains) plus isolated vertices (one each)
    return "a b c d e f g\n" + "".join(f"v{i}\n" for i in range(size - 94_585))


def test_load_refuses_a_subdivision_over_the_cap(monkeypatch):
    # refused from the chain count, before the subdivision is built
    monkeypatch.setattr(lz.SimplicialComplex, "barycentric_subdivision", _no_work)
    with pytest.raises(ValueError) as err:
        lz.load_complex_text("a b c d e f g\nh i j k l m n\n")
    assert str(err.value) == ("a barycentric subdivision must have <= 100000 "
                              "simplices, got 189170")
    with pytest.raises(ValueError, match="got 100001$"):
        lz.load_complex_text(_text_with_subdivision_size(100_001))


def test_load_stops_closing_faces_past_the_cap(monkeypatch):
    # every face is a vertex of the subdivision, so closing stops as soon as
    # the faces outnumber the cap, long before the last line
    monkeypatch.setattr(lz.SimplicialComplex, "subdivision_size", _no_work)
    monkeypatch.setattr(lz.SimplicialComplex, "barycentric_subdivision", _no_work)
    real_faces = lz._faces
    closed = []

    def counted_faces(vertices):
        closed.append(vertices)
        return real_faces(vertices)

    monkeypatch.setattr(lz, "_faces", counted_faces)
    # 2,000 disjoint 7-vertex simplices, 127 faces each
    text = "".join(" ".join(f"v{7 * i + j}" for j in range(7)) + "\n"
                   for i in range(2_000))
    message = ("a barycentric subdivision must have <= 100000 simplices, "
               "got more than 100000 faces to subdivide")
    with pytest.raises(ValueError) as err:
        lz.load_complex_text(text)
    assert str(err.value) == message
    assert len(closed) == 788     # 787 * 127 <= 100,000 < 788 * 127
    with pytest.raises(ValueError) as err:
        lz.load_complex_text("".join(f"v{i}\n" for i in range(100_001)))
    assert str(err.value) == message


def test_load_accepts_faces_at_the_cap():
    k = lz.load_complex_text("".join(f"v{i}\n" for i in range(100_000)))
    assert len(k.simplices) == k.subdivision_size() == 100_000
    assert k.barycentric_subdivision().euler_characteristic() == 100_000


def test_load_accepts_a_subdivision_at_the_cap():
    assert lz.MAX_SUBDIVISION_SIMPLICES == 100_000
    k = lz.load_complex_text(_text_with_subdivision_size(100_000))
    assert k.subdivision_size() == 100_000
    sd = k.barycentric_subdivision()
    assert len(sd.simplices) == 100_000
    assert sd.euler_characteristic() == k.euler_characteristic() == 1 + 5_415


# -- bundled example checks -----------------------------------------------------------


def _all_pass(rows: list[IdentityResult]) -> bool:
    return bool(rows) and all(r.passed for r in rows)


def test_rp2_decomposition_check():
    assert _all_pass(lz.rp2_decomposition_check()[1])


def test_klein_index_check():
    assert _all_pass(lz.klein_index_check()[1])


def test_failing_ledger_and_recursion_rows_carry_degree_zero_and_a_witness(monkeypatch):
    sphere = lz.SimplicialComplex.from_simplices(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    monkeypatch.setattr(lz, "klein_bottle_complex", lambda: sphere)
    monkeypatch.setattr(lz, "projective_plane_complex", lambda: sphere)
    monkeypatch.setattr(lz, "LEDGER_ONE", lz.IndexLedger(2))
    monkeypatch.setattr(lz, "_recursion_sum", lambda chi1, chi2, k: 7)
    rows = (lz.klein_index_check()[1] + lz.rp2_decomposition_check()[1]
            + lz.localization_recursion_report(2))
    got = {r.identity: (r.passed, r.first_failing_degree, r.witness_term) for r in rows}
    assert got == {
        "klein_total_index_is_u": (False, 0, "1 + u"),
        "klein_epsilon_matches_chi": (False, 0, "epsilon=1 chi=2"),
        "rp2_weighted_sum": (False, 0, "sum=2 chi=1"),
        "rp2_fixture_chi": (False, 0, "fixture=2"),
        "index_square_is_one": (False, 0, "square=1"),
        "chi_recursion[1,1,0]": (False, 0, "sum=7 chi=1"),
        "chi_recursion[1,1,1]": (False, 0, "sum=7 chi=0"),
        "chi_recursion[1,1,2]": (False, 0, "sum=7 chi=1"),
    }
    assert all(r.order == (2 if r.law == "grassmann" else 0) for r in rows)
