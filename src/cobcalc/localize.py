"""Combinatorial localization checks: index ledgers, Grassmannian Euler
characteristics, and simplicial alternating sums.

The stable-cohomotopy index of the examples this package reproduces lives
in Z (+) Z2: an integer part seen by the augmentation epsilon plus a
2-torsion part whose square vanishes.  That torsion-squares-to-zero rule
is an axiom of the model, not something verified here.

chi of the real Grassmannian RG_k^n is the signed count of Schubert cells,
computed by brute force: every cell gets one bit.  A cell is a partition
lambda in a k x (n-k) box, or equivalently a k-subset S = {s_1 < ... < s_k}
of {0, ..., n-1} with lambda_i = s_(k+1-i) - (k-i), so that
|lambda| = sum(S) - k(k-1)/2 (Fulton, Young Tableaux, 1997, chapter 9);
the subsets are laid out in colex order, one bit each, set when sum(S) is
odd, and the bits are built by whole-integer shifts and complements,
not cell by cell (Knuth, TAOCP 4A, 7.1.3 and 7.2.1.3).  The count is the Gaussian binomial at q = -1, and any
closed form is a cross-check, not ground truth.
The localization recursion then states

    chi(RG_k^(n1+n2)) = sum over k1+k2=k of
        (-1)^((n1-k1) k2) chi(RG_k1^n1) chi(RG_k2^n2).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from importlib import resources
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .report import IdentityResult, check_equal


# -- index ledger ----------------------------------------------------------


class IndexLedger(namedtuple("IndexLedger", "epsilon tor")):
    """Element epsilon + tor*u of Z (+) Z2, with u^2 = 0 and epsilon(u) = 0;
    tor is reduced mod 2 on construction."""
    __slots__ = ()

    def __new__(cls, epsilon: int, tor: int = 0):
        return super().__new__(cls, epsilon, tor % 2)

    def __add__(self, other: "IndexLedger") -> "IndexLedger":
        return IndexLedger(self.epsilon + other.epsilon, self.tor + other.tor)

    def __mul__(self, other: "IndexLedger") -> "IndexLedger":
        return IndexLedger(self.epsilon * other.epsilon,
                           self.epsilon * other.tor + other.epsilon * self.tor)

    def __str__(self) -> str:
        if not self.tor:
            return str(self.epsilon)
        if not self.epsilon:
            return "u"
        return f"{self.epsilon} + u"


LEDGER_ONE = IndexLedger(1)
LEDGER_U = IndexLedger(0, 1)


def ledger_sum(ledgers: Iterable[IndexLedger]) -> IndexLedger:
    """Sum of indices; an empty zero set contributes the zero ledger, the
    no-zeros convention under which the transfer collapses to a point."""
    total = IndexLedger(0)
    for item in ledgers:
        total = total + item
    return total


# -- Grassmannian Euler characteristics ----------------------------------------


@lru_cache(maxsize=None)
def _odd_cells(n: int, k: int) -> int:
    """One bit per k-subset S of range(n), in colex order, set when sum(S)
    is odd.  The subsets that miss n-1 come first and are those of
    (n-1, k); above them, from bit C(n-1, k), come S = T + {n-1}, whose bits
    are those of (n-1, k-1), complemented when n-1 is odd."""
    if k in (0, n):
        return k * (k - 1) // 2 & 1
    with_last = _odd_cells(n - 1, k - 1)
    if (n - 1) % 2:
        with_last ^= (1 << comb(n - 1, k - 1)) - 1
    return _odd_cells(n - 1, k) | with_last << comb(n - 1, k)


@lru_cache(maxsize=None)
def chi_grassmann(n: int, k: int) -> int:
    """chi(RG_k^n) as the signed Schubert-cell count sum (-1)^|lambda|, one
    bit per cell, a k-subset S of range(n) of dimension
    |lambda| = sum(S) - k(k-1)/2.  Of the C(n, k) cells, those with sum(S)
    odd, the set bits of _odd_cells(n, k), count -(-1)^(k(k-1)/2) and the
    rest +(-1)^(k(k-1)/2)."""
    if not 0 <= k <= n:
        raise ValueError(f"plane dimension {k} out of range for R^{n}")
    odd_cells = _odd_cells(n, k).bit_count()
    return (-1) ** (k * (k - 1) // 2) * (comb(n, k) - 2 * odd_cells)


def whitney_sign_formula(n1: int, n2: int, k: int) -> list[tuple[int, int, int]]:
    """All (k1, k2, sign) with k1 + k2 = k in range, sign = (-1)^((n1-k1) k2)."""
    if not 0 <= k <= n1 + n2:
        raise ValueError(f"grade {k} out of range for dimensions ({n1}, {n2})")
    out = []
    for k1 in range(min(n1, k), max(0, k - n2) - 1, -1):
        k2 = k - k1
        out.append((k1, k2, (-1) ** ((n1 - k1) * k2)))
    return out


def localization_sum(n1: int, n2: int, k: int) -> int:
    """The fixed-point side of the localization formula for RG_k^(n1+n2)."""
    return sum(sign * chi_grassmann(n1, k1) * chi_grassmann(n2, k2)
               for k1, k2, sign in whitney_sign_formula(n1, n2, k))


def localization_recursion_report(max_total: int) -> list[IdentityResult]:
    """Exhaustively compare the localization sum with chi(RG_k^(n1+n2))."""
    rows = []
    for n1 in range(1, max_total):
        for n2 in range(1, max_total - n1 + 1):
            for k in range(n1 + n2 + 1):
                lhs = localization_sum(n1, n2, k)
                rhs = chi_grassmann(n1 + n2, k)
                rows.append(check_equal(
                    f"chi_recursion[{n1},{n2},{k}]", "grassmann", n1 + n2,
                    lhs, rhs, f"sum={lhs} chi={rhs}"))
    return rows


# -- simplicial complexes ----------------------------------------------------------


def _faces(vertices: frozenset) -> Iterator[frozenset]:
    """Every nonempty face of the simplex on these vertices."""
    for size in range(1, len(vertices) + 1):
        for face in combinations(vertices, size):
            yield frozenset(face)


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under taking faces."""

    def __init__(self, simplices: frozenset[frozenset]):
        # Assumes face closure; use from_simplices.
        self.simplices = simplices

    @classmethod
    def from_simplices(cls, simplices: Iterable[Iterable]) -> "SimplicialComplex":
        closed: set[frozenset] = set()
        for simplex in simplices:
            vertices = frozenset(simplex)
            if not vertices:
                raise ValueError("the empty simplex is not stored")
            closed.update(_faces(vertices))
        return cls(frozenset(closed))

    def vertices(self) -> set:
        return {v for s in self.simplices for v in s}

    def f_vector(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.simplices:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return counts

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def subdivision_size(self) -> int:
        """The number of simplices of the barycentric subdivision, counted
        without building it.  The chains ending at a face sigma number 1 plus
        the sum of the chains ending at each proper face of sigma; every
        proper face is in the complex, so that count depends only on the
        number m of vertices of sigma:
        c(m) = 1 + sum over 0 < j < m of C(m, j) c(j)."""
        fv = self.f_vector()
        chains_ending = [0]
        for m in range(1, max(fv, default=-1) + 2):
            chains_ending.append(1 + sum(comb(m, j) * chains_ending[j]
                                         for j in range(1, m)))
        return sum(count * chains_ending[d + 1] for d, count in fv.items())

    def barycentric_subdivision(self) -> "SimplicialComplex":
        """Vertices of the subdivision are the simplices; its simplices are
        the chains under strict inclusion.  The cofaces of each face come
        from the subsets of each simplex, not from comparing every pair of
        faces, which is quadratic in their number."""
        supersets: dict[frozenset, list[frozenset]] = {s: [] for s in self.simplices}
        for t in self.simplices:
            for size in range(1, len(t)):
                for face in combinations(t, size):
                    supersets[frozenset(face)].append(t)
        chains: set[frozenset] = set()

        def grow(chain: tuple) -> None:
            chains.add(frozenset(chain))
            for t in supersets[chain[-1]]:
                grow(chain + (t,))

        for s in self.simplices:
            grow((s,))
        return SimplicialComplex(frozenset(chains))


#: Input caps for a complex read from text, checked before the work they
#: bound: a simplex on m vertices closes to 2^m - 1 faces, and the
#: subdivision of a complex can be far larger than the complex.  One
#: simplex at the vertex cap subdivides into 94,585 simplices, inside the
#: subdivision cap; the bundled Klein bottle subdivides into 576.
MAX_SIMPLEX_VERTICES = 7
MAX_SUBDIVISION_SIMPLICES = 100_000


def load_complex_text(text: str) -> SimplicialComplex:
    """One simplex per line, space-separated vertex labels; faces are
    auto-closed on load.  Blank lines and '#' comments are skipped.

    A simplex on more than MAX_SIMPLEX_VERTICES vertices is refused before
    any face is built.  A complex whose barycentric subdivision would have
    more than MAX_SUBDIVISION_SIMPLICES simplices is refused before it is
    subdivided, and as soon as its faces outnumber that cap while they are
    closed, since every face is a vertex of the subdivision."""
    simplices = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        vertices = frozenset(line.split())
        if len(vertices) > MAX_SIMPLEX_VERTICES:
            raise ValueError(f"a simplex must have <= {MAX_SIMPLEX_VERTICES} "
                             f"vertices, got {len(vertices)} on line {number}")
        simplices.append(vertices)
    if not simplices:
        raise ValueError("no simplices in input")
    cap = MAX_SUBDIVISION_SIMPLICES
    closed: set[frozenset] = set()
    for vertices in simplices:
        closed.update(_faces(vertices))
        if len(closed) > cap:
            raise ValueError(f"a barycentric subdivision must have <= {cap} "
                             f"simplices, got more than {cap} faces to subdivide")
    complex_ = SimplicialComplex(frozenset(closed))
    size = complex_.subdivision_size()
    if size > cap:
        raise ValueError(f"a barycentric subdivision must have <= {cap} "
                         f"simplices, got {size}")
    return complex_


def _bundled(name: str) -> SimplicialComplex:
    text = resources.files("cobcalc").joinpath(f"data/{name}").read_text()
    return load_complex_text(text)


def circle_complex() -> SimplicialComplex:
    return SimplicialComplex.from_simplices([("a", "b"), ("b", "c"), ("a", "c")])


def point_complex() -> SimplicialComplex:
    return SimplicialComplex.from_simplices([("a",)])


def klein_bottle_complex() -> SimplicialComplex:
    """The bundled flat triangulation of the Klein bottle (16 vertices)."""
    return _bundled("klein_bottle.txt")


def projective_plane_complex() -> SimplicialComplex:
    """The bundled 6-vertex triangulation of the projective plane."""
    return _bundled("projective_plane.txt")


# -- surface sanity helpers (used by fixtures and tests) -------------------------


def is_closed_surface(complex_: SimplicialComplex) -> bool:
    """Pure 2-dimensional, every edge in exactly two triangles, and every
    vertex link a single cycle."""
    triangles = [s for s in complex_.simplices if len(s) == 3]
    if any(len(s) > 3 for s in complex_.simplices):
        return False
    edge_count: dict[frozenset, int] = {}
    for t in triangles:
        for e in combinations(sorted(t, key=repr), 2):
            edge_count[frozenset(e)] = edge_count.get(frozenset(e), 0) + 1
    edges = {s for s in complex_.simplices if len(s) == 2}
    if set(edge_count) != edges or any(c != 2 for c in edge_count.values()):
        return False
    for v in complex_.vertices():
        star = [t - {v} for t in triangles if v in t]
        if not star:
            return False
        adjacency: dict[object, set] = {}
        for e in star:
            a, b = tuple(e)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        if any(len(nbrs) != 2 for nbrs in adjacency.values()):
            return False
        seen = set()
        stack = [next(iter(adjacency))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node] - seen)
        if len(seen) != len(adjacency):
            return False
    return True


def is_orientable(complex_: SimplicialComplex) -> bool:
    """Orient the triangles consistently, one sign per triangle: with sign
    +1 the sorted (a, b, c) runs a->b, b->c and c->a, with sign -1 the
    other way, and two triangles that share an edge must traverse it in
    opposite directions.  The signs spread from triangle to triangle by a
    stack walk; a conflict means the complex is not orientable."""
    triangles = [tuple(sorted(t, key=repr)) for t in complex_.simplices if len(t) == 3]

    def edges(tri: tuple) -> list[tuple[tuple, int]]:
        """Each sorted edge with the direction the +1 orientation runs it."""
        a, b, c = tri
        return [((a, b), 1), ((b, c), 1), ((a, c), -1)]

    by_edge: dict[tuple, list[tuple[int, int]]] = {}
    for idx, tri in enumerate(triangles):
        for edge, direction in edges(tri):
            by_edge.setdefault(edge, []).append((idx, direction))
    sign: dict[int, int] = {}
    for start in range(len(triangles)):
        if start in sign:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            idx = stack.pop()
            for edge, direction in edges(triangles[idx]):
                for jdx, other in by_edge[edge]:
                    if jdx == idx:
                        continue
                    want = -sign[idx] * direction * other
                    if jdx not in sign:
                        sign[jdx] = want
                        stack.append(jdx)
                    elif sign[jdx] != want:
                        return False
    return True


# -- bundled checks -------------------------------------------------------------


def rp2_decomposition_check() -> tuple[str, list[IdentityResult]]:
    """The projective-plane ledger: the circle of zeros carries index
    -1 + u and the isolated zero carries 1, so the weighted chi sum is
    (-1) * chi(S^1) + 1 * chi(pt) = 1 = chi(RP^2).  Returns that sum as a
    summary line, and the check rows."""
    circle_chi = circle_complex().euler_characteristic()
    point_chi = point_complex().euler_characteristic()
    ind_circle = IndexLedger(-1, 1)
    total = ind_circle.epsilon * circle_chi + LEDGER_ONE.epsilon * point_chi
    expected = chi_grassmann(3, 1)
    fixture = projective_plane_complex().euler_characteristic()
    summary = (f"epsilon(-1 + u) * chi(S^1) + epsilon(1) * chi(pt) "
               f"= ({ind_circle.epsilon})*{circle_chi} "
               f"+ {LEDGER_ONE.epsilon}*{point_chi} = {total} = chi(RP^2)")
    square = ind_circle * ind_circle
    rows = [
        check_equal("rp2_weighted_sum", "ledger", 0, total, expected,
                    f"sum={total} chi={expected}"),
        check_equal("rp2_fixture_chi", "ledger", 0, fixture, expected,
                    f"fixture={fixture}"),
        check_equal("index_square_is_one", "ledger", 0, square, LEDGER_ONE,
                    f"square={square}"),
    ]
    return summary, rows


def klein_index_check() -> tuple[str, list[IdentityResult]]:
    """The Klein-bottle circle bundle: the two section circles carry
    indices 1 and -1 + u, the total index is u, and epsilon(u) = 0 agrees
    with chi of the bundled triangulation.  Returns the total and chi as a
    summary line, and the check rows."""
    total = ledger_sum([LEDGER_ONE, IndexLedger(-1, 1)])
    fixture = klein_bottle_complex().euler_characteristic()
    summary = (f"1 + (-1 + u) = {total}; epsilon = {total.epsilon} "
               f"= chi(Klein bottle) = {fixture}")
    rows = [
        check_equal("klein_total_index_is_u", "ledger", 0, total, LEDGER_U,
                    str(total)),
        check_equal("klein_epsilon_matches_chi", "ledger", 0, total.epsilon,
                    fixture, f"epsilon={total.epsilon} chi={fixture}"),
    ]
    return summary, rows
