"""Independent reference implementations that tests compare the package
against.  Each one computes the same value as a package routine by a
different, slower route.  ``mutate_alpha`` builds the corrupted laws that
the identity checks must refuse."""

from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import add

from cobcalc import fgl
from cobcalc.coeffring import CoeffPoly, Monomial, _dense_mono
from cobcalc.pseries import CheckFailed, TruncatedSeries

U1 = ("u",)
UV = ("u", "v")


def without_table(s: TruncatedSeries) -> TruncatedSeries:
    """A copy of s that carries no table of powers, so a composition with
    it builds its own, as the oracles that substitute a law's f do."""
    return TruncatedSeries(s.variables, s.order, s.terms)


def lagrange_reversion(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse via the Lagrange inversion formula, independent
    of the package's Newton route: the n-th coefficient of the inverse is
    (1/n) times the (n-1)-st coefficient of (x / s(x))^n."""
    x, _ = s._reversion_checks()
    n = s.order
    psi = s.divided_by_variable(x)            # order n - 1
    phi = psi.reciprocal()                    # (x / s(x)), order n - 1
    coeffs = {}
    power = TruncatedSeries.one(s.variables, phi.order)
    for k in range(1, n + 1):
        power = power * phi
        if k - 1 <= power.order:
            c = power.terms.get((k - 1,), CoeffPoly.zero()).scale(Fraction(1, k))
            if not c.is_zero():
                coeffs[(k,)] = c
    return TruncatedSeries(s.variables, n, coeffs)


def sorted_terms(p: CoeffPoly) -> list[tuple[Monomial, Fraction]]:
    """The terms of p in the order ``str`` renders them: by weight, then by
    the dense exponent vector (cp1 first)."""
    monos = [_dense_mono(dense) for _, dense, _, _ in p._sorted_rows()]
    return [(m, p.coefficient(m)) for m in monos]


def bucket_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The general series product, with no shortcut for a unit-monomial
    factor: each output exponent vector sums its coefficient products in
    one ``CoeffPoly.dot``."""
    order = min(a.order, b.order)
    buckets: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if sum(ea) + sum(eb) <= order:
                buckets.setdefault(tuple(map(add, ea, eb)), []).append((ca, cb))
    terms = {ev: c for ev, pairs in buckets.items() if (c := CoeffPoly.dot(pairs))}
    return TruncatedSeries(a.variables, order, terms)


def evaluate_per_term(s: TruncatedSeries, values) -> TruncatedSeries:
    """Composition as one product per term of s: each term starts from one
    and is multiplied by every power it needs, all through
    :func:`bucket_product`, at the result order of
    ``TruncatedSeries.evaluate``; the terms are summed with ``+``."""
    vals = [values[v] for v in s.variables]
    target_vars = vals[0].variables
    lmin = min(v.lowest_degree() for v in vals)
    order = min(min(v.order for v in vals), (s.order + 1) * lmin - 1)
    one = TruncatedSeries.one(target_vars, order)
    powers = [[one] for _ in vals]
    total = TruncatedSeries.zero(target_vars, order)
    for ev, c in s.terms.items():
        prod = one
        for idx, e in enumerate(ev):
            if not e:
                continue
            pw = powers[idx]
            while len(pw) <= e:
                pw.append(bucket_product(pw[-1], vals[idx]))
            prod = bucket_product(prod, pw[e])
        total = total + prod.scale(c)
    return total


def phi_by_divided_difference(law) -> TruncatedSeries:
    """Phi as the exact divided difference (f(u,v) - f(u,w)) / (v - w) in
    three variables, followed by the substitution w := ubar(u); the
    package builds it by synthetic division in v over series in u."""
    f_uw = law.f.rename({"v": "w"}).extend(fgl.UVW)
    quotient = (law.f.extend(fgl.UVW) - f_uw).divided_difference("v", "w")
    return quotient.substitute("w", law.inverse.extend(UV))


def phi_rows_by_separate_products(law) -> dict[str, TruncatedSeries]:
    """The differences of the three Phi rows, each with its own product by
    the law's Phi: (v - ubar) Phi for phi_factorization and again, times
    a(f), for chained_phi, and (u - ubar) Phi(u,u) for phi_diagonal.  The
    package builds (v - ubar) Phi once and reads all three rows from it."""
    n = law.order
    phi = fgl.phi_series(law)
    u1 = TruncatedSeries.variable("u", U1, n)
    v2 = TruncatedSeries.variable("v", UV, n)
    ub2 = law.inverse.extend(UV)
    two = fgl.n_series(law, 2)
    two_u = two.extend(UV)
    two_v = two.rename({"u": "v"}).extend(UV)
    two_ubar = two.evaluate({"u": law.inverse}).extend(UV)
    af = fgl.a_series(law).evaluate({"u": without_table(law.f)})
    lhs = (two_v - two_ubar) * phi.evaluate({"u": two_u, "v": two_v})
    diag = phi.evaluate({"u": u1, "v": u1})
    return {"phi_factorization": law.f - (v2 - ub2) * phi,
            "phi_diagonal": (u1 - law.inverse) * diag - two,
            "chained_phi": lhs - (v2 - ub2) * phi * af}


def delta_d_by_divided_difference(law) -> tuple[TruncatedSeries, TruncatedSeries]:
    """delta = (a(u) - a(v))/(u - v) and d = (v a(u) - u a(v))/(u - v) as
    exact, remainder-checked divisions; the package places a's
    coefficients directly."""
    a = fgl.a_series(law)
    au = a.extend(UV)
    av = a.rename({"u": "v"}).extend(UV)
    delta = (au - av).divided_difference("u", "v")
    dnum = au.times_monomial((0, 1)) - av.times_monomial((1, 0))
    return delta, dnum.divided_difference("u", "v")


def lemma61_by_product(law) -> TruncatedSeries:
    """The lemma 6.1 difference g'(f(u,v)) df/dv - g'(v) with its product:
    g' composed with f, times the v-derivative of f.  The package reads
    the left side as d/dv of g(f(u,v)), by the chain rule, with no
    product."""
    cp = fgl.cp_series(law)
    lhs = law.f.partial_derivative("v") * cp.evaluate({"u": without_table(law.f)})
    return lhs - cp.rename({"u": "v"}).extend(UV)


def log_route_by_composition(law):
    """Cross-validate a closed form f against its log g: g(f(u, v)) must
    equal g(u) + g(v) at the law's order.  Composing with g is a bijection
    modulo degree n + 1 on series without constant term (g has a unit
    linear term), so this is f = g^{-1}(g(u) + g(v)) without the reversion
    or the dense composition.  The package checks the same by the invariant
    differential, with no composition."""
    g = law.log
    x = g.variables[0]
    g_of_f = g.evaluate({x: without_table(law.f)})
    if g_of_f != g.rename({x: fgl.U}).extend(UV) + g.rename({x: fgl.V}).extend(UV):
        raise CheckFailed(
            f"law {law.tag}: the logarithm and the closed form disagree")
    return law


def law_by_composition(log) -> tuple[TruncatedSeries, TruncatedSeries]:
    """f = g^{-1}(g(u) + g(v)) and ubar = g^{-1}(-g(u)) through the Newton
    reversion g^{-1} of the log, composed with the two-variable series
    g(u) + g(v) and with -g(u).  The package builds both from the Lie
    series of g's invariant vector field, with no reversion and no
    composition."""
    x = log.variables[0]
    ginv = log.reversion()
    gu = log.rename({x: "u"})
    gv = log.rename({x: "v"}).extend(UV)
    return ginv.evaluate({x: gu.extend(UV) + gv}), ginv.evaluate({x: -gu})


def log_route_by_two_products(law):
    """The invariant-differential check with both of its products:
    g(0) = 0, g'(0) a nonzero scalar, f(u, 0) = u and
    g'(u) df/dv = g'(v) df/du compared term by term.  The package compares
    g'(v) df/du with its own mirror and f with its mirror, one product."""
    f, g = law.f, law.log
    dg = g.partial_derivative("u")
    c = dg.constant_term()
    if (not g.constant_term().is_zero() or not c.is_constant() or c.is_zero()
            or {ev: t for ev, t in f.terms.items() if not ev[1]}
            != {(1, 0): CoeffPoly.one()}
            or dg.rename({"u": "v"}).extend(UV) * f.partial_derivative("u")
            != dg.extend(UV) * f.partial_derivative("v")):
        raise CheckFailed(
            f"law {law.tag}: the logarithm and the closed form disagree")
    return law


def count_products(fn, *args) -> int:
    """The monomial products that ``fn(*args)`` makes: every pair (a, b)
    given to ``CoeffPoly.dot`` counts |a| * |b|, its number of term
    pairs."""
    real = CoeffPoly.__dict__["dot"]
    total = 0

    def counted(pairs):
        nonlocal total
        total += sum(len(a._num) * len(b._num) for a, b in pairs)
        return real(pairs)

    CoeffPoly.dot = staticmethod(counted)
    try:
        fn(*args)
    finally:
        CoeffPoly.dot = real
    return total


def direct_associativity(s: TruncatedSeries) -> TruncatedSeries:
    """s(s(u,v), w) - s(u, s(v,w)) for any series s in (u, v), both sides
    composed with the variables, whether or not s is symmetric."""
    n = s.order
    u3, v3, w3 = (TruncatedSeries.variable(x, fgl.UVW, n) for x in fgl.UVW)
    lhs = s.evaluate({"u": s.evaluate({"u": u3, "v": v3}), "v": w3})
    rhs = s.evaluate({"u": u3, "v": s.evaluate({"u": v3, "v": w3})})
    return lhs - rhs


def axiom_differences_by_composition(
        law, order: int) -> list[tuple[str, TruncatedSeries]]:
    """The five axiom differences of the law truncated to
    n = min(order, law order), each composed with the variables: f(u, 0)
    and f(0, u) less u, f less its mirror, both sides of the associator,
    and f(u, ubar(u)).  The package reads the last as the remainder of the
    division that builds Phi, and composes nothing with ubar."""
    n = min(order, law.order)
    f, ubar = law.f.truncate(n), law.inverse.truncate(n)
    u1 = TruncatedSeries.variable("u", U1, n)
    zero1 = TruncatedSeries.zero(U1, n)
    return [("unitality_right", f.evaluate({"u": u1, "v": zero1}) - u1),
            ("unitality_left", f.evaluate({"u": zero1, "v": u1}) - u1),
            ("commutativity", f - f.rename({"u": "v", "v": "u"}).extend(UV)),
            ("associativity", direct_associativity(f)),
            ("inverse", f.evaluate({"u": u1, "v": ubar}))]


def ring_columns(width: int, order: int) -> list[tuple[int, ...]]:
    """The columns of a quotient ring over ``width`` variables: every
    exponent vector of degree 1..order, sorted by degree and then by the
    vector itself, both descending."""
    monos = [ev for ev in product(range(order + 1), repeat=width)
             if 1 <= sum(ev) <= order]
    monos.sort(key=lambda ev: (sum(ev), ev), reverse=True)
    return monos


def relation_rows(law, variables, order: int) -> list[dict[int, int]]:
    """Every generator row of the lattice of
    ``QuotientRingA(law, variables, order)``: m [x]_2 truncated at the
    order, for each variable x and each monomial m of degree below the
    order, as ``{column: value}`` over :func:`ring_columns`.  The ring
    itself builds only the rows that the Koszul syzygies do not make
    redundant."""
    width = len(variables)
    col_of = {ev: i for i, ev in enumerate(ring_columns(width, order))}
    two = fgl.n_series(law, 2).truncate(order)
    rel = [(k, c.as_int()) for (k,), c in two.terms.items()]
    rows = []
    for axis in range(width):
        for m in product(range(order), repeat=width):
            if sum(m) >= order:
                continue
            row = {}
            for k, c in rel:
                ev = list(m)
                ev[axis] += k
                if sum(ev) <= order:
                    row[col_of[tuple(ev)]] = c
            rows.append(row)
    return rows


def solve_inverse(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Solve f(u, ubar(u)) = 0 degree by degree, one composition per
    degree; always solvable since f = u + v + higher."""
    u1 = TruncatedSeries.variable("u", U1, order)
    ubar = -u1
    while True:
        terms = f.evaluate({"u": u1, "v": ubar}).terms
        ev = min(terms, key=lambda e: (sum(e), e), default=None)
        if ev is None or sum(ev) > order:
            return ubar
        ubar = ubar - TruncatedSeries.from_terms({ev: terms[ev]}, U1, order)


def universal_cp_series(order: int) -> TruncatedSeries:
    """g'(u) = 1 + cp1 u + cp2 u^2 + ... in closed form."""
    terms = {(0,): CoeffPoly.one()}
    for n in range(1, order + 1):
        terms[(n,)] = CoeffPoly.gen(n)
    return TruncatedSeries.from_terms(terms, U1, order)


def n_series_via_log(law, n: int) -> TruncatedSeries:
    """[u]_n = g^{-1}(n g(u)); equal to the substitution route over Q."""
    x = law.log.variables[0]
    return law.log.reversion().evaluate({x: law.log.scale(n)})


def truncated_law(law, order: int) -> "fgl.FormalGroupLaw":
    """A copy of the law with f, ubar and g truncated to the order; it
    starts with no derived series."""
    return fgl.FormalGroupLaw(law.tag, law.f.truncate(order),
                              law.inverse.truncate(order), law.log.truncate(order))


def mutate_alpha(law, i: int, j: int, delta) -> "fgl.FormalGroupLaw":
    """Bump alpha_ij by delta and solve the inverse of the corrupted f; the
    logarithm is kept so identity checks against g' see the corruption."""
    bump = TruncatedSeries.from_terms({(i, j): CoeffPoly.const(delta)}, UV, law.order)
    f = law.f + bump
    return fgl.from_f(f, f"{law.tag}+e{i}{j}", law.log,
                      solve_inverse(f, law.order))


#: (law selector, suite order) of the laws whose whole identity suite the
#: tests replay against the oracles.
SUITE_LAWS = ([("miscenko", n) for n in range(1, 10)]
              + [(spec, n) for spec in ("mult:1", "mult:-2") for n in range(2, 13)])


#: The (a, b) of the two-parameter laws the tests run: the top coefficient
#: of the truncated 2-series is odd for some of them and even for others.
TWO_PARAMETER_GRID = ((1, -1), (1, 2), (2, 3), (1, 3), (3, -1), (2, -2), (1, 1))


def two_parameter_law(a: int, b: int, order: int) -> "fgl.FormalGroupLaw":
    """The law of the two-parameter Todd genus chi_(a,b) (Buchstaber, Panov
    and Ray, "Toric genera", 2010): f = (u + v - (a+b)uv)/(1 - ab uv), with
    log g = sum h_(k-1)(a, b) u^k / k, where h_(k-1)(a, b) = sum a^i b^(k-1-i)
    = (a^k - b^k)/(a - b), and inverse ubar = -u/(1 - (a+b)u).  a = 0 gives
    mult:-b and a = b = 0 the additive law.  For integers a and b the law
    is integral, and its truncated 2-series has top degree order or
    order - 1, where every law of the package has at most 2."""
    f = {}
    for m in range(order // 2 + 1):           # (ab uv)^m times the numerator
        w = (a * b) ** m
        for ev, c in (((m + 1, m), w), ((m, m + 1), w),
                      ((m + 1, m + 1), -(a + b) * w)):
            if sum(ev) <= order:
                f[ev] = c
    log = {(k,): Fraction(sum(a ** i * b ** (k - 1 - i) for i in range(k)), k)
           for k in range(1, order + 1)}
    inverse = {(k,): -(a + b) ** (k - 1) for k in range(1, order + 1)}
    return fgl._check_log_route(fgl.from_f(
        TruncatedSeries.from_terms(f, UV, order), f"todd:{a},{b}",
        TruncatedSeries.from_terms(log, U1, order),
        TruncatedSeries.from_terms(inverse, U1, order)))


def specialize_to_two_parameter(s: TruncatedSeries, a: int, b: int) -> TruncatedSeries:
    """s with cp_n mapped to h_n(a, b) = sum_i a^i b^(n-i), coefficient by
    coefficient through ``CoeffPoly.specialize``.  The map sends the
    universal g'(u) = 1 + sum cp_n u^n to 1/((1 - au)(1 - bu)), the g' of
    :func:`two_parameter_law`, so it takes the universal law to that law."""
    terms = {}
    for ev, c in s.terms.items():
        gens = {g for m, _ in c.terms() for g, _ in m}
        terms[ev] = c.specialize(
            {g: sum(a ** i * b ** (g - i) for i in range(g + 1)) for g in gens})
    return TruncatedSeries.from_terms(terms, s.variables, s.order)


def is_orientable_by_rotations(complex_) -> bool:
    """Orient the triangles consistently by searching the six orderings of
    each neighbour for one that traverses the shared edge backwards."""
    triangles = [tuple(sorted(t, key=repr)) for t in complex_.simplices if len(t) == 3]
    by_edge: dict[frozenset, list[int]] = {}
    for idx, t in enumerate(triangles):
        for e in combinations(t, 2):
            by_edge.setdefault(frozenset(e), []).append(idx)
    orientation: dict[int, tuple] = {}

    def directed_edges(tri: tuple) -> list[tuple]:
        a, b, c = tri
        return [(a, b), (b, c), (c, a)]

    for start in range(len(triangles)):
        if start in orientation:
            continue
        orientation[start] = triangles[start]
        stack = [start]
        while stack:
            idx = stack.pop()
            tri = orientation[idx]
            for (a, b) in directed_edges(tri):
                for jdx in by_edge[frozenset((a, b))]:
                    if jdx == idx:
                        continue
                    x, y, z = triangles[jdx]
                    want = (b, a)  # the neighbour must traverse it backwards
                    candidates = [(x, y, z), (y, z, x), (z, x, y),
                                  (x, z, y), (z, y, x), (y, x, z)]
                    good = [c for c in candidates
                            if want in [(c[0], c[1]), (c[1], c[2]), (c[2], c[0])]]
                    fixed = good[0]
                    if jdx in orientation:
                        ok_now = orientation[jdx] in [
                            (fixed[0], fixed[1], fixed[2]),
                            (fixed[1], fixed[2], fixed[0]),
                            (fixed[2], fixed[0], fixed[1])]
                        if not ok_now:
                            return False
                    else:
                        orientation[jdx] = fixed
                        stack.append(jdx)
    return True


def partitions_in_box(rows: int, cols: int, _first: int | None = None):
    """All partitions fitting in a rows x cols box, as tuples."""
    limit = cols if _first is None else min(cols, _first)
    yield ()
    if rows == 0:
        return
    for head in range(1, limit + 1):
        for tail in partitions_in_box(rows - 1, cols, head):
            yield (head,) + tail


def chi_grassmann_by_partitions(n: int, k: int) -> int:
    """chi(RG_k^n) as sum (-1)^|lambda| over the partitions lambda in a
    k x (n-k) box, one per Schubert cell."""
    return sum((-1) ** sum(p) for p in partitions_in_box(k, n - k))


def chi_grassmann_flat(n: int, k: int) -> int:
    """chi(RG_k^n) from one flat pass over every k-subset S of range(n),
    with nothing taken from smaller n: a cell counts -(-1)^(k(k-1)/2) when
    sum(S) is odd and +(-1)^(k(k-1)/2) otherwise."""
    odd_cells = sum(map((1).__and__, map(sum, combinations(range(n), k))))
    return (-1) ** (k * (k - 1) // 2) * (comb(n, k) - 2 * odd_cells)


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """The k-subset {s_1 < ... < s_k} of rank ``rank`` in colex order, read
    off the combinatorial number system rank = sum C(s_i, i) one element at
    a time, largest first (Knuth, TAOCP 4A, 7.2.1.3)."""
    subset = []
    for i in range(k, 0, -1):
        s = i - 1
        while comb(s + 1, i) <= rank:
            s += 1
        rank -= comb(s, i)
        subset.append(s)
    return tuple(reversed(subset))


def chains_under_inclusion(simplices) -> frozenset:
    """The simplices of a barycentric subdivision: every chain of faces under
    strict inclusion, grown by comparing every pair of faces."""
    supersets = {s: [t for t in simplices if s < t] for s in simplices}
    chains = set()

    def grow(chain: tuple) -> None:
        chains.add(frozenset(chain))
        for t in supersets[chain[-1]]:
            grow(chain + (t,))

    for s in simplices:
        grow((s,))
    return frozenset(chains)
