"""Acceptance suite: every criterion prints one pass/fail line.

Run ``pytest tests/test_acceptance.py -s`` to see the lines; each test
also asserts, so the suite gates CI.  All comparisons are exact equality
of truncated series (or integers); there are no numeric tolerances
anywhere.
"""

import random
import time

from cobcalc import fgl, localize as lz, pontclass as pc
from cobcalc.coeffring import CoeffPoly
from cobcalc.pseries import TruncatedSeries
from oracles import mutate_alpha

UV = ("u", "v")


def _criterion(num: int, description: str, ok: bool) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, line


def test_criterion_01_fgl_axioms_miscenko_order_10():
    start = time.perf_counter()
    law = fgl.miscenko_law(10)
    rows = fgl.verify_axioms(law)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in rows) and len(rows) == 5 and elapsed < 10.0
    _criterion(1, "miscenko order-10 axioms (unit, comm, assoc, inverse) "
                  f"exact in {elapsed:.2f}s", ok)


def test_criterion_02_lemma61_all_laws(miscenko11):
    rows = pc.verify_identity_suite(miscenko11, "lemma61", 10)
    ok = all(r.passed and r.order >= 10 for r in rows)
    for law_spec in ("additive", "mult:1"):
        extra = pc.verify_identity_suite(law_spec, "lemma61", 10)
        ok = ok and all(r.passed for r in extra)
    _criterion(2, "Lemma 6.1 denominator-cleared identity exact at order 10 "
                  "(miscenko, additive, mult:1)", ok)


def test_criterion_03_theorem_66_proof_chain(miscenko11):
    rows = (pc.verify_identity_suite(miscenko11, "phi_factorization", 10)
            + pc.verify_identity_suite(miscenko11, "two_series_hom", 10))
    names = {r.identity for r in rows}
    ok = names == {"phi_factorization", "phi_diagonal", "two_series_hom",
                   "chained_phi"}
    ok = ok and all(r.passed and 8 <= r.order <= 11 for r in rows)
    _criterion(3, "Phi factorization, diagonal identity, 2-series "
                  "homomorphism, chained Phi/a identity exact at order 8-10", ok)


def test_criterion_04_in_a_suite_multiplicative(mult14):
    rows = pc.verify_identity_suite(mult14, "in_A", 12)
    wanted = {"u_equals_ubar_in_A", "v_equals_vbar_in_A",
              "lemma62_delta_to_d_in_A", "lemma62_uv_shift_in_A",
              "a_transfer_in_A", "phi_a_delta_in_A", "cor63_equals_b_in_A",
              "assoc_b_in_A"}
    ok = {r.identity for r in rows} == wanted and all(r.passed for r in rows)

    ring = pc.QuotientRingA(mult14, UV, 12)
    rng = random.Random(20260808)
    rel = {"u": ring.two_series("u"), "v": ring.two_series("v")}
    for trial in range(100):
        terms = {(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-9, 9)
                 for _ in range(rng.randint(1, 6))}
        x = TruncatedSeries.from_terms(terms, UV, 12)
        reduced = ring.reduce(x)
        ok = ok and ring.reduce(reduced) == reduced
        ok = ok and ring.reduce(x * rel["u" if trial % 2 else "v"]).is_zero()
    _criterion(4, "in-A suite (mult beta=1, order 12): u=ubar, Lemma 6.2, "
                  "a(f)-transfer, cor63=b, 3-var associativity; reduction "
                  "idempotent and kills ideal on 100 random elements", ok)


def test_criterion_05_closed_form_b():
    add = pc.b_series(fgl.additive_law(12))
    mult = pc.b_series(fgl.multiplicative_law(1, 12))
    expected_add = TruncatedSeries.from_terms({(1, 0): 1, (0, 1): 1}, UV, 12)
    expected_mult = TruncatedSeries.from_terms(
        {(1, 0): 1, (0, 1): 1, (1, 1): 1}, UV, 12)
    ok = add == expected_add and mult == expected_mult
    _criterion(5, "closed-form b: additive u+v, multiplicative u+v+uv, "
                  "exact at order 12", ok)


def test_criterion_06_beta_table_properties(miscenko11):
    law = miscenko11.truncate(9)
    b = pc.b_series(law)
    alpha = fgl.alpha_table(law)
    table = {(k, l): c for (k, l), c in b.terms.items()
             if k >= 1 and l >= 1 and k + l <= 8}
    ok = bool(table)
    for (k, l), c in table.items():
        ok = ok and table[(l, k)] == c and c.is_homogeneous(k + l - 1)
    ok = ok and table[(1, 1)] == alpha[(1, 1)]
    rebuilt = (TruncatedSeries.variable("u", UV, 8)
               + TruncatedSeries.variable("v", UV, 8))
    for (k, l), c in table.items():
        rebuilt = rebuilt + TruncatedSeries.from_terms({(k, l): c}, UV, 8)
    ok = ok and rebuilt == b.truncate(8)
    _criterion(6, "beta table at order 8: symmetry, weight k+l-1 "
                  "homogeneity, beta11=alpha11, line-bundle form rebuilds b", ok)


def test_criterion_07_sign_and_stability_suite():
    ok = True
    for n1 in range(7):
        for n2 in range(7):
            for k in range(n1 + n2 + 1):
                for k1, k2, sign in pc.whitney_sign_formula(n1, n2, k):
                    ok = ok and sign == (-1) ** ((n1 - k1) * k2)
    for n1 in range(1, 7):
        for k in range(n1 + 1):
            ok = ok and pc.stability_surviving_terms(n1, k) == [(k, 0, 1)]
    for k in range(1, 10, 2):
        ok = ok and pc.parity_sign(k) == -1
    _criterion(7, "Whitney signs (-1)^((n1-k1)k2) for n1,n2 <= 6; stability "
                  "collapse at n2=1; odd-k parity obstruction", ok)


def test_criterion_08_localization_recursion():
    start = time.perf_counter()
    rows = lz.localization_recursion_report(10)
    elapsed = time.perf_counter() - start
    ok = bool(rows) and all(r.passed for r in rows) and elapsed < 5.0
    _criterion(8, f"localization recursion for all n1+n2 <= 10 "
                  f"({len(rows)} cases, {elapsed:.2f}s, chi from partition "
                  "enumeration)", ok)


def test_criterion_09_ledger_suite(mult14):
    ind = lz.IndexLedger(-1, 1)
    ok = ind * ind == lz.LEDGER_ONE
    total = lz.LEDGER_ONE + ind
    ok = ok and total == lz.LEDGER_U and total.epsilon == 0
    ok = ok and lz.klein_bottle_complex().euler_characteristic() == 0
    ok = ok and all(r.passed for r in lz.klein_index_check()[1])
    ok = ok and all(r.passed for r in lz.rp2_decomposition_check()[1])
    gamma = pc.gamma_line(mult14)
    ring = pc.QuotientRingA(mult14, ("c",), 8)
    one = TruncatedSeries.one(("c",), gamma.order)
    ok = ok and ring.reduce(gamma * gamma - one).is_zero()
    _criterion(9, "ledger suite: (-1+u)^2=1, Klein sum u with eps=0=chi, "
                  "RP^2 decomposition sums to 1, gamma^2=1 mod [c]_2", ok)


def test_criterion_10_mutation_sensitivity():
    law = mutate_alpha(fgl.miscenko_law(6), 1, 1, 1)
    axiom_rows = {r.identity: r for r in fgl.verify_axioms(law)}
    cp = fgl.cp_series(law)
    lhs = law.f.partial_derivative("v") * cp.evaluate({"u": law.f})
    rhs = cp.rename({"u": "v"}).extend(UV)
    lemma61_fails = not (lhs - rhs).is_zero()
    ok = (not axiom_rows["associativity"].passed) and lemma61_fails
    _criterion(10, "alpha11 + 1 mutation breaks associativity and "
                   "Lemma 6.1 (suites are non-vacuous)", ok)
