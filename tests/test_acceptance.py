"""Acceptance gate.

Each test here is one acceptance criterion, printed as a single
pass/fail line with its runtime where a budget applies.  Criteria are
never weakened: a miss fails the test.

The order-9 census extension is opt-in because of its runtime: set
REDRANK_ACCEPTANCE_ORDER9=1 to include it (budget 30 minutes).
"""

import os
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from redrank.bounds import (AngleParams, IntegralBracket, closed_form_sweep,
                            levenshtein_bound, tail_ratio_certificate,
                            verify_code_lemma)
from redrank.census import (EnumerationCapError, ORDER_CAP,
                            construct_extremal, enumerate_graphs, lemma_suite,
                            verify_conjecture)
from redrank.exact import QSqrt2
from redrank.graphs import (conjectured_max_order, is_reduced,
                            proven_max_order, rank)

# Graphs on 1..9 unlabeled vertices (OEIS A000088).
A000088 = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]


def _report(num: int, label: str, ok: bool, elapsed: float = None,
            budget: float = None) -> None:
    stamp = f" [{elapsed:.2f}s / {budget:.0f}s]" if budget is not None else ""
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_levenshtein_sweep_47_to_118():
    start = time.monotonic()
    reports = verify_code_lemma(47, 118, -4)
    elapsed = time.monotonic() - start
    ok = (len(reports) == 72
          and all(r.holds for r in reports)
          and all(r.method == "levenshtein" for r in reports)
          and elapsed < 60)
    _report(1, "levenshtein threshold sweep n=47..118", ok, elapsed, 60)


def test_criterion_2_closed_form_tail_to_ten_thousand():
    start = time.monotonic()
    reports = closed_form_sweep(118, 10000, -4)
    cert = tail_ratio_certificate(118, 10000, -4)
    elapsed = time.monotonic() - start
    ok = (len(reports) == 9883
          and all(r.holds for r in reports)
          and cert.boundary_holds and cert.ratio_ok_all_window
          and cert.ratio_decreasing_symbolic and cert.threshold_floor_ok
          and cert.extends_beyond_window
          and elapsed < 30)
    _report(2, "closed-form sweep n=118..10000 with tail certificate",
            ok, elapsed, 30)


def test_criterion_3_orthogonal_cosine_collapses_to_2n():
    ok = all(levenshtein_bound(n, 0).value == QSqrt2(2 * n)
             for n in range(3, 51))
    _report(3, "levenshtein at s=0 equals 2n for n=3..50", ok)


def test_criterion_4_census_to_order_8():
    start = time.monotonic()
    summary = verify_conjecture(8)
    elapsed = time.monotonic() - start
    maxima = dict(summary.per_rank_max_order)
    ok = (summary.holds
          and [r.total_graphs for r in summary.reports] == A000088[:8]
          and summary.violations == ()
          and maxima.get(4) == 6
          and all(maxima[r] <= conjectured_max_order(r)
                  for r in maxima if r >= 2)
          and elapsed < 300)
    _report(4, "census through order 8: conjecture holds", ok, elapsed, 300)


@pytest.mark.skipif(os.environ.get("REDRANK_ACCEPTANCE_ORDER9") != "1",
                    reason="set REDRANK_ACCEPTANCE_ORDER9=1 to enable")
def test_criterion_4_extension_census_to_order_9():
    start = time.monotonic()
    summary = verify_conjecture(9)
    elapsed = time.monotonic() - start
    ok = (summary.holds and summary.violations == ()
          and [r.total_graphs for r in summary.reports] == A000088
          and elapsed < 1800)
    _report(4, "census extension through order 9", ok, elapsed, 1800)


def test_criterion_5_property_suite_to_order_7():
    rep = lemma_suite(7)
    ok = (rep.holds
          and rep.graphs_processed == 606
          and all(c.passed == c.run and c.run > 0 for c in rep.checks)
          and len(rep.checks) == 5)
    _report(5, "per-graph property suite through order 7 at 100%", ok)


def test_criterion_6_max_order_arithmetic_to_60():
    from redrank.census import verify_m_inequalities
    values_ok = ([conjectured_max_order(r) for r in range(2, 11)]
                 == [2, 3, 6, 8, 14, 18, 30, 38, 62])
    recur_ok = all(conjectured_max_order(r) ==
                   2 * conjectured_max_order(r - 2) + 2
                   for r in range(4, 61))
    proven_ok = all(proven_max_order(r) == 8 * conjectured_max_order(r) + 14
                    for r in range(2, 61))
    rep = verify_m_inequalities(60)
    ok = values_ok and recur_ok and proven_ok and rep.holds
    _report(6, "max-order arithmetic and inequalities through r=60", ok)


def test_criterion_7_extremal_constructions_to_rank_10():
    start = time.monotonic()
    ok = True
    for r in range(2, 11):
        g = construct_extremal(r)
        ok = ok and g.n == conjectured_max_order(r) and rank(g) == r \
            and is_reduced(g)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _report(7, "extremal construction attains m(r) for r=2..10",
            ok, elapsed, 10)


def test_criterion_8_bracket_contains_quadrature():
    mp.dps = 50
    rng = random.Random(20240825)
    ok = True
    for _ in range(20):
        n = rng.randint(6, 60)
        floor_millis = 6000 // (n + 9) + 1
        s = Fraction(rng.randint(floor_millis + 1, 990), 1000)
        br = IntegralBracket(AngleParams.from_cos(n, s))
        alpha = mp.acos(mp.sqrt(mp.mpf(s.numerator) / s.denominator))
        I = mp.quad(lambda t: mp.sin(t) ** (n - 2)
                    * (mp.cos(t) - mp.cos(alpha)), [0, alpha])
        ok = ok and br.contains(Fraction(mp.nstr(I, 30)))
    _report(8, "integral bracket contains 30-digit quadrature, 20 seeded cases",
            ok)


def test_criterion_9_enumeration_cap_is_declared():
    # orders beyond 10 are declared out of reach rather than attempted;
    # the cap is an explicit, documented error
    ok = ORDER_CAP == 10
    try:
        next(enumerate_graphs(ORDER_CAP + 1))
        ok = False
    except EnumerationCapError:
        pass
    _report(9, "enumeration beyond order 10 refused with a declared cap", ok)
