"""Normalized Gegenbauer ladder, adjacent variants, and exact root
location via Sturm chains.

Values are cross-checked against mpmath's gegenbauer at float
precision and against frozen exact literals.
"""

import random
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from redrank import poly
from redrank.exact import COS_REFERENCE, QSqrt2
from redrank.poly import (COSINE_DIGIT_CAP, LOCATE_CELL_CAP, CellCapError,
                          CosineDigitCapError, _evaluate, _roots_above,
                          _sturm, adjacent_poly, cmp_to_largest_root,
                          gegenbauer, gegenbauer_values, locate_interval)


def test_evaluate_fraction_qsqrt2_and_zero():
    p = (Fraction(1), Fraction(-2), Fraction(3))  # 3t^2 - 2t + 1
    assert _evaluate(p, Fraction(2, 3)) == Fraction(1)
    assert _evaluate(p, 0) == 1
    # at 1 + sqrt2: 3(3 + 2sqrt2) - 2(1 + sqrt2) + 1 = 8 + 4sqrt2
    assert _evaluate(p, QSqrt2(1, 1)) == QSqrt2(8, 4)
    assert _evaluate((), Fraction(5)) == 0
    assert isinstance(_evaluate((), QSqrt2(0, 1)), QSqrt2)
    assert _evaluate((Fraction(7),), QSqrt2(3, -2)) == QSqrt2(7)


def test_gegenbauer_frozen_coefficients():
    assert gegenbauer(10, 3) == (0, Fraction(-1, 3), 0, Fraction(4, 3))
    assert gegenbauer(5, 4) == \
        (Fraction(1, 8), 0, Fraction(-7, 4), 0, Fraction(21, 8))
    assert gegenbauer(4, 0) == (1,)
    assert gegenbauer(7, 1) == (0, 1)


def test_gegenbauer_normalization_and_parity():
    for n in range(3, 13):
        for k in range(0, 9):
            q = gegenbauer(n, k)
            assert len(q) == k + 1
            assert _evaluate(q, Fraction(1)) == 1
            t = Fraction(3, 7)
            assert _evaluate(q, -t) == (-1) ** k * _evaluate(q, t)


def test_gegenbauer_matches_mpmath():
    mp.dps = 30
    rng = random.Random(2718)
    for n in range(3, 12):
        lam = mpf(n - 2) / 2
        for k in range(1, 7):
            norm = mp.gegenbauer(k, lam, mpf(1))
            q = gegenbauer(n, k)
            for _ in range(3):
                t = Fraction(rng.randint(-99, 99), 100)
                want = mp.gegenbauer(k, lam, mpf(t.numerator) / t.denominator) / norm
                got = _evaluate(q, t)
                assert abs(mpf(got.numerator) / got.denominator - want) < mpf(10) ** -20


def test_adjacent_poly_frozen_coefficients():
    assert adjacent_poly(13, 2, "10") == \
        (Fraction(-1, 16), Fraction(1, 8), Fraction(15, 16))
    assert adjacent_poly(13, 2, "11") == \
        (Fraction(-1, 14), 0, Fraction(15, 14))
    with pytest.raises(ValueError):
        adjacent_poly(13, 2, "01")


def test_adjacent_poly_normalization():
    for n in (3, 5, 10, 24):
        for k in (1, 2, 3, 4):
            for kind in ("10", "11"):
                assert _evaluate(adjacent_poly(n, k, kind), Fraction(1)) == 1


def test_sturm_chain_counts():
    q = gegenbauer(8, 4)
    chain = _sturm(q)
    assert _roots_above(chain, Fraction(-1)) == 4
    for n in (3, 6, 11):
        for k in range(1, 7):
            # all k roots are real, distinct, and inside (-1, 1]
            chain_k = _sturm(gegenbauer(n, k))
            assert _roots_above(chain_k, Fraction(-1)) == k
            assert _roots_above(chain_k, Fraction(1)) == 0
    assert chain[0] == q
    assert _roots_above(chain, Fraction(0)) == 2


def _mp_largest_root(p):
    return max(r.real for r in mp.polyroots(
        [mpf(c.numerator) / c.denominator for c in reversed(p)]))


def test_largest_zero_matches_mpmath():
    # the exact comparison places mpmath's largest root within 1e-14
    mp.dps = 30
    for (n, k) in ((5, 2), (9, 3), (14, 4)):
        q = gegenbauer(n, k)
        top = Fraction(mp.nstr(_mp_largest_root(q), 25))
        assert cmp_to_largest_root(q, top - Fraction(1, 10 ** 14)) == -1
        assert cmp_to_largest_root(q, top + Fraction(1, 10 ** 14)) == 1


def test_interlacing_of_largest_roots():
    # a rational strictly between the largest roots of Q_k and Q_{k+1},
    # picked in floating point, is certified exactly on both sides
    mp.dps = 30
    for n in (5, 10, 24):
        for k in range(1, 6):
            lo = _mp_largest_root(gegenbauer(n, k))
            hi = _mp_largest_root(gegenbauer(n, k + 1))
            mid = Fraction(mp.nstr((lo + hi) / 2, 25))
            assert cmp_to_largest_root(gegenbauer(n, k), mid) == 1
            assert cmp_to_largest_root(gegenbauer(n, k + 1), mid) == -1


def test_cmp_to_largest_root():
    # s0 lies above the largest root of the (1,0) adjacent polynomial
    # at n = 10, k = 3, and below the one at k = 4
    assert cmp_to_largest_root(adjacent_poly(10, 3, "10"), COS_REFERENCE) == 1
    assert cmp_to_largest_root(adjacent_poly(10, 4, "10"), COS_REFERENCE) == -1
    # exact hit: Q_2 for n = 4 vanishes at 1/2
    assert cmp_to_largest_root(gegenbauer(4, 2), Fraction(1, 2)) == 0


def test_cmp_to_largest_root_repeated_and_exact_roots():
    # (t - 1)^2 (t - 2): the double root at 1 does not hide the root at 2
    p = (Fraction(-2), Fraction(5), Fraction(-4), Fraction(1))
    assert [cmp_to_largest_root(p, Fraction(s, 2)) for s in (1, 2, 3, 4, 5)] \
        == [-1, -1, -1, 0, 1]
    # (t - 1)^2: a double largest root
    sq = (Fraction(1), Fraction(-2), Fraction(1))
    assert [cmp_to_largest_root(sq, Fraction(s, 2)) for s in (1, 2, 3)] \
        == [-1, 0, 1]
    # t^2 + 2t - 1 has its largest root exactly at s0 = sqrt2 - 1
    r = (Fraction(-1), Fraction(2), Fraction(1))
    eps = Fraction(1, 10 ** 12)
    assert cmp_to_largest_root(r, COS_REFERENCE) == 0
    assert cmp_to_largest_root(r, COS_REFERENCE - eps) == -1
    assert cmp_to_largest_root(r, COS_REFERENCE + eps) == 1
    assert cmp_to_largest_root(r, Fraction(-3)) == -1


def test_cmp_to_largest_root_refuses_no_real_root():
    for p, s in (((Fraction(1), Fraction(0), Fraction(1)), Fraction(0)),
                 ((Fraction(1), Fraction(0), Fraction(1)), COS_REFERENCE),
                 ((Fraction(5),), Fraction(1, 3))):
        with pytest.raises(ValueError, match="no real root"):
            cmp_to_largest_root(p, s)


def test_cmp_to_largest_root_matches_mpmath_roots():
    # seeded integer polynomials with simple roots, at rationals 1e-3 or
    # more away from every real root
    mp.dps = 30
    rng = random.Random(1201)
    checked = 0
    while checked < 150:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        if coeffs[-1] == 0:
            continue
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200,
                             extraprec=60)
        if any(abs(a - b) < 1e-6 for i, a in enumerate(roots)
               for b in roots[i + 1:]):
            continue
        real = [r.real for r in roots if abs(r.imag) < 1e-12]
        s = Fraction(rng.randint(-500, 500), 100)
        sv = mpf(s.numerator) / s.denominator
        if any(abs(sv - r) < 1e-3 for r in real):
            continue
        p = tuple(Fraction(c) for c in coeffs)
        if not real:
            with pytest.raises(ValueError):
                cmp_to_largest_root(p, s)
        else:
            want = -1 if sv < max(real) else 1
            assert cmp_to_largest_root(p, s) == want, (coeffs, s)
        checked += 1


def test_adjacent_poly_refuses_inexact_division(monkeypatch):
    exact = poly.gegenbauer

    def perturbed(n, k):
        q = exact(n, k)
        return (q[0] + Fraction(1, 7),) + q[1:] if k == 3 else q

    adjacent_poly.cache_clear()
    monkeypatch.setattr(poly, "gegenbauer", perturbed)
    try:
        for k, kind in ((2, "10"), (1, "11")):  # Q_k - Q_3
            with pytest.raises(ValueError, match="inexact"):
                adjacent_poly(10, k, kind)
    finally:
        monkeypatch.undo()
        adjacent_poly.cache_clear()
    assert _evaluate(adjacent_poly(10, 2, "10"), Fraction(1)) == 1


def test_adjacent_largest_zero_interval():
    # the largest zero of Q_3^{1,0} for n = 10 sits at about 0.41166,
    # just below s0
    p = adjacent_poly(10, 3, "10")
    assert cmp_to_largest_root(p, Fraction(41, 100)) == -1
    assert cmp_to_largest_root(p, Fraction(42, 100)) == 1


def test_locate_interval_frozen():
    assert locate_interval(5, COS_REFERENCE) == (3, "A")
    assert locate_interval(10, COS_REFERENCE) == (3, "B")
    assert locate_interval(24, COS_REFERENCE) == (4, "B")
    assert locate_interval(10, Fraction(-1, 2)) == (1, "A")
    assert locate_interval(13, Fraction(1, 5)) == (2, "B")


def test_locate_interval_k_grows_with_dimension():
    last = 0
    for n in range(3, 60):
        k, branch = locate_interval(n, COS_REFERENCE)
        assert branch in ("A", "B")
        assert k >= last
        last = k
    assert last >= 5


def test_gegenbauer_matches_three_term_recurrence():
    for n in (2, 3, 4, 7, 24, 119):
        qs = [[Fraction(1)], [Fraction(0), Fraction(1)]]
        for j in range(1, 40):
            # Q_{j+1} = ((2j+n-2) t Q_j - j Q_{j-1}) / (j+n-2)
            nxt = [Fraction(0)] + [(2 * j + n - 2) * c for c in qs[j]]
            for i, c in enumerate(qs[j - 1]):
                nxt[i] -= j * c
            qs.append([c / (j + n - 2) for c in nxt])
        assert [gegenbauer(n, k) for k in range(41)] == [tuple(q) for q in qs]


def test_gegenbauer_cold_call_needs_no_recursion():
    gegenbauer.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        q = gegenbauer(3, 600)
    finally:
        sys.setrecursionlimit(limit)
    assert len(q) == 601 and _evaluate(q, Fraction(1)) == 1


def test_gegenbauer_values_match_polynomials():
    for n in (3, 8, 24):
        for s in (Fraction(-2, 3), Fraction(0), Fraction(5, 7), COS_REFERENCE):
            got = gegenbauer_values(n, s, 0, 12)
            assert got == [_evaluate(gegenbauer(n, j), QSqrt2._coerce(s))
                           for j in range(13)]
            assert gegenbauer_values(n, s, 4, 6) == got[4:7]


# ── locate_interval against an independent linear Sturm scan ─────


def reference_cell(n, s):
    """The first k with s below the largest zero of Q_k^{1,1}, and the
    branch from Q_k^{1,0}, both by Sturm counts."""
    for k in range(1, 200):
        if cmp_to_largest_root(adjacent_poly(n, k, "11"), s) < 0:
            if cmp_to_largest_root(adjacent_poly(n, k, "10"), s) < 0:
                return k, "A"
            return k, "B"
    raise AssertionError("reference scan ran past k = 200")


def equivalence_points():
    rng = random.Random(20120113)
    points = [(n, s) for n in range(3, 41, 3)
              for s in (Fraction(-1), Fraction(0), Fraction(1, 2),
                        Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3),
                        COS_REFERENCE)]
    for _ in range(60):
        d = rng.randint(1, 60)
        points.append((rng.randint(3, 40), Fraction(rng.randint(-d, d - 1), d)))
    return points


def test_locate_interval_matches_sturm_scan():
    for n, s in equivalence_points():
        assert locate_interval(n, s) == reference_cell(n, s), (n, s)


def test_locate_interval_sturm_fallback_is_exact(monkeypatch):
    points = equivalence_points()[::4]
    want = [locate_interval(n, s) for n, s in points]
    # Descartes' rule proving nothing leaves every lower end to Sturm counts
    monkeypatch.setattr(poly, "_no_zero_above", lambda p, s: False)
    assert [locate_interval(n, s) for n, s in points] == want
    monkeypatch.undo()
    # a scan that proposes a cell too far right fails its lower end and
    # walks back
    scan = poly._scan
    monkeypatch.setattr(poly, "_scan", lambda n, s: (scan(n, s)[0] + 3, False))
    assert [locate_interval(n, s) for n, s in points] == want


def test_locate_interval_large_k_frozen():
    assert locate_interval(3, Fraction(999, 1000)) == (85, "A")
    assert locate_interval(3, Fraction(9999, 10000)) == (270, "A")


def test_locate_interval_refuses_beyond_cap():
    start = time.perf_counter()
    with pytest.raises(CellCapError) as exc:
        locate_interval(3, Fraction(10 ** 7 - 1, 10 ** 7))
    assert isinstance(exc.value, ValueError)
    assert str(LOCATE_CELL_CAP) in str(exc.value)
    assert time.perf_counter() - start < 5


def test_locate_interval_refuses_cosines_beyond_digit_cap():
    big = 10 ** COSINE_DIGIT_CAP
    over = [1 - Fraction(1, 10 ** 1000), Fraction(1, big),
            Fraction(-big, big + 1), QSqrt2(0, Fraction(1, big))]
    start = time.perf_counter()
    for s in over:
        with pytest.raises(CosineDigitCapError) as exc:
            locate_interval(3, s)
        assert isinstance(exc.value, ValueError)
        assert "COSINE_DIGIT_CAP" in str(exc.value)
    assert time.perf_counter() - start < 0.5
    # cap digits are admitted, the range check still applies after it
    assert locate_interval(3, Fraction(1, big - 1)) == locate_interval(3, 0)
    assert locate_interval(3, Fraction(1 - big, big - 1)) == (1, "A")


def test_descartes_reports_not_proved_when_a_zero_lies_above():
    # (t - 1/2)(t + 1): a zero at 1/2
    p = (Fraction(-1, 2), Fraction(1, 2), Fraction(1))
    assert not poly._no_zero_above(p, Fraction(0))
    assert not poly._no_zero_above(p, Fraction(49, 100))
    assert poly._no_zero_above(p, Fraction(1, 2))
    assert poly._no_zero_above(p, Fraction(3, 5))
    # t_3^{1,0} < s0 < t_4^{1,0} at n = 10 (see test_cmp_to_largest_root)
    assert poly._no_zero_above(adjacent_poly(10, 3, "10"), COS_REFERENCE)
    assert not poly._no_zero_above(adjacent_poly(10, 4, "10"), COS_REFERENCE)
