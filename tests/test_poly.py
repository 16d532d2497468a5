"""Normalized Gegenbauer ladder, adjacent variants, and the certified
cell of locate_interval.

Values are cross-checked against mpmath's gegenbauer and polyroots and
against frozen exact literals.  The premises behind locate_interval's
certificates (real simple zeros, interlacing largest zeros) are re-checked
with mpmath, and each cell it returns is checked against the largest zeros
that mpmath finds at the cell's ends.
"""

import random
import sys
import time
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice
from math import gcd, lcm

import pytest
from mpmath import mp, mpf

from redrank import poly
from redrank.exact import COS_REFERENCE, QSqrt2
from redrank.poly import (COSINE_DIGIT_CAP, LOCATE_CELL_CAP, CellCapError,
                          CellCertificateError, CosineDigitCapError,
                          adjacent_poly, gegenbauer, locate_interval)


def horner(p, x):
    """p(x) exactly for Fraction and QSqrt2 x; p lowest degree first."""
    return reduce(lambda acc, c: acc * x + c, reversed(p), 0 * x)


def as_fractions(q):
    """gegenbauer's (numerator, denominator) pairs as Fractions."""
    return tuple(Fraction(a, b) for a, b in q)


def reference_gegenbauer(n, k):
    """Q_k in reduced Fractions, by the same DLMF 18.5.10 ratios as
    gegenbauer but in Fraction arithmetic."""
    coeffs = [Fraction(0)] * (k + 1)
    c = Fraction(1)
    for i in range(1, k):
        c = c * (n - 2 + 2 * i) / (n - 2 + i)
    coeffs[k] = c
    for m in range(k // 2):
        c = c * -((k - 2 * m) * (k - 2 * m - 1)) / (2 * (m + 1) * (2 * k - 2 * m + n - 4))
        coeffs[k - 2 * m - 2] = c
    return tuple(coeffs)


def numerators(p):
    """The integer numerators of p over the common denominator of its
    coefficients, a positive multiple of p."""
    den = lcm(*(Fraction(c).denominator for c in p))
    return tuple(int(c * den) for c in p)


def test_gegenbauer_frozen_coefficients():
    assert gegenbauer(10, 3) == ((0, 1), (-1, 3), (0, 1), (4, 3))
    assert as_fractions(gegenbauer(10, 3)) == (0, Fraction(-1, 3), 0, Fraction(4, 3))
    assert as_fractions(gegenbauer(5, 4)) == \
        (Fraction(1, 8), 0, Fraction(-7, 4), 0, Fraction(21, 8))
    assert as_fractions(gegenbauer(4, 0)) == (1,)
    assert as_fractions(gegenbauer(7, 1)) == (0, 1)


def test_gegenbauer_normalization_and_parity():
    for n in range(3, 13):
        for k in range(0, 9):
            q = as_fractions(gegenbauer(n, k))
            assert len(q) == k + 1
            assert horner(q, Fraction(1)) == 1
            t = Fraction(3, 7)
            assert horner(q, -t) == (-1) ** k * horner(q, t)


def test_gegenbauer_matches_mpmath():
    mp.dps = 30
    rng = random.Random(2718)
    for n in range(3, 12):
        lam = mpf(n - 2) / 2
        for k in range(1, 7):
            norm = mp.gegenbauer(k, lam, mpf(1))
            q = as_fractions(gegenbauer(n, k))
            for _ in range(3):
                t = Fraction(rng.randint(-99, 99), 100)
                want = mp.gegenbauer(k, lam, mpf(t.numerator) / t.denominator) / norm
                got = horner(q, t)
                assert abs(mpf(got.numerator) / got.denominator - want) < mpf(10) ** -20


def test_adjacent_poly_frozen_coefficients():
    # (-1/16, 1/8, 15/16) and (-1/14, 0, 15/14), made primitive
    assert adjacent_poly(13, 2, "10") == (-1, 2, 15)
    assert adjacent_poly(13, 2, "11") == (-1, 0, 15)
    with pytest.raises(ValueError):
        adjacent_poly(13, 2, "01")


def reference_adjacent(qs, n, k, kind):
    """Q_k^{kind} in Fractions from the ladder qs, by the defining
    quotient (n-1)(Q_k - Q_{k+j}) / ((2k+n-2+j)(1 - t^j)), with the
    division by 1 - t^j done as a long division from the top."""
    j = 1 if kind == "10" else 2
    p = [Fraction(0)] * (k + j + 1)
    for i, c in enumerate(qs[k]):
        p[i] += c
    for i, c in enumerate(qs[k + j]):
        p[i] -= c
    q = [Fraction(0)] * (k + j + 1)
    for i in range(k + j, j - 1, -1):
        q[i - j] = q[i] - p[i]
    assert q[:j] == p[:j] and not any(q[k + 1:])
    return [Fraction(n - 1, 2 * k + n - 2 + j) * c for c in q[:k + 1]]


def test_adjacent_poly_normalization():
    # the dimension-(n + 2) identities against the defining quotient, up to
    # 20-digit dimensions at small k
    cases = [(n, 25) for n in range(3, 41)]
    cases += [(n, 7) for n in (10 ** 6 + 1, 10 ** 19 + 7, 10 ** 20 - 1)]
    for n, top in cases:
        qs = three_term_ladder(n, top + 1)
        for kind in ("10", "11"):
            for k in range(1 if kind == "10" else 0, top):
                got = adjacent_poly(n, k, kind)
                want = reference_adjacent(qs, n, k, kind)
                assert horner(want, Fraction(1)) == 1
                assert all(isinstance(c, int) for c in got)
                assert len(got) == k + 1 and got[-1] > 0
                assert gcd(*got) == 1
                scale = got[-1] / want[-1]
                assert scale > 0
                assert [scale * c for c in want] == list(got), (n, k, kind)


def mp_value(s):
    """The rational or Q(sqrt2) s as an mpf at the working precision."""
    v = QSqrt2._coerce(s)
    return (mpf(v.a.numerator) / v.a.denominator
            + mpf(v.b.numerator) / v.b.denominator * mp.sqrt(2))


def mp_roots(p):
    return mp.polyroots([mpf(c.numerator) / c.denominator for c in reversed(p)],
                        maxsteps=200, extraprec=200)


@lru_cache(maxsize=None)
def largest_zero(n, k, kind):
    """The largest zero of adjacent_poly(n, k, kind) by mpmath's polyroots
    at 60 digits.  The roots start from the Gauss-Jacobi nodes of the
    weight (1-t)^((n-1)/2) (1+t)^((n-1)/2) (kind "11") or
    (1+t)^((n-3)/2) (kind "10"); that only saves iterations."""
    beta = mpf(n - 1 if kind == "11" else n - 3) / 2
    with mp.workdps(20):
        nodes = mp.gauss_quadrature(k, "jacobi", mpf(n - 1) / 2, beta)[0]
    with mp.workdps(60):
        coeffs = [mpf(c.numerator) / c.denominator
                  for c in reversed(adjacent_poly(n, k, kind))]
        return max(r.real for r in mp.polyroots(
            coeffs, maxsteps=200, extraprec=200, roots_init=list(nodes)))


def test_adjacent_zeros_are_real_simple_and_interlace():
    # the two premises that keep locate_interval from ever refusing
    with mp.workdps(60):
        for n in (3, 6, 11, 24):
            for k in range(1, 9):
                for kind in ("10", "11"):
                    roots = mp_roots(adjacent_poly(n, k, kind))
                    assert len(roots) == k
                    assert all(abs(r.imag) < mpf(10) ** -40 and -1 < r.real < 1
                               for r in roots), (n, k, kind)
                    real = sorted(r.real for r in roots)
                    assert all(y - x > mpf(10) ** -6
                               for x, y in zip(real, real[1:])), (n, k, kind)
                lower = largest_zero(n, k - 1, "11") if k > 1 else -1
                assert lower < largest_zero(n, k, "10") < largest_zero(n, k, "11")


def test_largest_zero_matches_mpmath():
    # a sign below and Descartes' rule above place mpmath's largest root
    # within 1e-14
    eps = Fraction(1, 10 ** 14)
    for (n, k) in ((5, 2), (9, 3), (14, 4)):
        q = as_fractions(gegenbauer(n, k))
        with mp.workdps(50):
            top = Fraction(mp.nstr(max(r.real for r in mp_roots(q)), 40))
        assert horner(q, top - eps) < 0  # and Q_k(1) = 1: a zero above
        assert poly._no_zero_above(numerators(q), top + eps)


def test_interlacing_of_largest_roots():
    # a rational strictly between the largest roots of Q_k and Q_{k+1},
    # picked in floating point, is certified exactly on both sides
    for n in (5, 10, 24):
        for k in range(1, 6):
            low = as_fractions(gegenbauer(n, k))
            high = as_fractions(gegenbauer(n, k + 1))
            with mp.workdps(30):
                lo = max(r.real for r in mp_roots(low))
                hi = max(r.real for r in mp_roots(high))
                mid = Fraction(mp.nstr((lo + hi) / 2, 25))
            assert poly._no_zero_above(numerators(low), mid)
            assert horner(high, mid) < 0


def test_no_zero_above_at_repeated_and_exact_roots():
    # (t - 1)^2 (t - 2): the double root at 1 does not hide the root at 2
    p = (-2, 5, -4, 1)
    assert [poly._no_zero_above(p, Fraction(s, 2)) for s in (1, 2, 3, 4, 5)] \
        == [False, False, False, True, True]
    # (t - 1)^2: a double largest root
    sq = (1, -2, 1)
    assert [poly._no_zero_above(sq, Fraction(s, 2)) for s in (1, 2, 3)] \
        == [False, True, True]
    # t^2 + 2t - 1 has its largest root exactly at s0 = sqrt2 - 1
    r = (-1, 2, 1)
    eps = Fraction(1, 10 ** 12)
    assert poly._no_zero_above(r, COS_REFERENCE)
    assert not poly._no_zero_above(r, COS_REFERENCE - eps)
    assert poly._no_zero_above(r, COS_REFERENCE + eps)
    assert not poly._no_zero_above(r, Fraction(-3))


def test_no_zero_above_is_sound_against_mpmath_roots():
    # seeded integer polynomials at rational and Q(sqrt2) points 1e-3 or
    # more away from the real part of every root: with a real root above s
    # the rule must prove nothing, and with every root's real part below s
    # (a Hurwitz-stable shift, whose coefficients share one sign) it must
    # prove it
    rng = random.Random(1201)
    checked = {True: 0, False: 0}
    while min(checked.values()) < 60:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        if coeffs[-1] == 0:
            continue
        s = Fraction(rng.randint(-500, 500), 100)
        if rng.random() < 0.5:
            s = QSqrt2(s, Fraction(rng.randint(-3, 3), 2))
        with mp.workdps(30):
            roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200,
                                 extraprec=60)
            sv = mp_value(s)
            if any(abs(sv - r.real) < 1e-3 for r in roots):
                continue
            above = any(abs(r.imag) < 1e-12 and r.real > sv for r in roots)
            stable = all(r.real < sv for r in roots)
        if not above and not stable:
            continue
        assert poly._no_zero_above(tuple(coeffs), s) is stable, (coeffs, s)
        checked[stable] += 1


def test_adjacent_largest_zero_interval():
    # the largest zero of Q_3^{1,0} for n = 10 sits at about 0.41166,
    # just below s0
    p = adjacent_poly(10, 3, "10")
    assert horner(p, Fraction(41, 100)) < 0
    assert poly._no_zero_above(p, Fraction(42, 100))


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


def three_term_ladder(n, last):
    """Q_0, ..., Q_last as Fraction coefficient lists, by the recurrence
    Q_{j+1} = ((2j+n-2) t Q_j - j Q_{j-1}) / (j+n-2)."""
    qs = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for j in range(1, last):
        nxt = [Fraction(0)] + [(2 * j + n - 2) * c for c in qs[j]]
        for i, c in enumerate(qs[j - 1]):
            nxt[i] -= j * c
        qs.append([c / (j + n - 2) for c in nxt])
    return qs


def test_gegenbauer_matches_three_term_recurrence():
    for n in (2, 3, 4, 7, 24, 119):
        assert [as_fractions(gegenbauer(n, k)) for k in range(41)] == \
            [tuple(q) for q in three_term_ladder(n, 40)]


def test_gegenbauer_cold_call_needs_no_recursion():
    gegenbauer.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        q = gegenbauer(3, 600)
    finally:
        sys.setrecursionlimit(limit)
    assert len(q) == 601 and horner(as_fractions(q), Fraction(1)) == 1


def test_gegenbauer_values_match_polynomials():
    # the integer triples (x, y, w) give Q_j(s) = (x + y*sqrt2)/w
    for n in (3, 8, 24):
        for s in (Fraction(-2, 3), Fraction(0), Fraction(5, 7), COS_REFERENCE):
            triples = list(islice(poly._scaled_gegenbauer_values(n, s), 13))
            assert all(w > 0 for _, _, w in triples)
            got = [QSqrt2(Fraction(x, w), Fraction(y, w)) for x, y, w in triples]
            assert got == [horner(as_fractions(gegenbauer(n, j)), QSqrt2._coerce(s))
                           for j in range(13)]


def test_gegenbauer_pairs_match_fractions_up_to_the_cell_cap():
    # the integer build is the Fraction build, pair for pair, in lowest
    # terms; the adjacent polynomials at large k are the primitive
    # multiples of the reference's (Q_k - Q_{k+j}) / (1 - t^j)
    start = time.perf_counter()
    for n in (2, 3, 24, 119):
        for k in [*range(41), 300, LOCATE_CELL_CAP]:
            q = gegenbauer(n, k)
            assert all(type(a) is int and type(b) is int and b > 0 and gcd(a, b) == 1
                       for a, b in q), (n, k)
            assert q == tuple((c.numerator, c.denominator)
                              for c in reference_gegenbauer(n, k)), (n, k)
    for n in (3, 118):
        for k in (300, LOCATE_CELL_CAP):
            qs = {i: reference_gegenbauer(n, i) for i in (k, k + 1, k + 2)}
            for kind in ("10", "11"):
                want = numerators(reference_adjacent(qs, n, k, kind))
                g = gcd(*want)
                assert adjacent_poly(n, k, kind) == tuple(c // g for c in want)
    assert time.perf_counter() - start < 2


# ── locate_interval against mpmath's zeros ─────────────────────────


def at_or_above_largest_zero(n, k, kind, s):
    """Whether s is at or above mpmath's largest zero of Q_k^{kind}, with
    t_0^{1,1} = -1.  Within 1e-30 of the zero, s must be an exact zero,
    and it then counts as at or above it."""
    if k == 0:
        return True
    with mp.workdps(60):
        gap = mp_value(s) - largest_zero(n, k, kind)
        if abs(gap) < mpf(10) ** -30:
            assert horner(adjacent_poly(n, k, kind), QSqrt2._coerce(s)) == 0
            return True
        return gap > 0


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


def test_locate_interval_matches_mpmath_zeros():
    # the largest zeros increase with k (the interlacing premise), so the
    # cells partition [-1, 1), and s lies in (k, branch) exactly when
    # t_{k-1}^{1,1} <= s < t_k^{1,1} and, on branch A only, s < t_k^{1,0}
    for n, s in equivalence_points():
        k, branch = locate_interval(n, s)
        assert at_or_above_largest_zero(n, k - 1, "11", s), (n, s)
        assert not at_or_above_largest_zero(n, k, "11", s), (n, s)
        assert at_or_above_largest_zero(n, k, "10", s) == (branch == "B"), (n, s)


def test_locate_interval_refuses_an_uncertified_cell(monkeypatch):
    points = [(n, s) for n, s in equivalence_points()[::4] if s != -1]
    cells = [locate_interval(n, s) for n, s in points]
    assert any(cell != (1, "A") for cell in cells)
    # Descartes' rule proving nothing refuses every cell with an end to
    # certify by the rule; (1, "A") has none
    monkeypatch.setattr(poly, "_no_zero_above", lambda p, s: False)
    for (n, s), cell in zip(points, cells):
        if cell == (1, "A"):
            assert locate_interval(n, s) == cell
        else:
            with pytest.raises(CellCertificateError):
                locate_interval(n, s)
    monkeypatch.undo()
    # a scan that proposes a cell three to the right fails its lower end
    scan = poly._scan
    monkeypatch.setattr(poly, "_scan", lambda n, s: (scan(n, s)[0] + 3, False))
    for n, s in points:
        with pytest.raises(CellCertificateError):
            locate_interval(n, s)
    # one that proposes branch B in an A cell fails its branch-B end
    monkeypatch.setattr(poly, "_scan", lambda n, s: (scan(n, s)[0], False))
    assert {cell[1] for cell in cells} == {"A", "B"}
    for (n, s), cell in zip(points, cells):
        if cell[1] == "B":
            assert locate_interval(n, s) == cell
        else:
            with pytest.raises(CellCertificateError):
                locate_interval(n, s)


def difference_scan(n, s):
    """_scan by the defining quotients at dimension n: for -1 < s < 1,
    Q_k^{1,1}(s) has the sign of Q_k(s) - Q_{k+2}(s), as (2k+n)(1 - s^2) > 0,
    and Q_k^{1,0}(s) the sign of Q_k(s) - Q_{k+1}(s), as 1 - s > 0.  With
    Q_j(s) = R_j / w_j those are the signs of m R_k - R_{k+2} and
    m' R_k - R_{k+1} for the integer ratios m, m' of the scales."""
    b = QSqrt2._coerce(s).as_integers()[2]

    def sign(p, q, m):
        return QSqrt2(p[0] * m - q[0], p[1] * m - q[1]).sign()

    values = poly._scaled_gegenbauer_values(n, s)
    next(values)
    q = [next(values), next(values)]
    for k in range(1, LOCATE_CELL_CAP + 1):
        q.append(next(values))
        step = b * (k + n - 2)  # w_{k+1} / w_k
        if sign(q[0], q[2], step * b * (k + n - 1)) < 0:
            return k, sign(q[0], q[1], step) < 0
        del q[0]
    raise CellCapError(n, s)


def test_scan_matches_the_difference_scan():
    # one sign per step at dimension n + 2 proposes the cell and branch
    # that the defining quotients at dimension n give, k = 1 cells
    # (-1 < s < -1/n on branch A, -1/n <= s < 0 on B) included
    rng = random.Random(1998)
    seen = set()
    for n in range(3, 151):
        points = [COS_REFERENCE, Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                  Fraction(-1, n), Fraction(-1, 2 * n)]
        for _ in range(4):
            d = rng.randint(2, 400)
            points.append(Fraction(rng.randint(1 - d, d - 1), d))
        for s in points:
            got = poly._scan(n, s)
            assert got == difference_scan(n, s), (n, s)
            seen.add((got[0] == 1, got[1]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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
    # and so is a dimension past the cap, whatever s is
    for n in (big, 10 ** 200):
        for s in (COS_REFERENCE, Fraction(-1), Fraction(0)):
            with pytest.raises(CosineDigitCapError, match="^n has .*COSINE_DIGIT_CAP"):
                locate_interval(n, s)
    assert time.perf_counter() - start < 0.5
    # cap digits are admitted, the range check still applies after it
    assert locate_interval(3, Fraction(1, big - 1)) == locate_interval(3, 0)
    assert locate_interval(3, Fraction(1 - big, big - 1)) == (1, "A")
    assert locate_interval(big - 1, 0) == (2, "A")


def test_descartes_reports_not_proved_when_a_zero_lies_above():
    # (t - 1/2)(t + 1): a zero at 1/2
    p = (-1, 1, 2)
    assert not poly._no_zero_above(p, Fraction(0))
    assert not poly._no_zero_above(p, Fraction(49, 100))
    assert poly._no_zero_above(p, Fraction(1, 2))
    assert poly._no_zero_above(p, Fraction(3, 5))
    # t_3^{1,0} < s0 < t_4^{1,0} at n = 10
    assert poly._no_zero_above(adjacent_poly(10, 3, "10"), COS_REFERENCE)
    assert not poly._no_zero_above(adjacent_poly(10, 4, "10"), COS_REFERENCE)


def test_no_zero_above_proves_nothing_for_the_zero_polynomial():
    # the zero polynomial vanishes everywhere, so no sign pattern of its
    # (absent) coefficients proves anything; a nonzero constant has no zero
    for s in (Fraction(1, 2), Fraction(-3), COS_REFERENCE):
        assert not poly._no_zero_above((), s)
        assert poly._no_zero_above((3,), s)
        assert poly._no_zero_above((-2,), s)
