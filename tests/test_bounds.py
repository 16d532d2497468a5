"""Certified spherical-code bounds: Levenshtein ladder, Rankin cases,
the integral bracket, the closed form, and threshold sweeps.

Float cross-checks use mpmath; every verdict-bearing comparison in the
library itself is exact, and the frozen literals here pin that down.
"""

import itertools
import random
import re
import time
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf, binomial, gegenbauer as mp_gegenbauer

from redrank import bounds
from redrank.bounds import (CLOSED_FORM_REPORT_FLOOR, LEVENSHTEIN_CEILING,
                            AngleParams, DimensionCapError, IntegralBracket,
                            LevDenominatorZero, closed_form_sweep,
                            code_lemma_reports, levenshtein_bound, rankin_bound,
                            reference_params, tail_ratio_certificate,
                            threshold_value, verify_code_lemma)
from redrank.exact import COS_REFERENCE, QSqrt2, gamma_half_ratio, sqrt_enclosure
from redrank.poly import locate_interval


def test_angle_params_identities():
    p = reference_params(9)
    assert p.n == 9
    assert p.s == COS_REFERENCE
    assert p.sin_sq_alpha == QSqrt2(1) - p.s
    assert p.tan_sq_alpha * (QSqrt2(1) - p.sin_sq_alpha) == p.sin_sq_alpha
    assert p.tan_sq_alpha == QSqrt2(0, 1)    # sqrt2 at the reference cosine
    q = AngleParams.from_cos(5, Fraction(1, 2))
    assert q.tan_sq_alpha == QSqrt2(1)


def test_angle_params_validation():
    with pytest.raises(ValueError):
        AngleParams.from_cos(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        AngleParams.from_cos(5, Fraction(0))
    with pytest.raises(ValueError):
        AngleParams.from_cos(5, Fraction(-1, 3))
    with pytest.raises(ValueError):
        AngleParams.from_cos(5, Fraction(1))


def test_threshold_values():
    assert threshold_value(10, -4) == QSqrt2(38)
    assert threshold_value(3, 2) == QSqrt2(-2, 20)
    assert threshold_value(4, 2) == QSqrt2(38)
    for n in range(5, 40):
        for off in (-4, 2):
            assert threshold_value(n + 2, off) == \
                2 * threshold_value(n, off) + 2


def test_levenshtein_frozen_oracles():
    r = levenshtein_bound(10, COS_REFERENCE)
    assert r.value == QSqrt2(Fraction(354640, 1697), Fraction(85800, 1697))
    assert (r.k_used, r.branch_used) == (3, "B")
    assert r.value_decimal() == "280.482924956754010127981669144"
    r = levenshtein_bound(5, Fraction(-1, 2))
    assert r.value == QSqrt2(3)
    assert (r.k_used, r.branch_used) == (1, "A")


def test_levenshtein_kissing_corroboration():
    # classical values at s = 1/2: 93/7 in R^3 and exactly 240 in R^8
    r = levenshtein_bound(3, Fraction(1, 2))
    assert r.value == QSqrt2(Fraction(93, 7))
    r = levenshtein_bound(8, Fraction(1, 2))
    assert r.value == QSqrt2(240)


def test_levenshtein_orthogonal_and_antipodal():
    for n in range(3, 20):
        assert levenshtein_bound(n, 0).value == QSqrt2(2 * n)
    assert levenshtein_bound(5, Fraction(-1)).value == QSqrt2(2)
    assert levenshtein_bound(12, Fraction(-1)).value == QSqrt2(2)


def test_levenshtein_input_range():
    with pytest.raises(ValueError):
        levenshtein_bound(5, Fraction(1))
    with pytest.raises(ValueError):
        levenshtein_bound(5, Fraction(3, 2))
    with pytest.raises(ValueError):
        levenshtein_bound(2, Fraction(1, 2))


def test_levenshtein_defined_on_rational_grid():
    # no denominator-zero refusals at any grid point; the refusal path
    # stays reserved for genuine degeneracies
    for n in range(3, 13):
        for num in range(-9, 10):
            r = levenshtein_bound(n, Fraction(num, 10))
            assert r.branch_used in ("A", "B")
            assert r.value > QSqrt2(1)
    assert issubclass(LevDenominatorZero, ArithmeticError)


def _lev_float(n: int, s: Fraction, k: int, branch: str) -> float:
    """The two branch formulas recomputed directly in mpmath."""
    mp.dps = 40
    lam = mpf(n - 2) / 2
    sv = mpf(s.numerator) / s.denominator

    def q(kk):
        return mp_gegenbauer(kk, lam, sv) / mp_gegenbauer(kk, lam, mpf(1))

    if branch == "A":
        lead = binomial(k + n - 3, k - 1)
        return float(lead * (mpf(2 * k + n - 3) / (n - 1)
                             - (q(k - 1) - q(k)) / ((1 - sv) * q(k))))
    lead = binomial(k + n - 2, k)
    return float(lead * (mpf(2 * k + n - 1) / (n - 1)
                         - (1 + sv) * (q(k) - q(k + 1))
                         / ((1 - sv) * (q(k) + q(k + 1)))))


def test_levenshtein_matches_float_recomputation():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(3, 16)
        s = Fraction(rng.randint(-80, 85), 100)
        r = levenshtein_bound(n, s)
        want = _lev_float(n, s, r.k_used, r.branch_used)
        got = float(r.value.a) + float(r.value.b) * 2 ** 0.5
        assert got == pytest.approx(want, rel=1e-9)


def _lev_reference(n, s, k, branch):
    """The bound in QSqrt2 arithmetic: Q_j(s) by the three-term recurrence
    on field elements, then the branch formula term by term."""
    sv = QSqrt2._coerce(s)
    one = QSqrt2(1)
    q = [one, sv]
    for j in range(1, k + 1):
        q.append(((2 * j + n - 2) * sv * q[j] - j * q[j - 1]) / (j + n - 2))
    if branch == "A":
        return comb(k + n - 3, k - 1) * (
            QSqrt2(Fraction(2 * k + n - 3, n - 1))
            - (q[k - 1] - q[k]) / ((one - sv) * q[k]))
    return comb(k + n - 2, k) * (
        QSqrt2(Fraction(2 * k + n - 1, n - 1))
        - (one + sv) * (q[k] - q[k + 1]) / ((one - sv) * (q[k] + q[k + 1])))


def test_levenshtein_matches_field_arithmetic_reference():
    # the integer evaluation gives the same cell, value string and verdict
    # as the branch formula evaluated in QSqrt2 arithmetic
    rng = random.Random(1998)
    points = [(n, COS_REFERENCE) for n in range(3, 119)]
    for _ in range(400):
        d = rng.randint(1, 300)
        points.append((rng.randint(3, 60), Fraction(rng.randint(-d, d - 1), d)))
    for n, s in points:
        threshold = threshold_value(n, -4)
        r = levenshtein_bound(n, s, threshold)
        k, branch = locate_interval(n, s)
        want = _lev_reference(n, s, k, branch)
        assert (r.k_used, r.branch_used) == (k, branch), (n, s)
        assert str(r.value) == str(want), (n, s)
        assert r.holds == (threshold.sign() > 0 and want < threshold), (n, s)


def test_levenshtein_refuses_a_zero_denominator(monkeypatch):
    # Q_k(s) = 0 on branch A, Q_k(s) + Q_{k+1}(s) = 0 on branch B
    monkeypatch.setattr(bounds, "_scaled_gegenbauer_values",
                        lambda n, s: itertools.repeat((0, 0, 1)))
    for n, message in ((5, "Q_3(s) = 0 at n = 5"),
                       (10, "Q_3(s) + Q_4(s) = 0 at n = 10")):
        with pytest.raises(LevDenominatorZero, match=re.escape(message)):
            levenshtein_bound(n, COS_REFERENCE)


def test_closed_form_frozen():
    r = closed_form_sweep(10, 10, None)[0]
    assert (r.threshold, r.holds) == (None, None)
    assert r.value == QSqrt2(Fraction(2871, 4), Fraction(4059, 8))
    assert isinstance(r.value, QSqrt2)
    assert r.value_decimal() == "1435.28660620904910038575681645"
    # even-dimension identity: (n^2-1) ((2+sqrt2)/2)^(n/2)
    grow = QSqrt2(1, Fraction(1, 2))
    assert r.value == QSqrt2(99) * grow ** 5


def test_closed_form_odd_dimension_certified():
    r = closed_form_sweep(9, 9, None)[0]
    assert not isinstance(r.value, QSqrt2)
    # the certified upper value must cover the true square root
    growth = QSqrt2(1) / (QSqrt2(1) - COS_REFERENCE)
    true_sq = QSqrt2((9 * 9 - 1) ** 2) * growth ** 9
    assert r.value * r.value >= true_sq


def test_closed_form_report_floor():
    assert CLOSED_FORM_REPORT_FLOOR == 26
    r = closed_form_sweep(26, 26, None)[0]
    assert r.value > QSqrt2(0)
    assert r.notes == ()
    below = closed_form_sweep(6, 25, -4)
    assert all(b.notes == ("below the conservative reporting floor n >= 26",)
               for b in below)
    with pytest.raises(ValueError):
        closed_form_sweep(5, 10, None)


def test_closed_form_crossover():
    lo, hi = closed_form_sweep(117, 118, -4)
    assert lo.holds is False
    assert hi.holds is True


def test_verify_code_lemma_contract():
    # the ladder still wins at 117 where the closed form already fails
    reports = verify_code_lemma(117, 118, -4)
    assert [r.holds for r in reports] == [True, True]
    assert all(r.method == "levenshtein" for r in reports)
    with pytest.raises(ValueError):
        verify_code_lemma(2, 10, -4)
    with pytest.raises(ValueError):
        verify_code_lemma(3, 10, 0)
    with pytest.raises(DimensionCapError, match="LEMMA_DIMENSION_CAP"):
        verify_code_lemma(3, 10001, -4)


def test_verify_code_lemma_switches_method_above_ceiling():
    assert LEVENSHTEIN_CEILING == 118
    reports = verify_code_lemma(117, 120, -4)
    methods = [r.method for r in reports]
    assert methods[:2] == ["levenshtein", "levenshtein"]
    assert all(m == "closed_form" for m in methods[2:])
    assert all(r.holds for r in reports)


def test_code_lemma_reports_check_arguments_before_any_report(monkeypatch):
    made = []
    monkeypatch.setattr(bounds, "levenshtein_bound",
                        lambda n, s, threshold: made.append(n))
    monkeypatch.setattr(bounds, "closed_form_sweep",
                        lambda lo, hi, offset: made.append((lo, hi)) or [])
    for args, error in (((47, 10001, -4), DimensionCapError),
                        ((2, 10, -4), ValueError), ((3, 10, 0), ValueError),
                        ((10, 9, 2), ValueError)):
        with pytest.raises(error):
            code_lemma_reports(*args)
    sweep = code_lemma_reports(116, 700, -4)
    assert made == []
    next(sweep)
    assert made == [116]
    list(sweep)
    # then one closed-form window of 256 dimensions at a time
    assert made == [116, 117, 118, (119, 374), (375, 630), (631, 700)]


def test_code_lemma_windows_match_one_closed_form_sweep():
    assert list(code_lemma_reports(119, 1000, -4)) == closed_form_sweep(119, 1000, -4)


def test_closed_form_sweep_small_window():
    reports = closed_form_sweep(118, 200, -4)
    assert len(reports) == 83
    assert all(r.holds for r in reports)
    assert reports[0].n == 118 and reports[-1].n == 200


def test_closed_form_sweep_from_any_start_matches_one_sweep():
    # each start is powered up directly; it must land where one sweep
    # from n = 6 arrives one dimension at a time, at the value
    # (n^2 - 1) (1 + 1/sqrt2)^(n/2) computed here in Q(sqrt2)
    grow = QSqrt2(1, Fraction(1, 2))
    whole = closed_form_sweep(6, 2004, -4)
    for n_lo in (6, 7, 118, 119, 2000, 2001):
        window = whole[n_lo - 6:n_lo - 2]
        assert closed_form_sweep(n_lo, n_lo + 3, -4) == window
        for r in window:
            n = r.n
            if n % 2 == 0:
                assert r.value == (n * n - 1) * grow ** (n // 2)
            else:
                square = (QSqrt2((n * n - 1) ** 2) * grow ** n).as_integers()
                assert r.value == sqrt_enclosure(*square, 40)[1]


def test_closed_form_and_gamma_ratio_are_quick_at_the_rankin_cap():
    # 0.06 s and 0.16-0.21 s on a 2-vCPU Xeon (Python 3.11.7), against
    # 1.66 s and 1.38 s by the n-step loops and factorial quotients; the
    # best of 3 keeps one scheduling stall from failing the test
    for work in (lambda: closed_form_sweep(100_000, 100_000, None),
                 lambda: gamma_half_ratio(100_000)):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        assert min(times) < 0.5


def test_tail_ratio_sign_matches_qsqrt2():
    growth = QSqrt2(1, Fraction(1, 2))  # 1 + 1/sqrt2
    for n in range(6, 10_001):
        r = Fraction((n + 1) ** 2 - 1, n * n - 1)
        assert bounds._ratio_ok(n) == (QSqrt2(r * r) * growth < 2)
    assert [n for n in range(6, 40) if not bounds._ratio_ok(n)] == list(range(6, 25))


def test_tail_certificate():
    cert = tail_ratio_certificate()
    assert cert.window == (118, 10000)
    assert cert.offset == -4
    assert cert.boundary_holds
    assert cert.ratio_ok_at_start
    assert cert.ratio_ok_all_window
    assert cert.ratio_decreasing_symbolic
    assert cert.threshold_floor_ok
    assert cert.extends_beyond_window


def test_rankin_exact_cases():
    r = rankin_bound(8, "half_pi")
    assert r.value == Fraction(16) and isinstance(r.value, QSqrt2)
    r = rankin_bound(8, "obtuse")
    assert r.value == Fraction(9) and isinstance(r.value, QSqrt2)
    with pytest.raises(ValueError):
        rankin_bound(8, "reflex")
    # the cap binds the acute case only
    assert rankin_bound(10 ** 6, "obtuse").value == Fraction(10 ** 6 + 1)
    with pytest.raises(DimensionCapError, match="RANKIN_DIMENSION_CAP"):
        rankin_bound(100_001, "acute")


def test_rankin_acute_frozen():
    r = rankin_bound(8, "acute")
    assert not isinstance(r.value, QSqrt2)
    assert r.value_decimal() == "210.596274625157336928278899616"
    r10 = rankin_bound(10, "acute")
    assert r10.value_decimal() == "450.784091055418816849100529828"


def test_rankin_acute_is_true_upper():
    # certified value covers a direct 40-digit float evaluation
    mp.dps = 40
    for n in (8, 11, 14):
        r = rankin_bound(n, "acute")
        s = mp.sqrt(2) - 1
        alpha = mp.acos(mp.sqrt(s))
        I = mp.quad(lambda t: mp.sin(t) ** (n - 2) * (mp.cos(t) - mp.cos(alpha)),
                    [0, alpha])
        direct = mp.sqrt(mp.pi) * mp.gamma(mpf(n - 1) / 2) * mp.sin(alpha) * \
            mp.tan(alpha) / (2 * mp.gamma(mpf(n) / 2) * I)
        assert float(mpf(r.value_decimal())) >= float(direct) * (1 - 1e-12)


def test_integral_bracket_ratio_and_guard():
    for n in range(6, 41):
        br = IntegralBracket(reference_params(n))
        assert br.hi_sq < br.lo_sq * 4    # hi / lo < 2
        assert br.lo_sq < br.hi_sq
    with pytest.raises(ValueError):
        IntegralBracket(reference_params(5))


def test_integral_bracket_quadrature_containment():
    mp.dps = 40
    for n in (6, 7, 10, 15, 40):
        br = IntegralBracket(reference_params(n))
        alpha = mp.acos(mp.sqrt(mp.sqrt(2) - 1))
        I = mp.quad(lambda t: mp.sin(t) ** (n - 2) * (mp.cos(t) - mp.cos(alpha)),
                    [0, alpha])
        x = Fraction(str(mp.nstr(I, 30)))
        assert br.contains(x)
    assert not br.contains(Fraction(1))
    assert not br.contains(Fraction(-1))


def test_integral_bracket_enclosures_nest():
    br = IntegralBracket(reference_params(9))
    lo_lo, lo_hi = sqrt_enclosure(*br.lo_sq.as_integers(), 30)
    hi_lo, hi_hi = sqrt_enclosure(*br.hi_sq.as_integers(), 30)
    assert lo_lo <= lo_hi <= hi_lo <= hi_hi
    coarse_lo, coarse_hi = sqrt_enclosure(*br.lo_sq.as_integers(), 10)
    assert coarse_lo <= lo_lo and lo_hi <= coarse_hi


def test_bound_report_json_shape():
    r = levenshtein_bound(10, COS_REFERENCE, threshold_value(10, 2))
    blob = r.to_json()
    assert list(blob) == ["n", "method", "value_decimal", "threshold_decimal",
                          "holds", "k", "branch", "value_exact",
                          "threshold_exact"]
    assert blob["n"] == 10 and blob["holds"] is True
    assert blob["value_exact"] == "354640/1697 + 85800/1697*sqrt2"
    assert blob["threshold_exact"] == str(threshold_value(10, 2))
    blob = rankin_bound(8, "obtuse").to_json()
    assert "threshold_exact" not in blob and blob["threshold_decimal"] is None
