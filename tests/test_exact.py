"""Exact arithmetic in Q(sqrt2): field laws, ordering, directed
decimal rendering, enclosures, and the half-integer gamma ratios.

Random cases are seeded and cross-checked against mpmath at 100
digits, so a sign or rounding bug cannot hide behind float noise.  The
integer decimal renderer is also checked against a reference renderer
written here in Fraction arithmetic.
"""

import itertools
import random
from decimal import Context, Decimal
from fractions import Fraction
from math import factorial, isqrt
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from mpmath import mp, mpf, sqrt as mpsqrt

from redrank import exact
from redrank.exact import (COS_REFERENCE, PI_HI, QSqrt2, _floor_scaled,
                           _log2_lower, decimal_str, gamma_half_ratio,
                           sign_sqrt2, sqrt_enclosure)


def _to_mpf(x, dps=100):
    mp.dps = dps
    a = mpf(x.a.numerator) / mpf(x.a.denominator)
    b = mpf(x.b.numerator) / mpf(x.b.denominator)
    return a + b * mpsqrt(2)


def _random_values(count, seed, span=999, denom=99):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = Fraction(rng.randint(-span, span), rng.randint(1, denom))
        b = Fraction(rng.randint(-span, span), rng.randint(1, denom))
        out.append(QSqrt2(a, b))
    return out


def test_construction_and_accessors():
    x = QSqrt2(Fraction(1, 2), 3)
    assert x.a == Fraction(1, 2) and x.b == 3
    assert x.as_integers() == (1, 6, 2)
    assert QSqrt2(Fraction(7, 3)) == QSqrt2(Fraction(7, 3), 0)
    assert QSqrt2(Fraction(7, 3)).as_integers() == (7, 0, 3)
    assert QSqrt2(Fraction(1, 4), Fraction(-5, 6)).as_integers() == (3, -10, 12)
    assert QSqrt2(0, 1).as_integers() == (0, 1, 1)
    with pytest.raises(TypeError):
        QSqrt2(0.5)


def test_field_laws_on_seeded_randoms():
    vals = _random_values(60, seed=20240301)
    for i in range(0, 57, 3):
        x, y, z = vals[i], vals[i + 1], vals[i + 2]
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (QSqrt2(0) - x) == QSqrt2(0)
        if x != QSqrt2(0):
            assert x * (QSqrt2(1) / x) == QSqrt2(1)
            assert (y / x) * x == y
    assert QSqrt2(0, 1) * QSqrt2(0, 1) == QSqrt2(2)


def test_mixed_operand_coercion():
    x = QSqrt2(1, 1)
    assert x + 1 == QSqrt2(2, 1)
    assert 1 + x == QSqrt2(2, 1)
    assert QSqrt2(2) - x == QSqrt2(1, -1)
    assert Fraction(1, 2) * x == QSqrt2(Fraction(1, 2), Fraction(1, 2))
    assert QSqrt2(1) / QSqrt2(0, 1) == QSqrt2(0, Fraction(1, 2))
    with pytest.raises(TypeError):
        x + 0.5


def test_conjugate_and_norm():
    for x in _random_values(40, seed=7):
        norm = x * QSqrt2(x.a, -x.b)
        assert norm.b == 0
        assert norm == QSqrt2(x.a * x.a - 2 * x.b * x.b)


def test_power():
    s = QSqrt2(2, 1)
    assert s ** 0 == QSqrt2(1)
    assert s ** 5 == s * s * s * s * s
    with pytest.raises(TypeError):
        s ** -2


def test_sign_matches_mpmath_on_seeded_randoms():
    for x in _random_values(1000, seed=991):
        approx = _to_mpf(x)
        expected = 0 if x.a == 0 and x.b == 0 else (1 if approx > 0 else -1)
        assert x.sign() == expected


def test_sign_on_pell_convergents():
    # p/q -> sqrt2 convergents satisfy p^2 - 2q^2 = +-1, so p/q - sqrt2
    # alternates sign while shrinking below any float's resolution.
    p, q = 1, 1
    for _ in range(60):
        p, q = p + 2 * q, p + q
        x = QSqrt2(Fraction(p, q), -1)
        assert x.sign() == (1 if p * p - 2 * q * q == 1 else -1)


@settings(max_examples=500, deadline=None)
@given(x=st.integers(-2 ** 200, 2 ** 200), y=st.integers(-2 ** 200, 2 ** 200),
       shift=st.integers(0, 3))
def test_sign_sqrt2_matches_squares(x, y, shift):
    # shift moves the bit lengths of x and y apart by up to three, across
    # the point where bit lengths alone decide
    y >>= shift
    expected = (x > 0) - (x < 0) if y == 0 else (
        (1 if y > 0 else -1) if x == 0 or (x > 0) == (y > 0)
        else (1 if (x * x > 2 * y * y) == (x > 0) else -1))
    assert sign_sqrt2(x, y) == expected
    assert sign_sqrt2(-x, -y) == -expected
    assert QSqrt2(x, y).sign() == expected


def test_ordering_total_and_consistent():
    vals = _random_values(200, seed=35)
    for i in range(0, 200, 2):
        x, y = vals[i], vals[i + 1]
        assert (x < y) + (y < x) + (x == y) == 1
        if x < y:
            assert QSqrt2(0) - y < QSqrt2(0) - x
            assert x + 1 < y + 1


def test_floor():
    # the floor routine behind decimal_str and sqrt_enclosure, at k = 0
    def floor(x):
        return _floor_scaled(*x.as_integers(), 0)

    assert floor(QSqrt2(0, 1)) == 1
    assert floor(QSqrt2(0, -1)) == -2
    assert floor(QSqrt2(3)) == 3
    assert floor(QSqrt2(Fraction(-7, 2))) == -4
    mp.dps = 100
    for x in _random_values(300, seed=4242):
        assert floor(x) == int(mp.floor(_to_mpf(x)))


def test_str_rendering():
    assert str(QSqrt2(Fraction(3, 4))) == "3/4"
    assert str(QSqrt2(5)) == "5"
    assert str(QSqrt2(Fraction(1, 2), Fraction(-2, 3))) == "1/2 - 2/3*sqrt2"
    assert str(QSqrt2(0, 1)) == "1*sqrt2"


def test_cos_reference_value():
    assert COS_REFERENCE == QSqrt2(-1, 1)
    assert (COS_REFERENCE + 1) ** 2 == QSqrt2(2)
    assert decimal_str(COS_REFERENCE, 30, "down") == \
        "0.414213562373095048801688724209"
    assert decimal_str(COS_REFERENCE, 30, "up") == \
        "0.414213562373095048801688724210"


def test_decimal_str_directed_rounding():
    # digits counts significant digits; exact decimals render the same
    # in both directions
    assert decimal_str(Fraction(1, 8), 3, "down") == "0.125"
    assert decimal_str(Fraction(1, 8), 3, "up") == "0.125"
    assert decimal_str(7, 2, "down") == "7.0"
    assert decimal_str(Fraction(1, 700), 3, "down") == "0.00142"
    assert decimal_str(Fraction(1, 700), 3, "up") == "0.00143"
    assert decimal_str(123456, 4, "down") == "123400.0"
    assert decimal_str(123456, 4, "up") == "123500.0"
    # inexact values differ by one unit in the last place
    lo = decimal_str(Fraction(1, 3), 5, "down")
    hi = decimal_str(Fraction(1, 3), 5, "up")
    assert lo == "0.33333" and hi == "0.33334"
    # down means toward -infinity, up toward +infinity
    assert decimal_str(QSqrt2(0, -1), 4, "down") == "-1.415"
    assert decimal_str(QSqrt2(0, -1), 4, "up") == "-1.414"
    with pytest.raises(ValueError):
        decimal_str(Fraction(1, 3), 5, "nearest")


def test_decimal_str_brackets_true_value():
    mp.dps = 100
    for x in _random_values(100, seed=606):
        lo = mpf(decimal_str(x, 25, "down"))
        hi = mpf(decimal_str(x, 25, "up"))
        v = _to_mpf(x)
        assert lo <= v <= hi
        assert hi - lo <= max(abs(v), mpf(1)) * mpf(10) ** -23


def test_pi_bounds():
    mp.dps = 80
    gap = mpf(PI_HI.numerator) / mpf(PI_HI.denominator) - mp.pi
    assert 0 < gap < mpf(10) ** -49


def test_decimal_str_encloses_quadratic_irrational():
    x = QSqrt2(Fraction(1, 3), Fraction(2, 7))
    lo = mpf(decimal_str(x, 30, "down"))
    hi = mpf(decimal_str(x, 30, "up"))
    mp.dps = 60
    v = _to_mpf(x, 60)
    assert lo < v < hi
    assert hi - lo <= mpf(2) / mpf(10) ** 30


def test_sqrt_enclosure():
    lo, hi = sqrt_enclosure(2, 0, 1, 30)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(2, 10 ** 30)
    # perfect squares pinch to the exact root
    lo, hi = sqrt_enclosure(9, 0, 4, 10)
    assert lo == hi == Fraction(3, 2)
    lo, hi = sqrt_enclosure(3, 2, 1, 25)   # 3 + 2*sqrt2 = (1+sqrt2)^2
    v = QSqrt2(1, 1)
    assert QSqrt2(lo) <= v <= QSqrt2(hi)
    assert sqrt_enclosure(0, 0, 7) == (0, 0)
    with pytest.raises(ValueError):
        sqrt_enclosure(-1, 0, 1)
    with pytest.raises(ValueError):
        sqrt_enclosure(1, -1, 1)   # 1 - sqrt2 < 0


def test_sqrt_enclosure_ignores_a_common_factor():
    # closed_form_sweep passes (c a, c b, 2^n) unreduced, so scaling all
    # three integers by k >= 2 must not move either end, exact roots
    # included
    rng = random.Random(5150)
    exact = 0
    for _ in range(300):
        if rng.random() < 0.25:
            # a perfect square (p/q)^2, so lo == hi at digits 10
            p, q = rng.randint(1, 999), rng.choice([1, 2, 4, 5, 8, 10, 16, 25])
            a, b, d = p * p, 0, q * q
        else:
            b = rng.randint(-10 ** 6, 10 ** 6)
            # smallest a with a + b*sqrt2 >= 0, plus a margin
            a = isqrt(2 * b * b) + 1 if b < 0 else 0
            a += rng.randint(0, 10 ** 6)
            d = rng.randint(1, 10 ** 6)
        want = sqrt_enclosure(a, b, d, 10)
        exact += want[0] == want[1]
        for k in (2, 3, rng.randint(4, 10 ** 9)):
            assert sqrt_enclosure(k * a, k * b, k * d, 10) == want, (a, b, d, k)
    assert exact >= 40


def test_gamma_half_ratio_oracles():
    assert gamma_half_ratio(3) == (1, 0)
    assert gamma_half_ratio(4) == (Fraction(1, 4), 1)
    assert gamma_half_ratio(5) == (Fraction(2, 3), 0)
    assert gamma_half_ratio(8) == (Fraction(5, 32), 1)
    assert gamma_half_ratio(9) == (Fraction(16, 35), 0)


def test_gamma_half_ratio_matches_factorial_quotients():
    # Gamma(k) = (k-1)! and Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
    # give q = 4^m m! (m-1)! / (2 (2m)!) at n = 2m + 1 and
    # q = (2m-2)! / (2 4^(m-1) (m-1)!^2) at n = 2m, compared crosswise
    for n in (*range(2, 401), 100_001):
        m = n // 2
        if n % 2:
            num, den = 4 ** m * factorial(m) * factorial(m - 1), 2 * factorial(2 * m)
        else:
            num, den = factorial(2 * m - 2), 2 * 4 ** (m - 1) * factorial(m - 1) ** 2
        q, e = gamma_half_ratio(n)
        assert e == 1 - n % 2
        assert q.numerator * den == q.denominator * num


def test_gamma_half_ratio_matches_mpmath():
    # gamma_half_ratio(n) = sqrt(pi) Gamma((n-1)/2) / (2 Gamma(n/2))
    mp.dps = 60
    for n in range(3, 40):
        q, e = gamma_half_ratio(n)
        value = mpf(q.numerator) / q.denominator * mp.pi ** e
        truth = mp.sqrt(mp.pi) * mp.gamma(mpf(n - 1) / 2) / \
            (2 * mp.gamma(mpf(n) / 2))
        # mpmath's own roundoff at 60 dps
        assert abs(value - truth) <= truth * mpf(10) ** -50


def test_str_renders_integers_beyond_the_conversion_limit():
    # the interpreter refuses str() of integers over 4,300 digits by
    # default; exact renderings must not depend on that limit
    big = 10 ** 6000 + 10 ** 3000
    text = "1" + "0" * 2999 + "1" + "0" * 3000
    assert str(QSqrt2(big)) == text
    assert str(QSqrt2(Fraction(-big, 7))) == "-" + text + "/7"
    sevens = 7 * (10 ** 9001 - 1) // 9
    assert str(QSqrt2(1, Fraction(1, sevens))) == \
        "1 + 1/" + "7" * 9001 + "*sqrt2"


def test_repr_renders_parts_beyond_the_conversion_limit():
    # small values keep Fraction's own repr; large parts no longer raise
    assert repr(QSqrt2(Fraction(1, 2), 3)) == "QSqrt2(Fraction(1, 2), Fraction(3, 1))"
    assert repr(QSqrt2(Fraction(-5, 7), Fraction(-1, 2))) == \
        f"QSqrt2({Fraction(-5, 7)!r}, {Fraction(-1, 2)!r})"
    text = "1" + "0" * 5000
    assert repr(QSqrt2(10 ** 5000)) == f"QSqrt2(Fraction({text}, 1), Fraction(0, 1))"
    assert repr(QSqrt2(0, Fraction(-1, 10 ** 5000))) == \
        f"QSqrt2(Fraction(0, 1), Fraction(-1, {text}))"


# ── the integer renderer against the Fraction algorithm it replaced ──


def _ref_floor_int_sqrt2(b):
    if b >= 0:
        return isqrt(2 * b * b)
    return -isqrt(2 * b * b) - 1


def _ref_floor(a, b):
    """floor(a + b*sqrt2) for Fractions a, b."""
    den = a.denominator * b.denominator
    return (a.numerator * b.denominator
            + _ref_floor_int_sqrt2(b.numerator * a.denominator)) // den


def _ref_sign(a, b):
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    d = a * a - 2 * b * b
    return (d > 0) - (d < 0) if a > 0 else (d < 0) - (d > 0)


def reference_decimal_str(x, digits, rounding):
    """decimal_str as it was computed in Fraction arithmetic: the
    exponent by repeated multiplication by 10, digits by one floor."""
    a, b = x.a, x.b
    s = _ref_sign(a, b)
    if s == 0:
        return "0." + "0" * (digits - 1)
    if s < 0:
        a, b = -a, -b
    ceil_mag = (rounding == "up") != (s < 0)
    f = _ref_floor(a, b)
    if f >= 1:
        # the digit count of f, past the interpreter's limit on str(int)
        e10 = Decimal(f).adjusted()
    else:
        e10 = 0
        sa, sb = a, b
        while _ref_floor(sa, sb) < 1:
            e10 -= 1
            sa, sb = sa * 10, sb * 10
    k = digits - 1 - e10
    if k >= 0:
        m = _ref_floor(a * 10 ** k, b * 10 ** k)
        exact = b == 0 and (a * 10 ** k).denominator == 1
    else:
        m = _ref_floor(a / 10 ** -k, b / 10 ** -k)
        exact = (b == 0 and a.denominator == 1
                 and a.numerator % 10 ** -k == 0)
    if ceil_mag and not exact:
        m += 1
        if m == 10 ** digits:
            m //= 10
            e10 += 1
    text = str(m)
    assert len(text) == digits
    if -5 < e10 < 0:
        body = "0." + "0" * (-e10 - 1) + text
    elif 0 <= e10 <= 32:
        if e10 >= digits - 1:
            body = text + "0" * (e10 - digits + 1) + ".0"
        else:
            body = text[:e10 + 1] + "." + text[e10 + 1:]
    else:
        body = text[0] + "." + text[1:] + f"e{e10:+d}"
    return ("-" + body) if s < 0 else body


def _scaled(x, e):
    return x * Fraction(10) ** e


_exponents = st.integers(-300, 800)
_small = st.integers(-10 ** 6, 10 ** 6)
_den = st.integers(1, 10 ** 6)

# irrational values a + b*sqrt2 with any mix of signs, cancellation
# included, scaled by 10^e
_general = st.builds(
    lambda p, q, r, t, e: QSqrt2(_scaled(Fraction(p, q), e),
                                 _scaled(Fraction(r, t), e)),
    _small, _den, _small, _den, _exponents)
# exact decimals m * 10^e, which render the same in both directions
_decimals = st.builds(lambda m, e: QSqrt2(_scaled(Fraction(m), e)),
                      st.integers(-10 ** 40, 10 ** 40), _exponents)
# runs of nines, exact and just off, where rounding up carries into a
# new digit
_nines = st.builds(
    lambda j, e, off, neg: QSqrt2(_scaled(Fraction(10 ** j - 1) + off, e)
                                  * (-1 if neg else 1)),
    st.integers(1, 45), _exponents,
    st.sampled_from([Fraction(0), Fraction(1, 10 ** 50),
                     Fraction(-1, 10 ** 50), Fraction(1, 3)]),
    st.booleans())
# (1 + sqrt2)^k and its conjugate: a near-integer and a tiny value with
# heavy cancellation between the parts
_pell = st.builds(lambda k, e, conj: _scaled_qsqrt2(
                      QSqrt2(1, -1 if conj else 1) ** k, e),
                  st.integers(1, 400), st.integers(-300, 300), st.booleans())


def _scaled_qsqrt2(x, e):
    return QSqrt2(_scaled(x.a, e), _scaled(x.b, e))


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(_general, _decimals, _nines, _pell),
       digits=st.integers(1, 40),
       rounding=st.sampled_from(["up", "down"]))
def test_decimal_str_matches_reference(x, digits, rounding):
    assert decimal_str(x, digits, rounding) == \
        reference_decimal_str(x, digits, rounding)


# Past 10^4300 e10 = lb * 0.30102 falls short of the true exponent by a
# further digit every 10^5 bits or so, which the surplus floor drops.
_far = st.integers(4400, 50000)
_far_general = st.builds(
    lambda p, q, r, t, e: QSqrt2(_scaled(Fraction(p, q), e),
                                 _scaled(Fraction(r, t), e)),
    _small, _den, _small, _den, _far)
_far_decimals = st.builds(lambda m, e: QSqrt2(_scaled(Fraction(m), e)),
                          st.integers(-10 ** 40, 10 ** 40), _far)
# (1 +- sqrt2)^k with parts of 5,000 bits or more; the conjugate, about
# 10^(-0.38278 k), is lifted near 10^e, since the reference's exponent
# search takes one floor per decade below 1
_far_pell = st.builds(
    lambda k, e, conj: _scaled_qsqrt2(QSqrt2(1, -1 if conj else 1) ** k,
                                      e + (k * 38278 // 100000 if conj else 0)),
    st.integers(3934, 8000), st.integers(-300, 300), st.booleans())


@seed(4300)
@settings(max_examples=60, deadline=None, database=None)
@given(x=st.one_of(_far_general, _far_decimals, _far_pell),
       digits=st.integers(1, 40),
       rounding=st.sampled_from(["up", "down"]))
def test_decimal_str_matches_reference_past_the_digit_limit(x, digits,
                                                            rounding):
    assert decimal_str(x, digits, rounding) == \
        reference_decimal_str(x, digits, rounding)


def test_decimal_str_drops_three_surplus_digits():
    # 2^110195 - 1, just above 10^33172, gives lb = 110192 and e10 =
    # 33169, so the one floor has three digits too many
    top = 2 ** 110195 - 1
    assert decimal_str(QSqrt2(top), 30, "up") == \
        "1.00085737202338827859266042128e+33172"
    for x, digits, rounding in ((QSqrt2(top), 30, "down"),
                                (QSqrt2(-top), 1, "down"),
                                (QSqrt2(0, Fraction(top, 2)), 40, "up")):
        assert decimal_str(x, digits, rounding) == \
            reference_decimal_str(x, digits, rounding)


@seed(4301)
@settings(max_examples=60, deadline=None, database=None)
@given(x=st.one_of(_general, _far_pell), target=_far,
       digits=st.integers(1, 40),
       rounding=st.sampled_from(["up", "down"]))
def test_decimal_str_of_tiny_values_shifts_the_reference(x, target, digits,
                                                         rounding):
    # below 10^-4400 the reference's exponent search is too slow, but
    # x / 10^shift has the digits of x, its exponent lowered by shift
    assume(x != 0)
    want = Decimal(reference_decimal_str(x, digits, rounding))
    shift = want.adjusted() + target
    got = decimal_str(_scaled_qsqrt2(x, -shift), digits, rounding)
    assert Decimal(got) == want.scaleb(-shift, Context(prec=100))
    mantissa, exponent = got.lstrip("-").split("e")
    assert len(mantissa.replace(".", "")) == digits
    assert int(exponent) == -target


def test_log2_lower_brackets_log2_on_seeded_randoms():
    # lb < log2(v) < lb + 4 for v = (a + b*sqrt2)/d, with a and b of one
    # sign and of opposite signs, near-cancelling ones included
    rng = random.Random(2026)
    cases = {"same": 0, "opposite": 0}
    for _ in range(600):
        bits = rng.choice([1, 4, 30, 64, 500, 5000])
        b = rng.getrandbits(bits) + 1
        near = isqrt(2 * b * b)
        kind = rng.randrange(4)
        if kind == 0:
            a = rng.getrandbits(bits)
        elif kind == 1:
            a, b = near + rng.choice([1, 2, rng.getrandbits(bits) + 1]), -b
        elif kind == 2:
            a = -max(near - rng.choice([0, 1, rng.getrandbits(bits)]), 0)
        else:
            a, b = rng.getrandbits(bits) + 1, 0
        d = rng.getrandbits(rng.choice([1, 8, bits, 6000])) + 1
        cases["same" if a >= 0 and b >= 0 else "opposite"] += 1
        lb = _log2_lower(a, b, d)
        mp.prec = 2 * bits + 200
        log2v = mp.log((mpf(a) + mpf(b) * mpsqrt(2)) / d, 2)
        assert lb < log2v < lb + 4, (a, b, d)
    assert min(cases.values()) >= 200


# ── floors and signs at working precision ────────────────────────


def _ref_floor_scaled(a, b, d, k):
    """floor((a + b*sqrt2)/d * 10^k) at full precision."""
    if k >= 0:
        p = 10 ** k
        return (a * p + _ref_floor_int_sqrt2(b * p)) // d
    return (a + _ref_floor_int_sqrt2(b)) // (d * 10 ** -k)


def _floor_and_roots(a, b, d, k):
    """_floor_scaled(a, b, d, k) and its number of isqrt calls once a
    first call has cached the expansion of sqrt2 it reads: 0 when the
    guard bits decide the floor, 1 when it is taken at full precision."""
    _floor_scaled(a, b, d, k)
    with mock.patch.object(exact, "isqrt", wraps=isqrt) as root:
        return _floor_scaled(a, b, d, k), root.call_count


_divisors = st.one_of(
    st.integers(0, 700).map(lambda s: 1 << s),
    st.integers(0, 200).map(lambda m: 10 ** m),
    st.integers(0, 2 ** 600).map(lambda n: 2 * n + 1),
    st.just(1))


@settings(max_examples=500, deadline=None)
@given(a=st.integers(-2 ** 500, 2 ** 500), b=st.integers(-2 ** 500, 2 ** 500),
       d=_divisors, k=st.integers(-120, 120))
def test_floor_scaled_matches_full_precision(a, b, d, k):
    assert _floor_scaled(a, b, d, k) == _ref_floor_scaled(a, b, d, k)


@settings(max_examples=300, deadline=None)
@given(d=_divisors.filter(lambda d: d.bit_length() > 80),
       m=st.integers(-2 ** 100, 2 ** 100),
       b=st.integers(-2 ** 12, 2 ** 12).filter(bool),
       c=st.integers(-1, 0))
def test_floor_scaled_falls_back_next_to_a_multiple(d, m, b, c):
    # a + b*sqrt2 = m d + c + frac(b*sqrt2) lies within 2^j of m d, so
    # the guard interval straddles the multiple and the floor, m + c,
    # is taken again at full precision
    a = m * d + c - _ref_floor_int_sqrt2(b)
    assert _floor_and_roots(a, b, d, 0) == (m + c, 1)


def test_floor_scaled_decides_at_working_precision():
    # away from a multiple of d, 0 included, r + 2^j <= d fails with
    # chance about 2^-65: no seeded random input with a quotient of 2^3
    # or more, and none of the closed form's odd-n enclosure floors, is
    # taken twice
    rng = random.Random(2665)
    for _ in range(400):
        bits = rng.choice([67, 100, 2000])
        d = rng.getrandbits(bits) | 1 << bits - 1
        bits += rng.choice([136, 160, 400])
        a, b = (rng.getrandbits(bits) * rng.choice([-1, 1]) for _ in range(2))
        k = rng.randint(-40, 40)
        assert _floor_and_roots(a, b, d, k) == \
            (_ref_floor_scaled(a, b, d, k), 0)
    for n in range(119, 3002, 14):
        a, b, _ = (QSqrt2(2, 1) ** n).as_integers()
        c = (n * n - 1) ** 2
        assert _floor_and_roots(c * a, c * b, 1 << n, 80)[1] == 0


def test_sqrt2_expansion_shifts_to_every_precision():
    # the working pass reads floor(sqrt2 * 2^p) off the cached expansion
    # at the power of two P >= p, shifted right by P - p; every p to
    # 4,200 bits, each side of every power of two up to 4,096 included
    for p in range(1, 4201):
        P = 1 << (p - 1).bit_length()
        assert P >= p > P // 2
        assert exact._sqrt2_bits(P) >> P - p == isqrt(2 << 2 * p), p


def _up_to_bits(top):
    """Integers of either sign below 2^bits, for bits drawn in 0..top,
    so that every length of the working precision is reached."""
    return st.integers(0, top).flatmap(
        lambda bits: st.integers(-2 ** bits, 2 ** bits))


def _wide_divisors(low):
    """Divisors of low to 4,000 bits: powers of two, odd numbers and
    powers of ten."""
    return st.one_of(
        st.integers(low, 4000).map(lambda s: 1 << s),
        st.integers(2 ** (low - 1), 2 ** 3999).map(lambda n: 2 * n + 1),
        st.integers(low * 3 // 10 + 1, 1204).map(lambda m: 10 ** m))


@settings(max_examples=300, deadline=None)
@given(a=_up_to_bits(8000), b=_up_to_bits(8000), d=_wide_divisors(68),
       k=st.integers(-50, 50))
def test_floor_scaled_matches_full_precision_at_large_b(a, b, d, k):
    # |b| to 2^8000 against d to 2^4000 runs the working pass at every
    # p from 1 to about 8,100 bits, with both signs of a and b
    assert _floor_scaled(a, b, d, k) == _ref_floor_scaled(a, b, d, k)


@settings(max_examples=300, deadline=None)
@given(d=_wide_divisors(81), m=st.integers(-2 ** 100, 2 ** 100),
       b=_up_to_bits(6000).filter(bool), c=st.integers(-1, 0))
def test_floor_scaled_falls_back_next_to_a_multiple_at_large_b(d, m, b, c):
    # as below 2^12, but with |b| to 2^6000: a + b*sqrt2 lies within 1 of
    # the multiple m d, on its far side for c = 0 and its near side for
    # c = -1, so a bracket that misses b*sqrt2 by a unit of 2^j floors
    # to the wrong side, and a right one straddles m d and falls back
    a = m * d + c - _ref_floor_int_sqrt2(b)
    assert _floor_and_roots(a, b, d, 0) == (m + c, 1)


def test_floor_scaled_falls_back_where_the_truncations_lose_most():
    # the working pass loses (B + s + 1)/2^(p+2) < 1 to its truncations,
    # most when the top bits and the bits of |b| below 2^(j-2) are all
    # ones: every length of |b| to 600 bits puts the fraction of
    # sqrt2 * 2^p anywhere, so a bracket a bit too narrow misses
    # b*sqrt2 on some of them, and next to a multiple of d, as above,
    # floors to the wrong side
    rng = random.Random(4046)
    d, j = 1 << 100, 35
    for length in range(j + 8, 600):
        ones = (1 << length) - 1
        b = ones ^ rng.getrandbits(length - 6 - (j - 2)) << j - 2
        for b, c in itertools.product((b, -b), (-1, 0)):
            m = rng.getrandbits(100)
            a = m * d + c - _ref_floor_int_sqrt2(b)
            assert _floor_and_roots(a, b, d, 0) == (m + c, 1), (b, c)


def test_sign_sqrt2_on_pell_pairs_past_the_gate():
    # (1 +- sqrt2)^k = p +- q*sqrt2 with p^2 - 2q^2 = (-1)^k: p and
    # q*sqrt2 agree on every leading bit, so the doubling runs to the
    # exact comparison; each pair is scaled by 2^m and moved by e
    p, q = 1, 0
    for k in range(1, 4000):
        p, q = p + 2 * q, p + q
        if k % 7:
            continue
        for m in (0, 1, 37, 600):
            for e in (-1, 0, 1):
                x, y = (p << m) + e, -(q << m)
                expected = 1 if x * x > 2 * y * y else -1
                assert sign_sqrt2(x, y) == expected
                assert sign_sqrt2(-x, -y) == -expected
    assert q.bit_length() > 5000


@settings(max_examples=300, deadline=None)
@given(y=st.integers(2 ** 1000, 2 ** 6000), delta_bits=st.integers(0, 6000),
       delta=st.integers(-2 ** 64, 2 ** 64), negate=st.booleans())
def test_sign_sqrt2_on_near_ties_matches_squares(y, delta_bits, delta, negate):
    # |x| = floor(y sqrt2) moved by a perturbation of any bit length, so
    # the top bits of x^2 and 2y^2 agree to every depth of the doubling
    x = isqrt(2 * y * y) + (delta << delta_bits)
    if negate:
        x, y = -x, -y
    expected = 1 if (x * x > 2 * y * y) == (x > 0) else -1
    assert sign_sqrt2(x, -y) == expected
