"""Exact scalar arithmetic for the rank-bound toolkit.

Provides the real quadratic field Q(sqrt2) (class QSqrt2), exact ratios of
Gamma values at integer and half-integer arguments (gamma_half_ratio),
and directed decimal rendering of exact quantities.  Field elements hold
fractions.Fraction parts and have no float conversion.  Signs, floors,
square-root enclosures and decimal renderings work on a value written
as (A + B*sqrt2)/D with integers A, B and D > 0 (QSqrt2.as_integers) in
integers alone: a sign is that of A + B*sqrt2 (sign_sqrt2, which
compares A^2 with 2*B^2, past 1,024 bits their leading bits first), and
floor(x * 10^k), for k of either sign, is that of A + B*sqrt2 bracketed
to 2^(L(D)-65), B*sqrt2 from B's top bits times a cached binary
expansion of sqrt2, over D (_floor_scaled).  A rendering takes
its decimal exponent from a bound on bit lengths (_log2_lower) and its
digits from one such floor; the module uses no floating point.
decimal.Decimal serves only as an exact int-to-str conversion past the
interpreter's digit limit (_int_str), never for arithmetic.

All values are immutable and every function is pure, so the module is safe
for concurrent use.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cache, total_ordering
from math import comb, isqrt, lcm
from typing import Union

Rational = Union[int, Fraction]

# An upper bound on pi from 50 decimal digits, verified against an
# 80-digit independent evaluation in the test suite.  It rounds reported
# values that carry a power of pi upward and enters no verdict.
PI_HI = Fraction(314159265358979323846264338327950288419716939937511, 10 ** 50)


def sign_sqrt2(x: int, y: int) -> int:
    """The sign of x + y*sqrt(2) for integers x and y, exactly."""
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0 or (x > 0) == (y > 0):
        return 1 if y > 0 else -1
    # opposite signs: |x| against |y|*sqrt2.  Bit lengths decide when
    # they differ by two or more (2^(bx-1) <= |x| < 2^bx, likewise y),
    # otherwise x^2 against 2 y^2, which never tie as sqrt2 is irrational.
    # Past 1,024 bits (below, full squares cost less than the loop) the
    # top bx - s bits come first, 64 of them and doubling: |x| lies in
    # [X, X + 1) 2^s for X = |x| >> s, likewise y, so X^2 >= 2 (Y + 1)^2
    # or (X + 1)^2 <= 2 Y^2 decides; once s <= 0 the squares are exact
    bx, by = x.bit_length(), y.bit_length()
    if bx - by >= 2:
        x_wins = True
    elif by - bx >= 1:
        x_wins = False
    elif bx <= 1024:
        x_wins = x * x > 2 * y * y
    else:
        s = bx - 64
        while s > 0:
            hx, hy = abs(x) >> s, abs(y) >> s
            x_wins = hx * hx >= 2 * (hy + 1) ** 2
            if x_wins or (hx + 1) ** 2 <= 2 * hy * hy:
                break
            s = 2 * s - bx
        else:
            x_wins = x * x > 2 * y * y
    return 1 if x_wins == (x > 0) else -1


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@total_ordering
class QSqrt2:
    """An element a + b*sqrt(2) of the field Q(sqrt2), held exactly.

    Comparisons resolve the sign of a + b*sqrt(2) by comparing a^2 with
    2*b^2, so ordering is exact.  Instances are immutable and hashable;
    a value with b == 0 hashes like the plain rational it equals.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSqrt2 is immutable")

    # ── coercion ─────────────────────────────────────────────────

    def as_integers(self) -> tuple[int, int, int]:
        """Integers (A, B, D), D > 0 the least common denominator of the
        parts, with self = (A + B*sqrt2)/D."""
        a, b = self.a, self.b
        da, db = a.denominator, b.denominator
        if da == db:
            return a.numerator, b.numerator, da
        d = lcm(da, db)
        return a.numerator * (d // da), b.numerator * (d // db), d

    @staticmethod
    def _coerce(x: object) -> "QSqrt2 | None":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt2(x, 0)
        return None

    # ── arithmetic ───────────────────────────────────────────────

    def __add__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __mul__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the conjugate: 1/(a+b√2) = (a-b√2)/(a²-2b²)
        return QSqrt2((self.a * o.a - 2 * self.b * o.b) / norm,
                      (self.b * o.a - self.a * o.b) / norm)

    def __pow__(self, k: int) -> "QSqrt2":
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = QSqrt2(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # ── ordering ─────────────────────────────────────────────────

    def sign(self) -> int:
        a, b = self.a, self.b
        # a + b*sqrt2 times the positive a.denominator * b.denominator
        return sign_sqrt2(a.numerator * b.denominator,
                          b.numerator * a.denominator)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    # ── conversions ──────────────────────────────────────────────

    def __repr__(self) -> str:
        a, b = (f"Fraction({_int_str(x.numerator)}, {_int_str(x.denominator)})"
                for x in (self.a, self.b))
        return f"QSqrt2({a}, {b})"

    def __str__(self) -> str:
        if self.b == 0:
            return _frac_str(self.a)
        if self.a == 0:
            return f"{_frac_str(self.b)}*sqrt2"
        if self.b < 0:
            return f"{_frac_str(self.a)} - {_frac_str(-self.b)}*sqrt2"
        return f"{_frac_str(self.a)} + {_frac_str(self.b)}*sqrt2"


def _int_str(n: int) -> str:
    """str(n) for an integer of any length.

    Plain str() is the fast path; past the interpreter's limit on the
    digits of an integer-to-string conversion (ValueError) the digits
    come from Decimal, whose conversion from int is exact, ignores the
    context precision and has no digit limit.  The limit itself is left
    alone."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _frac_str(x: Fraction) -> str:
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


# cos of the reference separation angle: sqrt(2) - 1
COS_REFERENCE = QSqrt2(-1, 1)


# ── directed decimal rendering ───────────────────────────────────


@cache
def _sqrt2_bits(p: int) -> int:
    """floor(sqrt2 * 2^p), for p a power of two."""
    return isqrt(2 << 2 * p)


def _floor_scaled(a: int, b: int, d: int, k: int) -> int:
    """floor((a + b*sqrt2)/d * 10^k) for integers a, b, d > 0 and k,
    exactly, at the precision the quotient keeps (Ziv's rounding test).
    With 10^k moved onto (a, b) or onto d, let j = L(d) - 66 (L =
    int.bit_length).  For b != 0 and j >= 1, p = max(L(|b|) - j + 1, 1),
    s = floor(sqrt2 2^p) = _sqrt2_bits(P) >> (P - p) for the least
    power of two P >= p (a floor of a floor is exact), B = 4|b| >> j <
    2^(p+1), q = B s >> (p + 2) has q <= |b|*sqrt2 / 2^j < q + 2, as the
    truncations lose (B + s + 1)/2^(p+2) < 1.  So a + b*sqrt2 lies in
    [lo, lo + 2^(j+1)) for lo = a + q 2^j (b > 0) or a - (q + 2) 2^j
    (b < 0), and with lo = f d + r, 0 <= r < d, the floor is f whenever
    r + 2^(j+1) <= d.  That fails only when the interval meets a multiple
    of d, with chance about 2^-64 on generic input; the floor is then
    taken at full precision, isqrt(2b^2) being floor(|b|*sqrt2), which
    is irrational for b != 0."""
    if k >= 0:
        a, b = a * 10 ** k, b * 10 ** k
    else:
        d *= 10 ** -k
    j = d.bit_length() - 66
    if b and j >= 1:
        p = max(abs(b).bit_length() - j + 1, 1)
        P = 1 << (p - 1).bit_length()
        q = (abs(b) << 2 >> j) * (_sqrt2_bits(P) >> P - p) >> p + 2
        f, r = divmod(a + (q << j) if b > 0 else a - (q + 2 << j), d)
        if r + (2 << j) <= d:
            return f
    return (a + isqrt(2 * b * b) if b >= 0 else a - isqrt(2 * b * b) - 1) // d


def _log2_lower(a: int, b: int, d: int) -> int:
    """An integer lb with lb < log2(v) < lb + 3.5 for v = (a + b*sqrt2)/d
    > 0.  With L = int.bit_length, 2^(L(n)-1) <= n < 2^L(n) for n > 0,
    and P/sqrt2 <= |a| + |b|*sqrt2 <= P for P = |a| + 2|b|: a, b >= 0
    puts log2(v) in (lb + 1/2, lb + 3) for lb = L(P) - L(d) - 2;
    otherwise a + b*sqrt2 = |a^2 - 2b^2| / (|a| + |b|*sqrt2) puts it in
    (lb, lb + 7/2) for lb = L(|a^2 - 2b^2|) - L(P) - L(d) - 1, with no
    loss to cancellation."""
    if a >= 0 and b >= 0:
        return (a + 2 * b).bit_length() - d.bit_length() - 2
    return ((a * a - 2 * b * b).bit_length()
            - (abs(a) + 2 * abs(b)).bit_length() - d.bit_length() - 1)


def decimal_str(value: "QSqrt2 | Fraction | int", digits: int = 30,
                rounding: str = "up") -> str:
    """Render an exact value as a decimal with `digits` significant digits.

    rounding="up" produces a rendering >= the true value, rounding="down"
    one <= it.  The rendering is presentation only; exact values should be
    compared directly.
    """
    if rounding not in ("up", "down"):
        raise ValueError("rounding must be 'up' or 'down'")
    x = QSqrt2._coerce(value)
    if x is None:
        raise TypeError(f"cannot render {type(value).__name__}")
    if digits < 1:
        raise ValueError("digits must be positive")
    a, b, d = x.as_integers()
    s = sign_sqrt2(a, b)
    if s == 0:
        return "0." + "0" * (digits - 1)
    if s < 0:
        a, b = -a, -b
    # toward +infinity on the signed value means: ceil the magnitude of a
    # positive value, floor the magnitude of a negative one
    ceil_mag = (rounding == "up") != (s < 0)

    # 0.30102 < log10(2) < 0.30103, so e10 <= lb * log10(2) < log10(v):
    # 10^e10 <= v, and m = floor(v * 10^(digits-1-e10)) has the j >= 0
    # surplus digits (at most 2 + |lb|/10^5) that floor(floor(y)/10^j) =
    # floor(y/10^j) drops exactly
    lb = _log2_lower(a, b, d)
    e10 = lb * (30102 if lb >= 0 else 30103) // 100000
    k = digits - 1 - e10
    m = _floor_scaled(a, b, d, k)
    j = len(str(m)) - digits
    m //= 10 ** j
    e10 += j
    k -= j
    exact = b == 0 and (a * 10 ** k % d == 0 if k >= 0
                        else a % (d * 10 ** -k) == 0)
    if ceil_mag and not exact:
        m += 1
        if m == 10 ** digits:
            m //= 10
            e10 += 1
    text = str(m)

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


# ── square-root enclosures ───────────────────────────────────────


def sqrt_enclosure(a: int, b: int, d: int,
                   digits: int = 40) -> tuple[Fraction, Fraction]:
    """An interval [lo, hi] of rationals containing sqrt((a + b*sqrt2)/d),
    for integers a, b and d > 0 with a + b*sqrt2 >= 0.  Scaling a, b and
    d by one positive integer leaves the interval unchanged.

    Exact (lo == hi) when the value is a perfect square of a rational
    that the scaling resolves.
    """
    s = sign_sqrt2(a, b)
    if s < 0:
        raise ValueError("sqrt of a negative value")
    if s == 0:
        return (Fraction(0), Fraction(0))
    scale = 10 ** digits
    big = _floor_scaled(a, b, d, 2 * digits)
    t = isqrt(big)
    if t * t == big and b == 0 and a * scale * scale % d == 0:
        return (Fraction(t, scale), Fraction(t, scale))
    return (Fraction(t, scale), Fraction(t + 1, scale))


# ── Gamma ratios at half-integer points ──────────────────────────


def gamma_half_ratio(n: int) -> tuple[Fraction, int]:
    """sqrt(pi) * Gamma((n-1)/2) / (2 * Gamma(n/2)) as (q, e), the value
    being q * pi^e with rational q: e = 1 for even n, 0 for odd n.
    Legendre's duplication formula (DLMF 5.5.5) gives Gamma(k + 1/2) =
    C(2k, k) k! sqrt(pi) / 4^k, so q = 4^m / (2m C(2m, m)) for n = 2m + 1
    and q = C(2m - 2, m - 1) / 2^(2m - 1) for n = 2m.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    m = n // 2
    if n % 2 == 1:
        # Gamma(m) / Gamma(m + 1/2), the sqrt(pi) factors cancel
        return Fraction(4 ** m, 2 * m * comb(2 * m, m)), 0
    # Gamma(m - 1/2) carries sqrt(pi), joining the explicit sqrt(pi)
    return Fraction(comb(2 * m - 2, m - 1), 1 << 2 * m - 1), 1
