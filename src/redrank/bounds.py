"""Upper bounds for spherical codes with a prescribed minimal angle.

A spherical code here is a set of unit vectors in R^n whose pairwise
inner products all lie at or below a cosine threshold s.  The module
provides three bound families, all evaluated in exact arithmetic:

  * rankin_bound: the classical bounds 2n at s = 0, n + 1 for s < 0, and
    an integral-based bound for 0 < s < 1 reported with certified
    one-sided rounding,
  * levenshtein_bound: the linear-programming bound built from the
    Gegenbauer ladder, with the branch and level selected exactly by
    locate_interval,
  * closed_form_sweep: the elementary envelope (n^2 - 1) / sin(alpha)^n
    at s0 over a dimension range, compared to thresholds by squaring both
    sides and taking one integer sign in Z[sqrt2].

The cosine threshold of interest is s0 = sqrt(2) - 1.  verify_code_lemma
sweeps a dimension range and compares the bound at s0 against
5 * 2^((n + offset)/2) - 2, using the Levenshtein bound up to n = 118
and the closed form beyond, where a ratio-monotonicity certificate
(tail_ratio_certificate) extends the verdict to all larger dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import comb
from typing import Iterator, Optional, Union

from .exact import (COS_REFERENCE, PI_HI, QSqrt2, decimal_str,
                    gamma_half_ratio, sign_sqrt2, sqrt_enclosure)
from .poly import _scaled_gegenbauer_values, locate_interval

CosineLike = Union[int, Fraction, QSqrt2]


class DimensionCapError(ValueError):
    """A dimension beyond RANKIN_DIMENSION_CAP or LEMMA_DIMENSION_CAP."""


class LevDenominatorZero(ArithmeticError):
    """The Levenshtein bound formula hit a zero denominator at s."""


def _as_cosine(s: CosineLike) -> QSqrt2:
    v = QSqrt2._coerce(s)
    if v is None:
        raise TypeError(f"cosine must be rational or QSqrt2, got {type(s).__name__}")
    return v


# ── angle parameters ─────────────────────────────────────────────


@dataclass(frozen=True)
class AngleParams:
    """Dimension n together with the derived quantities of a separation
    angle phi, cos(phi) = s in (0, 1), carried exactly in Q(sqrt2).

    alpha is defined by sin(alpha) = sqrt(2) sin(phi/2), so that
    sin^2(alpha) = 1 - s = 2 sin^2(phi/2) and tan^2(alpha) = (1-s)/s.
    """

    n: int
    s: QSqrt2
    sin_sq_alpha: QSqrt2
    tan_sq_alpha: QSqrt2

    @classmethod
    def from_cos(cls, n: int, s: CosineLike) -> "AngleParams":
        if n < 2:
            raise ValueError("dimension must be at least 2")
        sv = _as_cosine(s)
        if not (QSqrt2(0) < sv < QSqrt2(1)):
            raise ValueError("cos(phi) must lie strictly between 0 and 1")
        one_minus = QSqrt2(1) - sv
        return cls(n, sv, one_minus, one_minus / sv)


def reference_params(n: int) -> AngleParams:
    """Parameters at the reference cosine s0 = sqrt(2) - 1, where
    sin^2(alpha) = 2 - sqrt(2) and tan^2(alpha) = sqrt(2)."""
    return AngleParams.from_cos(n, COS_REFERENCE)


def _check_guard(params: AngleParams) -> None:
    """Refuse n = params.n unless n > max(6 tan^2(alpha) - 3, 5), the
    range of the integral bracket and of the closed form.  The condition
    only grows easier with n, so it holds on a whole range once it holds
    at the start."""
    n = params.n
    if not (n > 5 and QSqrt2(n) > 6 * params.tan_sq_alpha - 3):
        raise ValueError(
            f"bracket and closed form need n > max(6 tan^2(alpha) - 3, 5); n = {n}")


# ── reports ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation.  `value` is an exact QSqrt2 when the bound
    is expressible in Q(sqrt2), otherwise a certified rational upper
    value.  `holds` compares the exact value against the exact
    threshold; decimal renderings are presentation only."""

    n: int
    method: str
    value: Union[QSqrt2, Fraction]
    threshold: Optional[QSqrt2] = None
    holds: Optional[bool] = None
    k_used: Optional[int] = None
    branch_used: Optional[str] = None
    notes: tuple[str, ...] = ()

    def value_decimal(self) -> str:
        return decimal_str(self.value, 30, rounding="up")

    def threshold_decimal(self) -> Optional[str]:
        if self.threshold is None:
            return None
        return decimal_str(self.threshold, 30, rounding="down")

    def to_json(self) -> dict:
        out: dict = {
            "n": self.n,
            "method": self.method,
            "value_decimal": self.value_decimal(),
            "threshold_decimal": self.threshold_decimal(),
            "holds": self.holds,
            "k": self.k_used,
            "branch": self.branch_used,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        out["value_exact"] = str(QSqrt2._coerce(self.value))
        if self.threshold is not None:
            out["threshold_exact"] = str(self.threshold)
        return out


def threshold_value(n: int, offset: int) -> QSqrt2:
    """The comparison threshold 5 * 2^((n + offset)/2) - 2, exact in
    Q(sqrt2) for odd exponents."""
    e = n + offset
    c = Fraction(5 << e // 2) if e >= 0 else Fraction(5, 1 << -(e // 2))
    return QSqrt2(c - 2, 0) if e % 2 == 0 else QSqrt2(-2, c)


def _holds_by_squares(x: int, y: int, d: int, threshold: QSqrt2) -> bool:
    """value < threshold for the positive value sqrt((x + y*sqrt2)/d),
    d > 0, exactly: with threshold = (tx + ty*sqrt2)/e, that is
    threshold > 0 and d (tx + ty*sqrt2)^2 - e^2 (x + y*sqrt2) > 0, two
    integer sign tests."""
    tx, ty, e = threshold.as_integers()
    if sign_sqrt2(tx, ty) <= 0:
        return False
    e2 = e * e
    return sign_sqrt2(d * (tx * tx + 2 * ty * ty) - e2 * x,
                      2 * d * tx * ty - e2 * y) > 0


# ── Rankin-style bounds ──────────────────────────────────────────


@dataclass(frozen=True)
class IntegralBracket:
    """Two-sided enclosure of I = integral_0^alpha sin^(n-2)(t) (cos t -
    cos alpha) dt via

        I = sin^(n+1)(alpha) / ((n^2-1) cos^2(alpha)) *
            (1 - 3 xi tan^2(alpha) / (n+3)),   xi in [0, 1],

    valid when n > max(6 tan^2(alpha) - 3, 5); that guard keeps the
    parenthesized factor above 1/2, so hi/lo < 2.  The squares of both
    endpoints are exact in Q(sqrt2).
    """

    params: AngleParams
    lo_sq: QSqrt2 = field(init=False)
    hi_sq: QSqrt2 = field(init=False)

    def __post_init__(self) -> None:
        p = self.params
        n = p.n
        _check_guard(p)
        base = (p.sin_sq_alpha ** (n + 1)) / (QSqrt2((n * n - 1) ** 2) * p.s * p.s)
        f1 = QSqrt2(1) - 3 * p.tan_sq_alpha / (n + 3)
        object.__setattr__(self, "lo_sq", base * f1 * f1)
        object.__setattr__(self, "hi_sq", base)

    def contains(self, x: Fraction) -> bool:
        """Whether the rational x lies strictly between lo and hi,
        decided exactly by comparing squares."""
        return x > 0 and self.lo_sq < QSqrt2(x * x) < self.hi_sq


# Largest dimension of the acute Rankin bound: its work grows about as
# n^2 (n = 100,000 takes 1.1-1.2 s, 300,000 takes 10.4 s), so a larger
# n is refused before any work.
RANKIN_DIMENSION_CAP = 100_000


def rankin_bound(n: int, case: str) -> BoundReport:
    """Code-size bounds by angle regime.

      * case "half_pi": the maximum is exactly 2n,
      * case "obtuse": at most n + 1 points pairwise at an obtuse angle,
      * case "acute": at s0, sqrt(pi) Gamma((n-1)/2) sin(alpha)
        tan(alpha) / (2 Gamma(n/2) I) with I replaced by the certified
        lower bracket endpoint, reported as a one-sided rational upper
        value, for n up to RANKIN_DIMENSION_CAP.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if case == "half_pi":
        return BoundReport(n, "rankin_half_pi", QSqrt2(2 * n),
                           notes=("exact maximum, attained by the cross-polytope",))
    if case == "obtuse":
        return BoundReport(n, "rankin_obtuse", QSqrt2(n + 1))
    if case != "acute":
        raise ValueError(f"unknown case {case!r}")
    if n > RANKIN_DIMENSION_CAP:
        raise DimensionCapError(
            f"acute Rankin bound capped at dimension {RANKIN_DIMENSION_CAP} "
            f"(RANKIN_DIMENSION_CAP), got {n}")
    params = reference_params(n)
    lo_sq = IntegralBracket(params).lo_sq
    q, e = gamma_half_ratio(n)
    # value = pi^e sqrt(q^2 sin^2(alpha) tan^2(alpha) / lo^2), e = 0 or 1
    pi_free = (QSqrt2(q * q) * params.sin_sq_alpha * params.tan_sq_alpha
               / lo_sq)
    value_up = sqrt_enclosure(*pi_free.as_integers(), 40)[1] * PI_HI ** e
    return BoundReport(n, "rankin_integral", value_up,
                       notes=("one-sided rounding of the integral bound",))


# ── Levenshtein bound ────────────────────────────────────────────


def levenshtein_bound(n: int, s: CosineLike,
                      threshold: Optional[QSqrt2] = None) -> BoundReport:
    """The Gegenbauer-ladder bound at cosine s in [-1, 1).

    With (k, branch) from locate_interval:

      branch A:  C(k+n-3, k-1) *
                 ((2k+n-3)/(n-1) - (Q_{k-1}(s) - Q_k(s)) / ((1-s) Q_k(s)))
      branch B:  C(k+n-2, k) *
                 ((2k+n-1)/(n-1) - (1+s)(Q_k(s) - Q_{k+1}(s)) /
                                   ((1-s)(Q_k(s) + Q_{k+1}(s))))

    With s = (a + c*sqrt2)/b, Q_j(s) = (x_j + y_j*sqrt2)/w_j = R_j/w_j
    from the recurrence's integer triples and m = w_{i+1}/w_i, the last
    fraction is h (m R_i - R_{i+1}) / (b(1-s) G): (i, h, G) is (k-1, b, R_k)
    on branch A and (k, b(1+s), m R_k + R_{k+1}) on branch B.  So the
    value is N/D in Z[sqrt2], reduced once through the conjugate of D.
    Raises LevDenominatorZero when the Q-denominator vanishes at s.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    sv = _as_cosine(s)
    k, branch = locate_interval(n, sv)
    a, c, b = sv.as_integers()
    i = k - 1 if branch == "A" else k
    u, v = ((x, y) for x, y, _ in islice(_scaled_gegenbauer_values(n, sv), i, i + 2))
    m = b * (i + n - 2) if i else b

    def mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
        return p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    if branch == "A":
        coeff, lead, h, g = comb(k + n - 3, k - 1), 2 * k + n - 3, (b, 0), v
        zero = f"Q_{k}(s) = 0"
    else:
        coeff, lead, h = comb(k + n - 2, k), 2 * k + n - 1, (b + a, c)
        g, zero = (m * u[0] + v[0], m * u[1] + v[1]), f"Q_{k}(s) + Q_{k+1}(s) = 0"
    den = mul((b - a, -c), g)
    if den == (0, 0):
        raise LevDenominatorZero(f"{zero} at n = {n}")
    # value = coeff (lead den - (n-1) h (m R_i - R_{i+1})) / ((n-1) den)
    tail = mul(h, (m * u[0] - v[0], m * u[1] - v[1]))
    num = mul((lead * den[0] - (n - 1) * tail[0],
               lead * den[1] - (n - 1) * tail[1]), (den[0], -den[1]))
    norm = (n - 1) * (den[0] * den[0] - 2 * den[1] * den[1])
    value = QSqrt2(Fraction(coeff * num[0], norm), Fraction(coeff * num[1], norm))
    holds = None
    if threshold is not None:
        holds = threshold.sign() > 0 and value < threshold
    return BoundReport(n, "levenshtein", value, threshold, holds,
                       k_used=k, branch_used=branch)


# ── threshold sweeps ─────────────────────────────────────────────

LEVENSHTEIN_CEILING = 118

# Largest dimension verify_code_lemma sweeps to: the sweep grows faster
# than n^2 (`lemma5` to 10^4 takes 3.8-5.1 s with process start, to
# 2 * 10^4 31 s), and tail_ratio_certificate carries the verdict past
# any window.
LEMMA_DIMENSION_CAP = 10_000


def code_lemma_reports(n_lo: int, n_hi: int,
                       exponent_offset: int) -> Iterator[BoundReport]:
    """verify_code_lemma's reports one at a time, past n = 118 one
    closed_form_sweep window of 256 at a time.  The arguments are checked
    at the call; the guard holds from n = 6 at s0, so no window refuses."""
    if exponent_offset not in (-4, 2):
        raise ValueError("exponent offset must be -4 or +2")
    if n_lo < 3:
        raise ValueError("sweep starts at n >= 3 (n = 2 is unverified)")
    if n_hi < n_lo:
        raise ValueError("empty range")
    if n_hi > LEMMA_DIMENSION_CAP:
        raise DimensionCapError(
            f"threshold sweep capped at dimension {LEMMA_DIMENSION_CAP} "
            f"(LEMMA_DIMENSION_CAP), got {n_hi}; tail_ratio_certificate "
            f"covers every larger dimension")
    lev = (levenshtein_bound(n, COS_REFERENCE, threshold_value(n, exponent_offset))
           for n in range(n_lo, min(n_hi, LEVENSHTEIN_CEILING) + 1))
    windows = (closed_form_sweep(lo, min(lo + 255, n_hi), exponent_offset)
               for lo in range(max(n_lo, LEVENSHTEIN_CEILING + 1), n_hi + 1, 256))
    return chain(lev, chain.from_iterable(windows))


def verify_code_lemma(n_lo: int, n_hi: int,
                      exponent_offset: int) -> list[BoundReport]:
    """Verify bound(s0) < 5 * 2^((n + exponent_offset)/2) - 2 for every
    dimension in [n_lo, n_hi]: the Levenshtein bound up to n = 118, the
    closed form beyond.  exponent_offset is -4 (the census-driving
    inequality) or +2 (the variant that holds from n = 3; n = 2 is left
    unverified).  n_hi is at most LEMMA_DIMENSION_CAP."""
    return list(code_lemma_reports(n_lo, n_hi, exponent_offset))


# ── closed-form envelope ─────────────────────────────────────────

# Conservative dimension from which the closed form is quoted in
# reports at the reference cosine; the analytic guard alone already
# holds from n = 6 there.
CLOSED_FORM_REPORT_FLOOR = 26


def closed_form_sweep(n_lo: int, n_hi: int,
                      offset: Optional[int]) -> list[BoundReport]:
    """The envelope (n^2 - 1) / sin(alpha)^n at s0 for every dimension in
    [n_lo, n_hi], exact in Q(sqrt2) for even n and the upper end of a
    40-digit square-root enclosure for odd n, compared with the threshold
    5 * 2^((n + offset)/2) - 2 unless offset is None.

    The power (1 + 1/sqrt2)^n = 1/sin(alpha)^n is kept as an integer pair,
    so the square of the value is c (a + b*sqrt2)/2^n with c = (n^2 - 1)^2
    and each verdict is an integer sign test on 2^n T^2 - c (a + b*sqrt2)
    for the threshold T, exact for every n; odd n encloses the root of
    that integer triple, unreduced.  The sweep starts from (2 + sqrt2)^n_lo
    and (2 + sqrt2)^floor(n_lo/2) by binary powering and multiplies by
    2 + sqrt2 once per dimension."""
    _check_guard(reference_params(n_lo))
    if n_hi < n_lo:
        raise ValueError("empty range")
    # (2 + sqrt2)^n = A + B sqrt2; (1 + 1/sqrt2)^n = (A + B sqrt2)/2^n
    a, b, _ = (QSqrt2(2, 1) ** n_lo).as_integers()
    ah, bh, _ = (QSqrt2(2, 1) ** (n_lo // 2)).as_integers()
    reports: list[BoundReport] = []
    for n in range(n_lo, n_hi + 1):
        c = (n * n - 1) ** 2
        denom = 1 << n
        thr = holds = None
        if offset is not None:
            thr = threshold_value(n, offset)
            holds = _holds_by_squares(c * a, c * b, denom, thr)
        if n % 2 == 0:
            half_denom = 1 << (n // 2)
            value: Union[QSqrt2, Fraction] = QSqrt2(
                Fraction((n * n - 1) * ah, half_denom),
                Fraction((n * n - 1) * bh, half_denom))
        else:
            value = sqrt_enclosure(c * a, c * b, denom, 40)[1]
        notes: tuple[str, ...] = ()
        if n < CLOSED_FORM_REPORT_FLOOR:
            notes = (f"below the conservative reporting floor n >= {CLOSED_FORM_REPORT_FLOOR}",)
        reports.append(BoundReport(n, "closed_form", value, thr, holds,
                                   notes=notes))
        a, b = 2 * a + 2 * b, a + 2 * b
        if n % 2 == 1:
            ah, bh = 2 * ah + 2 * bh, ah + 2 * bh
    return reports


@dataclass(frozen=True)
class TailCertificate:
    """Certificate that the closed-form verdict at the window start
    propagates to every larger dimension.

    Writing V(n) for the closed-form value at s0 and U(n) = threshold +
    2 = 5 * 2^((n+offset)/2), one step of growth satisfies

        V(n+1)^2 = V(n)^2 * r(n)^2 * (1 + 1/sqrt2),
        U(n+1)^2 = 2 U(n)^2,         r(n) = ((n+1)^2 - 1)/(n^2 - 1),

    so V(n) < U(n) - 2 propagates to n + 1 whenever r(n)^2 (1 + 1/sqrt2)
    < 2 and U(n) >= 1/(2 - sqrt2).  r(n) is strictly decreasing (the
    cross-multiplied difference is the everywhere-positive polynomial
    2n^2 + 4n + 3), so checking the ratio condition at the window start
    and across the window certifies every dimension beyond it.
    """

    window: tuple[int, int]
    offset: int
    boundary_holds: bool
    ratio_ok_at_start: bool
    ratio_ok_all_window: bool
    ratio_decreasing_symbolic: bool
    threshold_floor_ok: bool

    @property
    def extends_beyond_window(self) -> bool:
        return (self.boundary_holds and self.ratio_ok_at_start
                and self.ratio_ok_all_window
                and self.ratio_decreasing_symbolic
                and self.threshold_floor_ok)


def _ratio_ok(n: int) -> bool:
    p, q = (n + 1) ** 2 - 1, n * n - 1
    return sign_sqrt2(4 * q * q - 2 * p * p, -p * p) > 0


def tail_ratio_certificate(n_lo: int = LEVENSHTEIN_CEILING,
                           n_hi: int = 10 ** 4,
                           offset: int = -4) -> TailCertificate:
    """The TailCertificate of the window [n_lo, n_hi] at the threshold
    offset.  Each ratio condition r(n)^2 (1 + 1/sqrt2) < 2, r(n) = p/q
    with p = (n+1)^2 - 1 and q = n^2 - 1, is decided by _ratio_ok as the
    integer sign of 4q^2 - 2p^2 - p^2 sqrt2: the same inequality times
    2q^2 > 0."""
    if n_lo < 6 or n_hi < n_lo:
        raise ValueError("certificate window must start at n >= 6")
    boundary = closed_form_sweep(n_lo, n_lo, offset)[0]
    ratio_all = all(_ratio_ok(n) for n in range(n_lo, n_hi + 1))

    # r(n) - 1 = (2n+1)/(n^2-1), so r(n) > r(n+1) cross-multiplies to
    # (2n+1)(n^2+2n) - (2n+3)(n^2-1) = 2n^2 + 4n + 3, which is positive
    # for n >= 0.  Both sides of that identity are polynomials of degree
    # at most 3, so their agreement at the four points n = 0..3 proves it.
    symbolic = all((2 * m + 1) * (m * m + 2 * m) - (2 * m + 3) * (m * m - 1)
                   == 2 * m * m + 4 * m + 3 for m in range(4))

    # U(n_lo) - 2 >= 0 and U(n_lo) >= 1/(2 - sqrt2): ample at any real n
    u_floor = threshold_value(n_lo, offset) + 2 - QSqrt2(1) / QSqrt2(2, -1)
    return TailCertificate((n_lo, n_hi), offset,
                           bool(boundary.holds),
                           _ratio_ok(n_lo), ratio_all, symbolic,
                           u_floor.sign() > 0)
