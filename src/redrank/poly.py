"""Dense univariate polynomials over Q, Sturm-chain root counting, and the
Gegenbauer ladder used by the sphere-code bounds.

The Gegenbauer polynomials Q_k for dimension n are normalized so that
Q_k(1) = 1 and satisfy

    Q_0 = 1,  Q_1 = t,
    Q_{k+1} = ((2k + n - 2) t Q_k - k Q_{k-1}) / (k + n - 2).

The adjacent families are derived from them by exact polynomial division:

    Q_k^{1,0} = (n-1) (Q_k - Q_{k+1}) / ((2k + n - 1) (1 - t)),
    Q_k^{1,1} = (n-1) (Q_k - Q_{k+2}) / ((2k + n) (1 - t^2)),

and their largest zeros t_k^{1,0} < t_k^{1,1} partition [-1, 1) into the
cells on which the Levenshtein-style bound switches branch.

locate_interval finds the cell of s without building a polynomial per k.
It runs the recurrence on the values Q_j(s) in exact integer arithmetic,
reads the sign of each adjacent polynomial at s off Q_j(s) - Q_{j+1}(s) and
Q_j(s) - Q_{j+2}(s), and takes the first k with Q_k^{1,1}(s) < 0; the
interlacing of the largest zeros (Levenshtein, "Universal bounds for codes
and designs", Handbook of Coding Theory, 1998, section 5) makes that the
cell.  The cell is then certified without the theorem: its upper end by the
intermediate value theorem, its lower end by Descartes' rule of signs on
the Taylor coefficients at s, with a Sturm count as the fallback when the
rule proves nothing.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm
from typing import Iterable, Iterator, Union

from .exact import QSqrt2, sign_sqrt2

Scalar = Union[int, Fraction, QSqrt2]


class RationalPolynomial:
    """A dense polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalPolynomial is immutable")

    @classmethod
    def identity(cls) -> "RationalPolynomial":
        """The polynomial t."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # ── ring operations ──────────────────────────────────────────

    def __add__(self, other: object) -> "RationalPolynomial":
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other: object) -> "RationalPolynomial":
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "RationalPolynomial":
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: object) -> "RationalPolynomial":
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(o.coeffs):
                out[i + j] += ci * cj
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def scaled(self, c: Union[int, Fraction]) -> "RationalPolynomial":
        return RationalPolynomial(tuple(Fraction(c) * x for x in self.coeffs))

    def __eq__(self, other: object) -> bool:
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # ── evaluation and calculus ──────────────────────────────────

    def __call__(self, x: Scalar) -> Scalar:
        """Horner evaluation; exact for Fraction and QSqrt2 arguments."""
        acc: Scalar = Fraction(0) if not isinstance(x, QSqrt2) else QSqrt2(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def divmod(self, other: "RationalPolynomial") -> tuple["RationalPolynomial", "RationalPolynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            c = rem[i] / lead
            q[i - d] = c
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= c * oc
        return RationalPolynomial(q), RationalPolynomial(rem)

    def exact_div(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Division that must be exact; a nonzero remainder is an error."""
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError(f"inexact polynomial division, remainder {r!r}")
        return q

    def root_bound(self) -> Fraction:
        """A Cauchy bound B with every real root in (-B, B]."""
        if self.degree < 1:
            return Fraction(1)
        lead = abs(self.leading)
        biggest = max(abs(c) for c in self.coeffs[:-1]) if self.degree else Fraction(0)
        return 1 + biggest / lead

    def __repr__(self) -> str:
        return f"RationalPolynomial({self.coeffs!r})"


def _coerce_poly(x: object) -> "RationalPolynomial | None":
    if isinstance(x, RationalPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalPolynomial((x,))
    return None


# ── Sturm chains ─────────────────────────────────────────────────


def _sign_of(x: Scalar) -> int:
    if isinstance(x, QSqrt2):
        return x.sign()
    return (x > 0) - (x < 0)


class SturmChain:
    """The Sturm sequence p, p', -rem(...), ... of a polynomial.

    For a < b the difference in sign-variation counts gives the number of
    distinct real roots in the half-open interval (a, b].  Zero values are
    skipped when counting variations, which makes the half-open convention
    work even when an endpoint is a root.
    """

    __slots__ = ("polys",)

    def __init__(self, p: RationalPolynomial) -> None:
        if p.is_zero:
            raise ValueError("Sturm chain of the zero polynomial")
        chain = [p]
        if p.degree >= 1:
            chain.append(p.derivative())
            while chain[-1].degree >= 1:
                rem = chain[-2].divmod(chain[-1])[1]
                if rem.is_zero:
                    break
                chain.append(-rem)
        object.__setattr__(self, "polys", tuple(chain))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SturmChain is immutable")

    def variations_at(self, x: Scalar) -> int:
        signs = [s for s in (_sign_of(p(x)) for p in self.polys) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count_roots_halfopen(self, a: Scalar, b: Scalar) -> int:
        """Distinct real roots in (a, b]."""
        return self.variations_at(a) - self.variations_at(b)

    def count_roots_above(self, a: Scalar) -> int:
        """Distinct real roots strictly greater than a."""
        bound = self.polys[0].root_bound()
        return self.count_roots_halfopen(a, bound)


def cmp_to_largest_root(p: RationalPolynomial, s: Scalar) -> int:
    """-1, 0, or +1 as s is below, equal to, or above the largest real
    root of p.  Exact: uses a Sturm count above s and a sign evaluation."""
    chain = SturmChain(p)
    if chain.count_roots_above(s) >= 1:
        return -1
    if _sign_of(p(s)) == 0:
        return 0
    bound = p.root_bound()
    if chain.count_roots_halfopen(-bound, bound) == 0:
        raise ValueError("polynomial has no real root")
    return 1


# ── Gegenbauer ladder ────────────────────────────────────────────


@lru_cache(maxsize=None)
def gegenbauer(n: int, k: int) -> RationalPolynomial:
    """Normalized Gegenbauer polynomial Q_k for dimension n, Q_k(1) = 1.

    Built from the explicit coefficients of C_k^lambda, lambda = (n-2)/2
    (DLMF 18.5.10), rather than by recursion on k: the leading coefficient
    is prod_{i=1}^{k-1} (n-2+2i)/(n-2+i), and each coefficient of t^(k-2m-2)
    is the one of t^(k-2m) times
    -(k-2m)(k-2m-1) / (2(m+1)(2k-2m+n-4))."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if k < 0:
        raise ValueError("index must be nonnegative")
    coeffs = [Fraction(0)] * (k + 1)
    c = Fraction(1)
    for i in range(1, k):
        c = c * (n - 2 + 2 * i) / (n - 2 + i)
    coeffs[k] = c
    for m in range(k // 2):
        c = c * -((k - 2 * m) * (k - 2 * m - 1)) / (2 * (m + 1) * (2 * k - 2 * m + n - 4))
        coeffs[k - 2 * m - 2] = c
    return RationalPolynomial(coeffs)


def _integer_form(s: Scalar) -> tuple[int, int, int]:
    """Integers (a, c, b) with s = (a + c*sqrt2)/b and b > 0."""
    return QSqrt2._coerce(s).as_integers()


def _scaled_gegenbauer_values(n: int, s: Scalar) -> Iterator[tuple[int, int, int]]:
    """Integer triples (x, y, w), w > 0, with Q_j(s) = (x + y*sqrt2)/w for
    j = 0, 1, 2, ... without end.

    With s = r/b, r in Z[sqrt2], the three-term recurrence becomes
    R_{j+1} = (2j+n-2) r R_j - j (j+n-3) b^2 R_{j-1} (the factor j+n-3 is
    1 at j = 1) on R_j = Q_j(s) b^j D_j, D_{j+1} = (j+n-2) D_j, D_1 = 1.
    No gcd is taken, so a term costs a few integer products."""
    a, c, b = _integer_form(s)
    yield 1, 0, 1
    x0, y0, x1, y1, w = 1, 0, a, c, b
    j = 1
    while True:
        yield x1, y1, w
        u, v = (2 * j + n - 2) * a, (2 * j + n - 2) * c
        f = j * b * b * (j + n - 3 if j > 1 else 1)
        x0, y0, x1, y1 = (x1, y1, u * x1 + 2 * v * y1 - f * x0,
                          u * y1 + v * x1 - f * y0)
        w *= b * (j + n - 2)
        j += 1


def gegenbauer_values(n: int, s: Scalar, first: int, last: int) -> list[QSqrt2]:
    """Q_first(s), ..., Q_last(s) for dimension n, by the three-term
    recurrence in exact arithmetic; equal to gegenbauer(n, j)(s)."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return [QSqrt2(Fraction(x, w), Fraction(y, w)) for x, y, w in
            islice(_scaled_gegenbauer_values(n, s), first, last + 1)]


@lru_cache(maxsize=None)
def adjacent_poly(n: int, k: int, kind: str) -> RationalPolynomial:
    """Adjacent Gegenbauer polynomial Q_k^{1,0} (kind "10") or Q_k^{1,1}
    (kind "11") for dimension n, obtained by exact division."""
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if kind == "10":
        if k < 1:
            raise ValueError('kind "10" needs k >= 1')
        num = (gegenbauer(n, k) - gegenbauer(n, k + 1)).scaled(n - 1)
        den = RationalPolynomial((1, -1)).scaled(2 * k + n - 1)  # (2k+n-1)(1-t)
        return num.exact_div(den)
    if kind == "11":
        if k < 0:
            raise ValueError('kind "11" needs k >= 0')
        num = (gegenbauer(n, k) - gegenbauer(n, k + 2)).scaled(n - 1)
        den = RationalPolynomial((1, 0, -1)).scaled(2 * k + n)  # (2k+n)(1-t^2)
        return num.exact_div(den)
    raise ValueError(f'kind must be "10" or "11", got {kind!r}')


# ── locating s among the adjacent zeros ──────────────────────────

# Largest cell index locate_interval searches; beyond it, s is refused.
LOCATE_CELL_CAP = 1000


class CellCapError(ValueError):
    """The cell holding s lies beyond LOCATE_CELL_CAP."""


# Most decimal digits locate_interval admits in a numerator or a
# denominator of s (of either rational part when s is in Q(sqrt2)): the
# scan's integers and the certificates' Taylor shifts grow with k times
# these digits, so beyond the cap s is refused before any work.
COSINE_DIGIT_CAP = 20


class CosineDigitCapError(ValueError):
    """s has more digits than COSINE_DIGIT_CAP."""


def _check_digits(s: Scalar) -> None:
    limit = 10 ** COSINE_DIGIT_CAP
    parts = (s.a, s.b) if isinstance(s, QSqrt2) else (s,)
    if any(abs(x.numerator) >= limit or x.denominator >= limit for x in parts):
        raise CosineDigitCapError(
            f"s has a numerator or denominator of more than "
            f"{COSINE_DIGIT_CAP} digits (COSINE_DIGIT_CAP); refused")


def _no_zero_above(p: RationalPolynomial, s: Scalar) -> bool:
    """Whether Descartes' rule of signs proves that p has no zero above s.

    The rule is applied to the Taylor coefficients of p(s + t): with no
    sign variation among them, p(s + t) has no positive zero.  They are
    computed in integers, writing s = (a + c*sqrt2)/b and shifting
    S(x) = b^d p(x/b) by a + c*sqrt2, which scales the coefficient of t^j
    by the positive b^(d-j).  False only means that the rule proves
    nothing."""
    a, c, b = _integer_form(s)
    den = lcm(*(x.denominator for x in p.coeffs))
    d = p.degree
    u = [int(x * den) * b ** (d - i) for i, x in enumerate(p.coeffs)]
    w = [0] * (d + 1)
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            u[j], w[j] = (u[j] + a * u[j + 1] + 2 * c * w[j + 1],
                          w[j] + c * u[j + 1] + a * w[j + 1])
    signs = [g for g in (sign_sqrt2(x, y) for x, y in zip(u, w)) if g]
    return all(g == signs[0] for g in signs)


def _at_or_above_largest_zero(p: RationalPolynomial, s: Scalar) -> bool:
    """Whether s is at or above every real zero of p: by Descartes' rule
    when it applies, by a Sturm count when it does not."""
    return _no_zero_above(p, s) or cmp_to_largest_root(p, s) >= 0


def _scan(n: int, s: Scalar) -> tuple[int, bool]:
    """The first k >= 1 with Q_k^{1,1}(s) < 0, and whether Q_k^{1,0}(s) < 0.

    For -1 < s < 1, Q_k^{1,1}(s) has the sign of Q_k(s) - Q_{k+2}(s), since
    (2k + n)(1 - s^2) > 0, and Q_k^{1,0}(s) the sign of Q_k(s) - Q_{k+1}(s),
    since 1 - s > 0.  With Q_j(s) = R_j / w_j, those are the signs of
    R_k m - R_{k+2} and R_k m' - R_{k+1} for the integer ratios m, m' of
    the scales."""
    b = _integer_form(s)[2]

    def sign(p: tuple[int, int, int], q: tuple[int, int, int], m: int) -> int:
        return sign_sqrt2(p[0] * m - q[0], p[1] * m - q[1])

    values = _scaled_gegenbauer_values(n, s)
    next(values)
    q = [next(values), next(values)]
    for k in range(1, LOCATE_CELL_CAP + 1):
        q.append(next(values))
        step = b * (k + n - 2)  # w_{k+1} / w_k
        if sign(q[0], q[2], step * b * (k + n - 1)) < 0:
            return k, sign(q[0], q[1], step) < 0
        del q[0]
    raise CellCapError(f"no cell k <= {LOCATE_CELL_CAP} (LOCATE_CELL_CAP) "
                       f"holds s at n = {n}; refused")


def locate_interval(n: int, s: Scalar) -> tuple[int, str]:
    """Find the cell of the partition of [-1, 1) holding s.

    Returns (k, branch) where branch "A" means
    t_{k-1}^{1,1} <= s < t_k^{1,0} and branch "B" means
    t_k^{1,0} <= s < t_k^{1,1}, with t_0^{1,1} = -1.  Membership at the
    left endpoint is closed, and s = -1 is cell (1, "A").

    A scan over values proposes the cell: k is the first index with
    Q_k^{1,1}(s) < 0, and the branch is A when Q_k^{1,0}(s) < 0.  The
    largest zeros interlace, t_{k-1}^{1,1} < t_k^{1,0} < t_k^{1,1}
    (Levenshtein, "Universal bounds for codes and designs", Handbook of
    Coding Theory, 1998, section 5), which makes the proposal right; the
    code does not rely on it and certifies each end of the cell:

      * s < t_k^{1,1}, and s < t_k^{1,0} on branch A, by the intermediate
        value theorem: the polynomial is negative at s and 1 at t = 1;
      * t_{k-1}^{1,1} <= s, and t_k^{1,0} <= s on branch B, by Descartes'
        rule on the Taylor coefficients at s, or by a Sturm count where
        the rule proves nothing.

    Should the lower end fail, k steps left until it holds, and the
    branch is then decided by Descartes' rule or a Sturm count alone.
    Cells beyond LOCATE_CELL_CAP raise CellCapError; a numerator or
    denominator of s longer than COSINE_DIGIT_CAP digits raises
    CosineDigitCapError before the scan.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    sv = s if isinstance(s, QSqrt2) else Fraction(s)
    _check_digits(sv)
    if not (-1 <= sv and sv < 1):
        raise ValueError("s must lie in [-1, 1)")
    if sv == -1:
        return 1, "A"
    k, below_10 = _scan(n, sv)
    while k > 1 and not _at_or_above_largest_zero(adjacent_poly(n, k - 1, "11"), sv):
        # s < t_{k-1}^{1,1}: the cell lies further left
        k, below_10 = k - 1, False
    if (below_10
            or not _at_or_above_largest_zero(adjacent_poly(n, k, "10"), sv)):
        return k, "A"
    return k, "B"
