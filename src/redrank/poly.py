"""The Gegenbauer ladder used by the sphere-code bounds, and the cell of the
Levenshtein partition that holds a cosine.

A polynomial is a tuple of coefficients, lowest degree first, with no
trailing zero; () is the zero polynomial.  Q_k has integer (numerator,
denominator) pairs in lowest terms as coefficients; an adjacent
polynomial is its primitive integer multiple, since Descartes' rule
reads only the signs of a positive multiple.

The Gegenbauer polynomials Q_k for dimension n are normalized so that
Q_k(1) = 1 and satisfy

    Q_0 = 1,  Q_1 = t,
    Q_{k+1} = ((2k + n - 2) t Q_k - k Q_{k-1}) / (k + n - 2).

They are the Jacobi polynomials P_k^{(a,a)}, a = (n-3)/2, normalized at
t = 1, and the adjacent polynomials Q_k^{1,0}, Q_k^{1,1} are P_k^{(a+1,a)}
and P_k^{(a+1,a+1)} so normalized, that is (n-1) (Q_k - Q_{k+j}) /
((2k+n-2+j) (1 - t^j)) for j = 1, 2 (Levenshtein, "Universal bounds for
codes and designs", Handbook of Coding Theory, 1998, section 5).  As
a + 1 belongs to dimension n + 2, with Q'_k for that dimension (DLMF
18.7.1, and 18.9.5 at (a+1, a)):

    Q_k^{1,1} = Q'_k,
    Q_k^{1,0} = ((k + n - 1) Q'_k + k Q'_{k-1}) / (2k + n - 1).

The tests check both against the defining quotient.  The largest zeros
t_k^{1,0} < t_k^{1,1} partition [-1, 1) into the cells on which the
Levenshtein-style bound switches branch.

locate_interval finds the cell of s without building a polynomial per k.
It runs the recurrence for dimension n + 2 on the values Q'_j(s) in exact
integer arithmetic and takes the first k with Q'_k(s) < 0; the sign of
the two-term sum gives the branch.  The cell is certified before it is
returned, with no theorem assumed: its upper end by the intermediate
value theorem, its lower end by Descartes' rule of signs on the Taylor
coefficients at s.  Where the rule proves nothing, s is refused with
CellCertificateError.  Two theorems show that this never happens.  The
adjacent polynomials are Jacobi polynomials, so their zeros are real and
simple in (-1, 1) (Szego, "Orthogonal Polynomials", Thm 3.3.1), and
p(s + t) = c * prod(t + s - t_i) has coefficients of one sign once every
zero t_i is at or below s.  The largest zeros interlace,
t_{k-1}^{1,1} < t_k^{1,0} < t_k^{1,1} (Levenshtein, section 5), which
makes the scan's k the cell of s.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Union

from .exact import QSqrt2, sign_sqrt2

Scalar = Union[int, Fraction, QSqrt2]


# ── Gegenbauer ladder ────────────────────────────────────────────


@lru_cache(maxsize=None)
def gegenbauer(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Normalized Gegenbauer polynomial Q_k for dimension n, Q_k(1) = 1, as
    integer pairs (numerator, denominator) in lowest terms, denominator > 0.

    Built from the explicit coefficients of C_k^lambda, lambda = (n-2)/2
    (DLMF 18.5.10), rather than by recursion on k: the leading coefficient
    is prod_{i=1}^{k-1} (n-2+2i)/(n-2+i), and each coefficient of t^(k-2m-2)
    is the one of t^(k-2m) times
    -(k-2m)(k-2m-1) / (2(m+1)(2k-2m+n-4)).  As in Fraction's product, each
    factor a/b is reduced, and p/q times it cancels just gcd(p, b) and gcd(a, q)."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if k < 0:
        raise ValueError("index must be nonnegative")
    coeffs, p, q = [(0, 1)] * k + [(1, 1)], 1, 1
    for m in range(1 - k, k // 2):  # m < 0: factor i = k + m of the leading one
        a, b = ((n - 2 + 2 * (k + m), n - 2 + k + m) if m < 0 else
                (-(k - 2 * m) * (k - 2 * m - 1), 2 * (m + 1) * (2 * k - 2 * m + n - 4)))
        a, b = a // gcd(a, b), b // gcd(a, b)
        g, h = gcd(p, b), gcd(a, q)
        p, q = p // g * (a // h), q // h * (b // g)
        coeffs[k - 2 * max(m + 1, 0)] = p, q
    return tuple(coeffs)


def _scaled_gegenbauer_values(n: int, s: Scalar) -> Iterator[tuple[int, int, int]]:
    """Integer triples (x, y, w), w > 0, with Q_j(s) = (x + y*sqrt2)/w for
    j = 0, 1, 2, ... without end.

    With s = r/b, r in Z[sqrt2], the three-term recurrence becomes
    R_{j+1} = (2j+n-2) r R_j - j (j+n-3) b^2 R_{j-1} (the factor j+n-3 is
    1 at j = 1) on R_j = Q_j(s) b^j D_j, D_{j+1} = (j+n-2) D_j, D_1 = 1.
    No gcd is taken, so a term costs a few integer products."""
    a, c, b = QSqrt2._coerce(s).as_integers()
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


@lru_cache(maxsize=None)
def adjacent_poly(n: int, k: int, kind: str) -> tuple[int, ...]:
    """Adjacent Gegenbauer polynomial Q_k^{1,0} (kind "10") or Q_k^{1,1}
    (kind "11") for dimension n, as its primitive integer multiple: that of
    Q'_k, or of (k + n - 1) Q'_k + k Q'_{k-1}, with Q' for dimension n + 2
    (the identities of the module docstring), over one common denominator."""
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if kind not in ("10", "11"):
        raise ValueError(f'kind must be "10" or "11", got {kind!r}')
    if kind == "10" and k < 1:
        raise ValueError('kind "10" needs k >= 1')
    u, v = (k + n - 1, k) if kind == "10" else (1, 0)
    high = gegenbauer(n + 2, k)
    low = gegenbauer(n + 2, k - 1) + ((0, 1),) if v else ((0, 1),) * (k + 1)
    den = lcm(*(d for _, d in high + low))
    q = [u * a * (den // b) + v * c * (den // d) for (a, b), (c, d) in zip(high, low)]
    g = gcd(*q)
    return tuple(c // g for c in q)


# ── locating s among the adjacent zeros ──────────────────────────

# Largest cell index locate_interval searches; beyond it, s is refused.
LOCATE_CELL_CAP = 1000


class CellCapError(ValueError):
    """The cell holding s lies beyond LOCATE_CELL_CAP."""


# Most decimal digits locate_interval admits in n and in a numerator or a
# denominator of s (of either rational part when s is in Q(sqrt2)): the
# scan's integers and the certificates' Taylor shifts grow with k times
# these digits, so beyond the cap n or s is refused before any work.
COSINE_DIGIT_CAP = 20


class CosineDigitCapError(ValueError):
    """n or s has more digits than COSINE_DIGIT_CAP."""


def _check_digits(n: int, s: Scalar) -> None:
    limit = 10 ** COSINE_DIGIT_CAP
    parts = (s.a, s.b) if isinstance(s, QSqrt2) else (s,)
    if n >= limit or any(max(abs(x.numerator), x.denominator) >= limit for x in parts):
        what = "n has" if n >= limit else "s has a numerator or denominator of"
        raise CosineDigitCapError(
            f"{what} more than {COSINE_DIGIT_CAP} digits (COSINE_DIGIT_CAP); refused")


class CellCertificateError(ArithmeticError):
    """Descartes' rule proved nothing at a lower end of the proposed cell;
    by the theorems in the module docstring this never happens."""


def _no_zero_above(p: tuple[int, ...], s: Scalar) -> bool:
    """Whether Descartes' rule of signs proves that the integer polynomial
    p has no zero above s.

    The rule is applied to the Taylor coefficients of p(s + t): with no
    sign variation among them, p(s + t) has no positive zero.  They are
    computed in integers, writing s = (a + c*sqrt2)/b and shifting
    S(x) = b^d p(x/b) by a + c*sqrt2, which scales the coefficient of t^j
    by the positive b^(d-j); the sqrt2 parts w stay 0 for a rational s.
    False only means that the rule proves nothing, as for the zero
    polynomial, which vanishes everywhere."""
    a, c, b = QSqrt2._coerce(s).as_integers()
    d = len(p) - 1
    u, w, scale = list(p), [0] * (d + 1), 1
    for i in range(d, -1, -1):
        u[i], scale = u[i] * scale, scale * b
    for i in range(d):
        if c:
            for j in range(d - 1, i - 1, -1):
                u[j], w[j] = (u[j] + a * u[j + 1] + 2 * c * w[j + 1],
                              w[j] + c * u[j + 1] + a * w[j + 1])
        else:
            for j in range(d - 1, i - 1, -1):
                u[j] += a * u[j + 1]
    signs = [g for g in (sign_sqrt2(x, y) for x, y in zip(u, w)) if g]
    return bool(signs) and all(g == signs[0] for g in signs)


def _scan(n: int, s: Scalar) -> tuple[int, bool]:
    """The first k >= 1 with Q_k^{1,1}(s) < 0, and whether Q_k^{1,0}(s) < 0.

    With Q'_j(s) = R_j / w_j for dimension n + 2, by the identities of the
    module docstring these are the signs of R_k and of
    (k + n - 1) R_k + k m R_{k-1}, where m = w_k / w_{k-1} is b (k + n - 1),
    but b at k = 1: one sign per step."""
    b = QSqrt2._coerce(s).as_integers()[2]
    values = _scaled_gegenbauer_values(n + 2, s)
    x0, y0, _ = next(values)
    for k in range(1, LOCATE_CELL_CAP + 1):
        x, y, _ = next(values)
        if sign_sqrt2(x, y) < 0:
            m = b * (k + n - 1 if k > 1 else 1)
            return k, sign_sqrt2((k + n - 1) * x + k * m * x0, (k + n - 1) * y + k * m * y0) < 0
        x0, y0 = x, y
    raise CellCapError(f"no cell k <= {LOCATE_CELL_CAP} (LOCATE_CELL_CAP) "
                       f"holds s at n = {n}; refused")


def locate_interval(n: int, s: Scalar) -> tuple[int, str]:
    """Find the cell of the partition of [-1, 1) holding s.

    Returns (k, branch) where branch "A" means
    t_{k-1}^{1,1} <= s < t_k^{1,0} and branch "B" means
    t_k^{1,0} <= s < t_k^{1,1}, with t_0^{1,1} = -1.  Membership at the
    left endpoint is closed, and s = -1 is cell (1, "A").

    _scan proposes k and the branch.  The ends s < t_k^{1,1}, and
    s < t_k^{1,0} on branch A, hold by the intermediate value theorem:
    the polynomial is negative at s and 1 at t = 1.  The ends
    t_{k-1}^{1,1} <= s, and t_k^{1,0} <= s on branch B, are certified by
    Descartes' rule; where it proves nothing (by the theorems in the
    module docstring, never), CellCertificateError is raised and no other
    cell is tried.  Cells beyond LOCATE_CELL_CAP raise CellCapError; n,
    or a numerator or denominator of s, longer than COSINE_DIGIT_CAP
    digits raises CosineDigitCapError before the scan.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    sv = s if isinstance(s, QSqrt2) else Fraction(s)
    _check_digits(n, sv)
    a, c, b = QSqrt2._coerce(sv).as_integers()  # s = (a + c sqrt2) / b, b > 0
    if sign_sqrt2(a + b, c) < 0 or sign_sqrt2(a - b, c) >= 0:
        raise ValueError("s must lie in [-1, 1)")
    if a == -b and not c:
        return 1, "A"
    k, below_10 = _scan(n, sv)
    for j, kind in [(k - 1, "11")] * (k > 1) + [(k, "10")] * (not below_10):
        if not _no_zero_above(adjacent_poly(n, j, kind), sv):
            raise CellCertificateError(
                f"Descartes' rule does not place s at or above the largest zero "
                f"of Q_{j}^{{{kind[0]},{kind[1]}}} at n = {n}; refused")
    return k, "A" if below_10 else "B"
