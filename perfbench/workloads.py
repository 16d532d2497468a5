"""The four benchmark workloads: inputs made from a seed, the child
command that runs them, and oracles that check each report without
relying on the code under test.

Every workload is built by `make(name, seed, size)`, which returns a
`Job`.  The child process (child.py) runs `job.argv` with `job.stdin`;
`check(job, report)` compares the child's report with the answers the
job carries and counts the items that are wrong.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

# Graphs on 0..8 unlabeled vertices (OEIS A000088).
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# Largest order of a reduced graph of rank 4 (attained, e.g., by the
# doubling construction from K2; see extremal_rows).
M4 = 6
# The Levenshtein-to-closed-form switch of the threshold sweep.
SWEEP_SWITCH = 118
# Levenshtein's bound is tight at these points: the kissing numbers of
# E8 and the Leech lattice.
KISSING = {(8, "1/2"): 240, (24, "1/2"): 196560}
# A Mersenne prime; full rank modulo it certifies full rank over Q.
PRIME = (1 << 61) - 1

# Per size, the knobs of each workload.  "full" is what the benchmark
# measures; "toy" is the smoke test's size.
SIZES = {
    "full": {
        "census_order": 7,
        "sweep_to": 3000,
        "ladder_s0_to": 118,
        # (n, lo, hi): cosine s = 1 - 1/d for a seeded d in [lo, hi].
        # The ranges are narrow so that the cell index k (about 31..36)
        # and with it the work barely depend on the seed.
        "ladder_draws": ((3, 180, 183), (4, 126, 129), (6, 68, 70),
                         (8, 47, 49)),
        "stream_graphs": 30,
        "stream_orders": (20, 150),
    },
    "toy": {
        "census_order": 6,
        "sweep_to": 150,
        "ladder_s0_to": 12,
        "ladder_draws": ((3, 40, 50), (8, 10, 12)),
        "stream_graphs": 5,
        "stream_orders": (20, 70),
    },
}

WORKLOADS = ("census", "sweep", "ladder", "stream")


@dataclass
class Job:
    """One workload instance: what the child runs, how many items it
    verifies, and the answers the oracle expects."""

    workload: str
    argv: list[str]
    items: int
    expected: dict = field(default_factory=dict)
    stdin: str = ""


def make(workload: str, seed: int, size: str = "full") -> Job:
    knobs = SIZES[size]
    if workload == "census":
        order = knobs["census_order"]
        return Job("census", ["cli", "conjecture", "--max-order", str(order),
                              "--format", "json"],
                   sum(GRAPH_COUNTS[1:order + 1]),
                   {"counts": list(GRAPH_COUNTS[1:order + 1]), "m4": M4})
    if workload == "sweep":
        lo, hi = 47, knobs["sweep_to"]
        return Job("sweep", ["cli", "lemma5", "--from", str(lo), "--to",
                             str(hi), "--format", "json"],
                   hi - lo + 1, {"lo": lo, "hi": hi, "switch": SWEEP_SWITCH})
    if workload == "ladder":
        points = ladder_points(seed, knobs)
        return Job("ladder", ["ladder"], len(points),
                   {"points": points, "kissing": dict(KISSING)},
                   json.dumps(points))
    if workload == "stream":
        graphs = stream_graphs(seed, knobs["stream_graphs"],
                               *knobs["stream_orders"])
        return Job("stream", ["stream"], len(graphs), {"graphs": graphs},
                   "".join(g["g6"] + "\n" for g in graphs))
    raise ValueError(f"unknown workload {workload!r}")


def check(job: Job, report: str) -> tuple[int, list[str]]:
    """(failed items, problems) for one child report."""
    try:
        data = json.loads(report)
    except ValueError:
        return job.items, ["report is not JSON"]
    return {"census": _check_census, "sweep": _check_sweep,
            "ladder": _check_ladder, "stream": _check_stream,
            }[job.workload](job, data)


# ── census ───────────────────────────────────────────────────────


def _check_census(job: Job, data: dict) -> tuple[int, list[str]]:
    counts = job.expected["counts"]
    problems = []
    failed = 0
    rows = {row.get("order"): row for row in data.get("orders", [])}
    for order, want in enumerate(counts, start=1):
        got = rows.get(order, {}).get("total_graphs")
        if got != want:
            failed += want
            problems.append(f"order {order}: {got} classes, expected {want}")
    if data.get("holds") is not True:
        problems.append("conjecture reported as not holding")
    if len(counts) >= M4 and data.get("per_rank_max_order", {}).get("4") != job.expected["m4"]:
        problems.append(f"m(4) reported as {data.get('per_rank_max_order', {}).get('4')}")
    if problems and not failed:
        failed = job.items
    return failed, problems


# ── sweep ────────────────────────────────────────────────────────


def _check_sweep(job: Job, data: dict) -> tuple[int, list[str]]:
    lo, hi, switch = (job.expected[k] for k in ("lo", "hi", "switch"))
    reports = {r.get("n"): r for r in data.get("reports", [])}
    problems = []
    failed = 0
    for n in range(lo, hi + 1):
        r = reports.get(n)
        method = "levenshtein" if n <= switch else "closed_form"
        if r is None or r.get("holds") is not True or r.get("method") != method:
            failed += 1
            if len(problems) < 5:
                problems.append(f"n={n}: {r and (r.get('method'), r.get('holds'))}, "
                                f"expected ({method!r}, True)")
    if len(data.get("reports", [])) != hi - lo + 1:
        problems.append(f"{len(data.get('reports', []))} reports for "
                        f"{hi - lo + 1} dimensions")
        failed = job.items
    if data.get("all_hold") is not True:
        problems.append("all_hold is not true")
        failed = job.items
    return failed, problems


# ── ladder ───────────────────────────────────────────────────────


def ladder_points(seed: int, knobs: dict) -> list[list]:
    """The two kissing-number points, the reference cosine s0 for every
    dimension 3..ladder_s0_to, and one seeded cosine near 1 per draw."""
    rng = random.Random(f"ladder:{seed}")
    points = [[n, s] for n, s in KISSING]
    points += [[n, "s0"] for n in range(3, knobs["ladder_s0_to"] + 1)]
    for n, lo, hi in knobs["ladder_draws"]:
        d = rng.randint(lo, hi)
        points.append([n, f"{d - 1}/{d}"])
    return points


_QSQRT2 = re.compile(r"^(?:(?P<a>-?\d+(?:/\d+)?)(?: (?P<sign>[+-]) )?)?"
                     r"(?:(?P<b>-?\d+(?:/\d+)?)\*sqrt2)?$")


def _decimal(text: str, sqrt2: Decimal) -> Decimal:
    """The value of a rendered a + b*sqrt2 as a high-precision decimal."""
    m = _QSQRT2.match(text)
    if not m or not (m["a"] or m["b"]):
        raise ValueError(f"cannot parse {text!r}")
    a = Fraction(m["a"] or 0)
    b = Fraction(m["b"] or 0)
    if m["sign"] == "-":
        b = -b
    return (Decimal(a.numerator) / a.denominator
            + Decimal(b.numerator) / b.denominator * sqrt2)


def levenshtein_reference(n: int, s: Decimal, k: int, branch: str) -> Decimal:
    """Levenshtein's bound at cell (k, branch), from the textbook
    formula and the normalized Gegenbauer recurrence, in decimals."""
    q = [Decimal(1), s]
    for j in range(1, k + 1):
        q.append(((2 * j + n - 2) * s * q[j] - j * q[j - 1]) / (j + n - 2))
    one = Decimal(1)
    if branch == "A":
        return comb(k + n - 3, k - 1) * (
            Decimal(2 * k + n - 3) / (n - 1)
            - (q[k - 1] - q[k]) / ((one - s) * q[k]))
    return comb(k + n - 2, k) * (
        Decimal(2 * k + n - 1) / (n - 1)
        - (one + s) * (q[k] - q[k + 1]) / ((one - s) * (q[k] + q[k + 1])))


class _Q2:
    """a + b*sqrt2 with rational a, b: enough arithmetic to shift a
    polynomial to s0 = sqrt2 - 1 exactly."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        other = other if isinstance(other, _Q2) else _Q2(other)
        return _Q2(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        other = other if isinstance(other, _Q2) else _Q2(other)
        return _Q2(self.a * other.a + 2 * self.b * other.b,
                   self.a * other.b + self.b * other.a)

    __radd__ = __add__
    __rmul__ = __mul__

    def sign(self) -> int:
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb


def _sign(x) -> int:
    return x.sign() if isinstance(x, _Q2) else (x > 0) - (x < 0)


def _gegenbauer_coeffs(n: int, top: int) -> list[list[Fraction]]:
    """Coefficients (low to high) of the normalized Gegenbauer
    polynomials Q_0..Q_top for dimension n."""
    qs = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for j in range(1, top):
        nxt = [Fraction(0)] + [c * (2 * j + n - 2) for c in qs[j]]
        for i, c in enumerate(qs[j - 1]):
            nxt[i] -= j * c
        qs.append([c / (j + n - 2) for c in nxt])
    return qs


def _divide_root(p: list[Fraction], r: int) -> list[Fraction]:
    """p / (t - r) for a root r of p, by synthetic division."""
    out = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        carry = p[i] + carry * r
        out[i - 1] = carry
    if p[0] + carry * r != 0:
        raise ArithmeticError(f"{r} is not a root")
    return out


def _at_or_above_largest_zero(p: list[Fraction], s) -> bool:
    """s >= the largest zero of the real-rooted polynomial p.

    With p's leading coefficient made positive, that holds exactly when
    every derivative of p at s is positive and p(s) >= 0: the zeros of
    each derivative interlace those of the one before, so below the
    largest zero some derivative is negative.  The derivatives are
    read off the coefficients of p(t + s)."""
    a = [c if p[-1] > 0 else -c for c in p]
    if isinstance(s, _Q2):
        a = [_Q2(c) for c in a]
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] = a[j] + s * a[j + 1]
    return _sign(a[0]) >= 0 and all(_sign(c) > 0 for c in a[1:])


def in_cell(n: int, s, k: int, branch: str) -> bool:
    """Whether s lies in Levenshtein's cell (k, branch): branch A is
    t_{k-1}^{1,1} <= s < t_k^{1,0} and branch B is
    t_k^{1,0} <= s < t_k^{1,1}, where t_k^{1,0} and t_k^{1,1} are the
    largest zeros of the adjacent polynomials, proportional to
    (Q_k - Q_{k+1})/(1 - t) and (Q_k - Q_{k+2})/(1 - t^2)."""
    qs = _gegenbauer_coeffs(n, k + 2)

    def diff(a, b):
        return ([x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
                + [-y for y in b[len(a):]])

    def adjacent_10(j):
        return _divide_root(diff(qs[j], qs[j + 1]), 1)

    def adjacent_11(j):
        return _divide_root(_divide_root(diff(qs[j], qs[j + 2]), 1), -1)

    if branch == "A":
        lower = k == 1 or _at_or_above_largest_zero(adjacent_11(k - 1), s)
        return lower and not _at_or_above_largest_zero(adjacent_10(k), s)
    return (_at_or_above_largest_zero(adjacent_10(k), s)
            and not _at_or_above_largest_zero(adjacent_11(k), s))


def _check_ladder(job: Job, data: list) -> tuple[int, list[str]]:
    """Each result must sit in the right cell (checked exactly), carry
    the value of Levenshtein's formula there (checked to 30 digits),
    and be exact at the kissing-number points."""
    points = job.expected["points"]
    kissing = job.expected["kissing"]
    problems = []
    failed = 0
    if len(data) != len(points):
        return job.items, [f"{len(data)} results for {len(points)} points"]
    with localcontext() as ctx:
        ctx.prec = 60
        sqrt2 = Decimal(2).sqrt()
        for (n, s_text), row in zip(points, data):
            exact_s = _Q2(-1, 1) if s_text == "s0" else Fraction(s_text)
            ok = (row[:2] == [n, s_text] and row[3] in ("A", "B")
                  and row[2] >= 1 and in_cell(n, exact_s, row[2], row[3]))
            if ok and (n, s_text) in kissing:
                ok = row[4] == str(kissing[(n, s_text)])
            if ok:
                s = (sqrt2 - 1 if s_text == "s0" else
                     Decimal(exact_s.numerator) / exact_s.denominator)
                want = levenshtein_reference(n, s, row[2], row[3])
                got = _decimal(row[4], sqrt2)
                ok = abs(got - want) <= abs(want) * Decimal("1e-30")
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"(n={n}, s={s_text}): got {row}")
    return failed, problems


# ── stream ───────────────────────────────────────────────────────


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def extremal_rows(r: int) -> list[int]:
    """The doubling construction: K2 (r = 2) or K3 (r = 3), then from
    rank r-2 to r duplicate every vertex, add w adjacent to every
    original and u pendant to w.  The result is reduced, has rank
    exactly r and order m(r) = 2 m(r-2) + 2: twins keep the rank, and u
    and w each add one to it."""
    if r in (2, 3):
        return [((1 << r) - 1) ^ (1 << v) for v in range(r)]
    base = extremal_rows(r - 2)
    t = len(base)
    rows = [0] * (2 * t + 2)
    for i, row in enumerate(base):
        for j in _bits(row):
            for a in (i, t + i):
                rows[a] |= 1 << j | 1 << (t + j)
    w, u = 2 * t, 2 * t + 1
    for i in range(t):
        rows[i] |= 1 << w
        rows[w] |= 1 << i
    rows[w] |= 1 << u
    rows[u] |= 1 << w
    return rows


def rank_mod_prime(rows: list[int], n: int) -> int:
    """Rank of the adjacency matrix modulo PRIME (a lower bound on the
    rank over Q)."""
    m = [[row >> j & 1 for j in range(n)] for row in rows]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], PRIME - 2, PRIME)
        prow = [x * inv % PRIME for x in m[r][c:]]
        for i in range(r + 1, n):
            f = m[i][c]
            if f:
                m[i][c:] = [(x - f * y) % PRIME for x, y in zip(m[i][c:], prow)]
        r += 1
    return r


def min_symdiff(rows: list[int]) -> int:
    """min |N(u) xor N(v)| over non-adjacent pairs u != v."""
    n = len(rows)
    return min(bin(rows[u] ^ rows[v]).count("1")
               for u in range(n) for v in range(u + 1, n)
               if not rows[u] >> v & 1)


def graph6(rows: list[int]) -> str:
    """graph6 text of the graph: the order (short form up to 62,
    '~' plus 18 bits beyond), then the upper triangle column by column,
    six bits per byte, zero-padded."""
    n = len(rows)
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = [chr(126)] + [chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)]
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for at in range(0, len(bits), 6):
        value = 0
        for bit in bits[at:at + 6]:
            value = value << 1 | bit
        out.append(chr(63 + value))
    return "".join(out)


def _relabel(rows: list[int], perm: list[int]) -> list[int]:
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = sum(1 << perm[u] for u in _bits(row))
    return out


def _dense(rng: random.Random, n: int) -> dict:
    while True:
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        if rank_mod_prime(rows, n) == n:
            # full rank leaves no isolated or duplicated vertex
            return {"rows": rows, "rank": n, "reduced": True,
                    "reduced_order": n, "tau": min_symdiff(rows)}


def _blowup(rng: random.Random, n: int) -> dict:
    """A seeded blow-up of the largest doubling construction below n:
    vertices replaced by independent sets of twins, labels shuffled.
    Twins keep the rank and collapse back onto the base."""
    r = max(r for r in range(4, 13) if len(extremal_rows(r)) < n)
    base = extremal_rows(r)
    owner = list(range(len(base)))
    owner += [rng.randrange(len(base)) for _ in range(n - len(base))]
    rows = [0] * n
    for a in range(n):
        for b in range(n):
            if base[owner[a]] >> owner[b] & 1:
                rows[a] |= 1 << b
    perm = list(range(n))
    rng.shuffle(perm)
    return {"rows": _relabel(rows, perm), "rank": r, "reduced": False,
            "reduced_order": len(base), "tau": min_symdiff(base)}


def stream_graphs(seed: int, count: int, n_lo: int, n_hi: int) -> list[dict]:
    """`count` graphs at orders spread evenly over [n_lo, n_hi],
    alternating dense random graphs of full rank with blow-ups."""
    rng = random.Random(f"stream:{seed}")
    graphs = []
    for i in range(count):
        n = n_lo + round(i * (n_hi - n_lo) / max(1, count - 1))
        g = (_dense if i % 2 == 0 else _blowup)(rng, n)
        g["g6"] = graph6(g["rows"])
        graphs.append(g)
    rng.shuffle(graphs)
    return graphs


def _check_stream(job: Job, data: list) -> tuple[int, list[str]]:
    graphs = job.expected["graphs"]
    if len(data) != len(graphs):
        return job.items, [f"{len(data)} results for {len(graphs)} graphs"]
    problems = []
    failed = 0
    for at, (g, row) in enumerate(zip(graphs, data)):
        want = [g["rank"], g["reduced"], g["reduced_order"], g["tau"], g["g6"],
                [format(r, "x") for r in g["rows"]]]
        if row != want:
            failed += 1
            if len(problems) < 5:
                names = ("rank", "is_reduced", "reduced_order", "tau",
                         "graph6", "rows")
                bad = [k for k, a, b in zip(names, row, want) if a != b]
                problems.append(f"graph {at} (n={len(g['rows'])}): wrong {bad}")
    return failed, problems
