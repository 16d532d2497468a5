"""Graphs, adjacency rank over Q, and the reducedness invariants.

A graph is a tuple of neighbor bitmasks, and rank is the exact rank over
Q of its 0/1 adjacency matrix, by the policy in rank's docstring:
Gaussian elimination modulo p = 32749 in rows packed into 40-bit lanes,
column by column up to the first column without a pivot and then row by
row, decides it or hands it to fraction-free Bareiss elimination of the
rows each pivot changes, which by back substitution also gives an
integer basis K of the kernel.

A graph is *reduced* when it has no isolated vertex and no two vertices
with identical neighborhoods.  For reduced graphs the module provides:

  * min_removal_for_duplicates: the least number of vertices whose
    removal leaves a graph with two duplicated vertices (the minimum of
    |N(u) xor N(v)| over non-adjacent pairs),
  * min_removal_for_rank_drop: the least number of vertices whose
    removal lowers the rank: the lightest set of twin classes whose rows
    of K are linearly dependent, bounded without a rank, with a search
    below the bounds capped by RHO_SUBSET_CAP,
  * duplication_witness: a largest induced subgraph with duplicated
    vertices together with the two-sided split of the removed set,
    solved in one pass over it for any number of duplicated pairs,
  * the conjectured and proven order bounds for a given rank.

Graphs are immutable; all functions are pure.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, isqrt, prod
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """A finite simple graph on vertices 0..n-1 with bitmask adjacency."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows, n = tuple(self.rows), self.n
        if n < 0:
            raise ValueError("negative order")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        mask = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~mask:
                raise ValueError(f"row {u} mentions a vertex >= {n}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        for u in range(n):
            for v in _bits(rows[u]):
                if not rows[v] >> u & 1:
                    raise ValueError(f"asymmetric edge {u}-{v}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _raw(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Unchecked constructor for internal callers that guarantee a
        valid adjacency structure."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    # ── constructors ─────────────────────────────────────────────

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._raw(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls._raw(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        mask = (1 << n) - 1
        return cls._raw(n, tuple(mask ^ (1 << u) for u in range(n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    # ── structure ────────────────────────────────────────────────

    @property
    def is_complete(self) -> bool:
        mask = (1 << self.n) - 1
        return all(self.rows[u] == mask ^ (1 << u) for u in range(self.n))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def induced_on(self, keep: Iterable[int]) -> "Graph":
        """The induced subgraph on `keep`, relabeled in sorted order.  A
        kept row costs one shift-and-mask per maximal run of consecutive
        kept vertices."""
        kept = set(keep)
        if kept and (min(kept) < 0 or max(kept) >= self.n):
            raise ValueError("vertex out of range")
        runs, rows, left = [], [], sum(map((1).__lshift__, kept))
        while left:
            low = left & -left
            run = left & ~(left + low)  # + low carries through the run
            left ^= run
            rows += self.rows[low.bit_length() - 1:run.bit_length()]
            runs.append((run, run.bit_length() - len(rows)))  # old - new index
        out = []
        for row in rows:
            new = 0
            for run, shift in runs:
                new |= (row & run) >> shift
            out.append(new)
        return Graph._raw(len(out), tuple(out))

    def without(self, removed: Iterable[int]) -> "Graph":
        return self.induced_on(set(range(self.n)).difference(removed))

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Image under the permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        rows = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.rows[u]):
                rows[perm[u]] |= 1 << perm[v]
        return Graph._raw(self.n, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph({self.n}, edges={list(self.edges())})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ── rank ─────────────────────────────────────────────────────────


def _bareiss(matrix: list[list[int]]) -> list[int]:
    """The pivot columns of a fraction-free elimination of an integer
    matrix, column by column; there are as many as its rank over Q.  The
    matrix is left with pivot row k in row k, exact from its pivot on.

    A column that is zero in every row not yet a pivot row is skipped.
    Otherwise a row nonzero there becomes the pivot row, and each later
    row becomes (row[j] * pivot - head * prow[j]) // prev for j > c: by
    Sylvester's identity (Bareiss, Math. Comp. 22, 1968) its entries are
    then the minors on the pivot rows and columns plus its own row and
    column, and prev the last pivot minor, so each division is exact.

    A row whose head is 0 would only be multiplied by pivot / prev.  It
    is left alone, with div[i] the pivot at which it was last updated (1
    before any): the skipped factors telescope to prev / div[i], so it
    stands for row * prev / div[i].  An update divides by div[i] in place
    of prev, and a pivot row first becomes row * prev // div[r]; both
    results are minors, so both divisions are exact."""
    nrows = len(matrix)
    prev = 1
    div = [1] * nrows
    pivots = []
    for c in range(len(matrix[0]) if nrows else 0):
        r = len(pivots)
        pi = next((i for i in range(r, nrows) if matrix[i][c]), None)
        if pi is None:
            continue
        matrix[r], matrix[pi] = matrix[pi], matrix[r]
        div[r], div[pi] = div[pi], div[r]
        prow = matrix[r]
        if div[r] != prev:
            prow[c:] = [x * prev // div[r] for x in prow[c:]]
        pivot = prow[c]
        for i in range(r + 1, nrows):
            row, head = matrix[i], matrix[i][c]
            if head:
                for j in range(c + 1, len(prow)):
                    row[j] = (row[j] * pivot - head * prow[j]) // div[i]
                div[i] = pivot
        prev = pivot
        pivots.append(c)
    return pivots


def _kernel(matrix: list[list[int]], pivots: list[int]) -> list[tuple[int, ...]]:
    """An integer basis of the kernel of a matrix that _bareiss left with
    these pivot columns, one row per column.  Its vector for a free column
    f has d, the last pivot, in column f and 0 in the other free columns.
    Its pivot entries are then -adj(M) times f's entries in the pivot rows,
    M the pivot minor of determinant d: integers, so the back substitution x_c = -sum_{j>c}
    U[c][j] x_j // U[c][c] through the pivot rows divides exactly."""
    n = len(matrix[0])
    d = matrix[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [d if j == f else 0 for j in range(n)]
        for row, c in reversed(list(zip(matrix, pivots))):
            x[c] = -sum(row[j] * x[j] for j in range(c + 1, n)) // row[c]
        basis.append(x)
    return list(zip(*basis))


# The certificate's prime, p = 2^15 - 19, so that 2^15 = 19 (mod p).
_P = 32749
# Orders whose rank mod p is their rank over Q: by Hadamard's
# inequality an r x r 0/1 minor is at most r^(r/2) <= 9^4.5 = 19683 < p
# in absolute value, so it vanishes mod p only when it vanishes.
_EXACT_ORDER = 9
_LANE = 40
_LANE_MASK = (1 << _LANE) - 1
_FOLD_EVERY = 64
# A singular matrix of order n > 9 gets the span certificate when its
# rank mod p is at most n / _SPAN_SHARE.  The certificate costs about
# r^2 operations on packed rows whose lanes grow with r, Bareiss about
# r n^2 scalar ones.  On a 2-vCPU Xeon (Python 3.11.7), mod-p pass and
# certificate against Bareiss alone: extremal graphs of rank 8 / 10 / 12
# (order 30 / 62 / 126), 0.20 / 0.60 / 2.2 against 0.19 / 0.91 / 4.2 ms;
# dense reduced singular graphs of rank 50 / 84 / 125 (order 60 / 100 /
# 150), with no cutoff, 8.7 / 80 / 483 against 3.5 / 17 / 73 ms.
# Of these, only rank 8 is under the cutoff yet faster by Bareiss.
_SPAN_SHARE = 3


_BINARY = bytes.maketrans(b"01", b"\0\1")


def _pack(rows: Sequence[int], n: int, width: int) -> list[int]:
    """The 0/1 row bitmasks of n bits, each as one integer with entry v in
    lane v of `width` bits (a multiple of 8), in one pass through bytes:
    the rows' bytes as one integer, in binary below a leading 1, give all
    entries in reverse, set as bytes 0 and 1 width/8 bytes apart."""
    size, step = (n + 7) // 8, width // 8
    span = 8 * size * step  # bytes per packed row
    joined = b"".join([row.to_bytes(size, "little") for row in rows])
    digits = format(int.from_bytes(joined + b"\1", "little"), "b").encode()
    out = bytearray(span * len(rows))
    out[::step] = digits[:0:-1].translate(_BINARY)
    return [int.from_bytes(out[span * i:span * i + span], "little")
            for i in range(len(rows))]


def _fold(x: int, lo: int, hi: int) -> int:
    """x with every lane replaced by a smaller one congruent to it mod p,
    by the rule 2^15 = 19: three rounds take lanes below 2^40 to lanes
    below 2^29.3, 2^18.7, then 2^15 + 228 < 2p."""
    x = (x >> 15 & hi) * 19 + (x & lo)
    x = (x >> 15 & hi) * 19 + (x & lo)
    return (x >> 15 & hi) * 19 + (x & lo)


def _rank_mod_p(rows: Sequence[int], n: int) -> tuple[int, list[tuple[int, int]]]:
    """The rank r_p modulo p of the 0/1 matrix A with these row bitmasks,
    and the (0/1 row, column) of each pivot, in the order found.  The rank
    over Q is at least r_p: the pivot rows B and columns C hold a minor
    that is nonzero mod p, hence a nonzero integer.

    Each row is one integer with entry v in lane v (bits 40v..40v+39).
    Column phase: a row y becomes (y >> 40) + f*neg, f its lane 0, the
    current column, over the pivot mod p, and neg 3p - b for the pivot
    row's lanes b folded below 3p, so no lane borrows.  Once every live row
    is 0 mod p in lane 0, they hold the Schur complement S of the pivots,
    and r_p is their count plus rank S.  Row phase: each row y of S is
    reduced, in pivot order, by a basis of rows in [0, p), each 0 below
    its pivot, its lowest nonzero lane: y += f*neg with f = y_c / b_c and
    neg = 3p - b clears lane c of y mod p and keeps lower lanes mod p.
    Folded and brought into [0, p) (a lane below 2p loses p when lane +
    2^16 - p reaches bit 16), y is 0 exactly when the basis, in echelon
    form, spans it; else it joins the basis with a pivot of its own.

    The pivot rows so reduced, in the order found, are R = L A[B, :] with L
    unit lower triangular, and R[:, C] is upper triangular with a diagonal
    nonzero mod p, as each row is 0 mod p on the pivots found before it:
    the leading minors of A[B, C], those of R[:, C], are nonzero mod p.

    A column step or a reduction adds less than p*3p to a lane, so lanes
    below 2^16 stay under 2^16 + 64*3p^2 < 2^37.6 < 2^40 for 64 of them:
    lanes are folded every 64 column steps, and a row of S before every 64
    reductions and at its end.
    """
    ones = ((1 << _LANE * n) - 1) // _LANE_MASK  # 1 in each of n lanes
    lo, hi, three_p = ones * 0x7FFF, ones * ((1 << _LANE - 15) - 1), ones * 3 * _P
    live = _pack(rows, n, _LANE)
    sources = list(rows)  # the 0/1 row each live row came from
    pivots = []
    for step in range(n):
        if step and step % _FOLD_EVERY == 0:
            live = [_fold(y, lo, hi) for y in live]
        for at, y in enumerate(live):
            if (y & _LANE_MASK) % _P:
                break
        else:
            break
        pivot = live.pop(at)
        pivots.append((sources.pop(at), step))
        inv = pow(pivot & _LANE_MASK, -1, _P)
        neg = (three_p - _fold(pivot, lo, hi)) >> _LANE
        three_p >>= _LANE
        live = [(y >> _LANE) + (y & _LANE_MASK) * inv % _P * neg for y in live]
    else:
        return len(pivots), pivots
    to_bit_16 = ones * ((1 << 16) - _P)
    basis = []  # (shift to the pivot lane, 1 / pivot, neg), in pivot order
    for source, y in zip(sources, live):  # lane 0, column step, is 0 mod p
        for at in range(0, len(basis), _FOLD_EVERY):
            y = _fold(y, lo, hi)
            for shift, inv, neg in basis[at:at + _FOLD_EVERY]:
                y += (y >> shift & _LANE_MASK) * inv % _P * neg
        y = _fold(y, lo, hi)
        y -= (y + to_bit_16 >> 16 & ones) * _P
        if y:
            shift = ((y & -y).bit_length() - 1) // _LANE * _LANE
            insort(basis, (shift, pow(y >> shift & _LANE_MASK, -1, _P), three_p - y))
            pivots.append((source, step + shift // _LANE))
    return len(pivots), pivots


def _span_certified(rows: Sequence[int], pivots: list[tuple[int, int]]) -> bool:
    """Whether the pivot rows B of the 0/1 matrix A, given with their
    pivot columns C, span every row of A over Q, where M = A[B, C] is
    nonsingular mod p.  Then rank A = r = |B|: det M != 0 gives >= r.

    A fraction-free Gauss-Jordan pass over the integer rows A[B, :],
    pivoting on c_0, c_1, ... in order, turns row k into Z_k, where Z =
    d M^-1 A[B, :] and d = det M: Z_k has d in column c_k and 0 in the
    other columns of C.  Its pivots are the leading minors of M, nonzero
    mod p (_rank_mod_p), so no row exchange is needed.  A row x lies in
    the span of A[B, :] iff d x is the sum of the Z_k with x[c_k] = 1
    (the coefficients must be x[C] M^-1).  If p divides a minor, some
    row fails and the answer is False.

    Rows are packed in lanes of `width` bits, a multiple of 8, and a
    step sets z_i to the integer (pv*z_i - h*z_k) // prev: that is prev
    times the packed new row whatever carries pass between lanes, so the
    division is exact.  Each stored entry is, up to sign, a minor of
    A[B, :] (Cramer's rule), so at most H = sqrt(prod of the degrees of
    B) in absolute value by Hadamard's inequality, and a lane of the
    final sums is at most r H.  With 2^(width-2) > (r+1) H every lane
    lies in [-2^(width-1), 2^(width-1)), so a lane reads back exactly (a
    rounding shift drops the lanes below it and a 2^(width-1) offset
    makes it non-negative) and equal packed integers have equal lanes.
    Twin rows are checked once.
    """
    r = len(pivots)
    degrees = prod(row.bit_count() for row, _ in pivots)
    width = (((r + 1) * (isqrt(degrees) + 1)).bit_length() + 9) // 8 * 8
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    packed = dict(zip(rows, _pack(rows, len(rows), width)))
    z = [packed[row] for row, _ in pivots]
    prev = 1
    for k, (_, c) in enumerate(pivots):
        shift = width * c
        offset = (half << shift) + (1 << shift >> 1)
        zk = z[k]
        pv = ((zk + offset) >> shift & mask) - half
        for i, y in enumerate(z):
            if i != k:
                h = ((y + offset) >> shift & mask) - half
                z[i] = (pv * y - h * zk) // prev
        prev = pv
    spans = [(1 << c, zk) for (_, c), zk in zip(pivots, z)]
    return all(prev * y == sum(zk for bit, zk in spans if x & bit)
               for x, y in packed.items())


def rank(g: Graph) -> int:
    """Exact rank over Q of the adjacency matrix of g.

    Above order 9, g's twin quotient (reduce_graph, same rank) is used.
    Its rank mod p = 32749, r_p, is a lower bound, and it is the rank
    when r_p = n; when n <= 9, as Hadamard's inequality keeps every
    minor below p; or when r_p <= n/3 and the span certificate, an
    integer Gauss-Jordan pass on the r_p pivot rows, proves that they
    span every row.  Otherwise (a higher r_p, or p dividing a minor that
    decides the rank) the rank comes from fraction-free Bareiss
    elimination on integers.
    """
    if g.n > _EXACT_ORDER:
        g = reduce_graph(g)
    found, pivots = _rank_mod_p(g.rows, g.n)
    if found == g.n or g.n <= _EXACT_ORDER or (
            _SPAN_SHARE * found <= g.n and _span_certified(g.rows, pivots)):
        return found
    matrix = [[g.rows[u] >> v & 1 for v in range(g.n)] for u in range(g.n)]
    return len(_bareiss(matrix))


# ── reducedness ──────────────────────────────────────────────────


def is_reduced(g: Graph) -> bool:
    """No isolated vertices and no duplicated neighborhoods."""
    return all(g.rows) and len(set(g.rows)) == g.n


def reduce_graph(g: Graph) -> Graph:
    """Delete isolated vertices and keep the first vertex of each
    duplication class; the result is reduced and has g's rank, and is g
    itself when g is reduced.

    One pass suffices.  A kept vertex keeps a neighbour, because the kept
    twin of a deleted neighbour is adjacent to it too.  Two kept vertices
    that differed on a deleted twin also differ on its kept twin, or on
    each other."""
    # row -> its first vertex, which comes last when zipped backwards
    first = dict(zip(g.rows[::-1], range(g.n - 1, -1, -1)))
    first.pop(0, None)
    return g if len(first) == g.n else g.induced_on(first.values())


def neighborhood_symdiff(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """Vertices adjacent to exactly one of u, v.  Contains u and v
    themselves exactly when they are adjacent."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        raise ValueError("vertices must be distinct")
    return tuple(_bits(g.rows[u] ^ g.rows[v]))


def _min_symdiff_pair(g: Graph) -> tuple[int, int, int]:
    """(u, v, |symdiff|) minimizing the symmetric difference size over
    non-adjacent pairs; ties resolved by lexicographic (u, v).  Requires
    g not complete, which both callers check first."""
    rows, best = g.rows, (0, 0, g.n + 1)  # no symmetric difference is larger
    for u, row in enumerate(rows):
        for v in range(u + 1, g.n):
            if not row >> v & 1:
                size = (row ^ rows[v]).bit_count()
                if size < best[2]:
                    best = (u, v, size)
    return best


def _require_reduced_noncomplete(g: Graph, what: str) -> None:
    if not is_reduced(g):
        raise ValueError(f"{what} requires a reduced graph")
    if g.is_complete:
        raise ValueError(f"{what} is undefined for complete graphs")


def min_removal_for_duplicates(g: Graph) -> int:
    """Least k such that removing some k vertices leaves duplicated
    vertices: the minimum |N(u) xor N(v)| over non-adjacent pairs.
    Requires g reduced and not complete."""
    _require_reduced_noncomplete(g, "min_removal_for_duplicates")
    return _min_symdiff_pair(g)[2]


# The rank-drop search is refused before it ranks a subset when it has
# more class subsets to rank than this.  Ranking one costs at most 25 us
# (7-10 rows of N = 10; 2-vCPU Xeon, Python 3.11.7), 1.2 s at the cap;
# the slowest search within it found, C_22(1, 2, 3, 4, 5, 11) (N = 10,
# 35,442 subsets), takes 0.43-0.51 s with no early stop.
RHO_SUBSET_CAP = 50_000


class SearchCapError(ValueError):
    """An exhaustive search would go past its declared cap."""


def min_removal_for_rank_drop(g: Graph) -> int:
    """Least k such that deleting some k vertices lowers the rank.

    Lemma: deleting S lowers the rank r of A iff the rows outside S miss
    some of the row space (ker A)^perp, iff it holds a nonzero y = Ax zero
    outside S, iff the rows K[S] of a kernel basis K are dependent.  If
    they span it, r of them, I, do; A = A[:, I] D by symmetry, so A[I, I]
    D = A[I, :] makes A[I, I] nonsingular (Kotlov and Lovász, J. Graph
    Theory 23, 1996) and the principal submatrix left keeps rank r.

    Twins share every coordinate of y, isolated vertices have none, so
    rho is the least weight (vertex count) of a dependent set of rows of
    K on the twin quotient, one row per class.  Bounds: every degree (A
    e_v) and every |N(u) xor N(v)| (A(e_u - e_v)), before any rank, and
    the N + 1 lightest classes for nullity N.  Lighter sets of at most N
    classes are ranked on K, unless SearchCapError refuses them first.
    """
    classes = Counter(row for row in g.rows if row)
    if not classes:
        raise ValueError("rank drop needs at least one edge")
    diffs = (a ^ b for a, b in combinations(classes, 2))
    cap = min(map(int.bit_count, chain(classes, diffs)))
    q = reduce_graph(g)  # vertex i of q is the i-th key of classes
    weight = list(classes.values())
    if cap == 1 or _rank_mod_p(q.rows, q.n)[0] == q.n:
        return min(cap, *weight)
    matrix = [[q.rows[u] >> v & 1 for v in range(q.n)] for u in range(q.n)]
    pivots = _bareiss(matrix)
    nullity = q.n - len(pivots)
    best = min(cap, sum(sorted(weight)[:nullity + 1]))
    sizes = range(1, min(best, nullity + 1))
    if sum(comb(q.n, k) for k in sizes) > RHO_SUBSET_CAP:
        raise SearchCapError(f"rho could rank more than {RHO_SUBSET_CAP} "
                             "class subsets (RHO_SUBSET_CAP); refused")
    kernel = _kernel(matrix, pivots)
    for k in sizes:
        for subset in combinations(range(q.n), k):
            light = sum(weight[c] for c in subset)
            if light < best and len(_bareiss([list(kernel[c]) for c in subset])) < k:
                best = light
    return best


# ── duplication witness ──────────────────────────────────────────


@dataclass(frozen=True)
class DuplicationWitness:
    """A maximum-order induced subgraph with duplicated vertices.

    `pair` is the closest non-adjacent pair and `removed` its
    neighborhood symmetric difference, so |removed| equals
    min_removal_for_duplicates and the pair is duplicated in what
    remains.  `classes` are the duplication classes of the remaining
    subgraph, in original labels; each is a pair whose members differ
    exactly on `removed` (see _two_sided_split).  When some
    orientation of the pairs lets the removed vertices split into T1
    (adjacent to the first member of every oriented pair, to no second
    member) and T2 (symmetrically), the split is reported in t1/t2 with
    the orientation in `oriented`; otherwise split_ok is False and all
    three are None, which is a legitimate outcome, not an error.
    `isolated` is the smallest isolated vertex of the remaining
    subgraph, if any.
    """
    pair: tuple[int, int]
    removed: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    oriented: Optional[tuple[tuple[int, int], ...]]
    t1: Optional[tuple[int, ...]]
    t2: Optional[tuple[int, ...]]
    isolated: Optional[int]
    split_ok: bool


def duplication_witness(g: Graph) -> DuplicationWitness:
    """Witness for a reduced, non-complete graph; see DuplicationWitness."""
    _require_reduced_noncomplete(g, "duplication_witness")
    u, v, _size = _min_symdiff_pair(g)
    removed = neighborhood_symdiff(g, u, v)
    keep_mask = ((1 << g.n) - 1) ^ (g.rows[u] ^ g.rows[v])

    groups: dict[int, list[int]] = {}
    for w in _bits(keep_mask):
        groups.setdefault(g.rows[w] & keep_mask, []).append(w)
    classes = sorted(tuple(vs) for vs in groups.values() if len(vs) >= 2)
    isolated_list = sorted(w for w in _bits(keep_mask)
                           if g.rows[w] & keep_mask == 0)
    isolated = isolated_list[0] if isolated_list else None

    oriented, t1, t2, split_ok = _two_sided_split(g, removed, classes)
    return DuplicationWitness((u, v), removed, tuple(classes), oriented,
                              t1, t2, isolated, split_ok)


def _two_sided_split(g: Graph, removed: tuple[int, ...],
                     classes: list[tuple[int, ...]]):
    """Orient the k duplication pairs so that every removed vertex is
    adjacent either to all first members and no second member (T1) or
    the other way around (T2).

    Each class is a pair {a, b} with N(a) xor N(b) = removed.  Its
    members agree outside `removed` and are not adjacent (each would be
    its own neighbour), so N(a) xor N(b) lies in `removed`, and as a
    non-adjacent pair's difference it is no smaller; so the two are
    equal.  A third member c would give N(b) xor N(c) = removed xor
    removed, empty, in a reduced graph.  So `removed` is not empty, and
    each removed vertex sees exactly one member of each pair.

    The first removed vertex fixes the orientation up to turning every
    pair around: its neighbour goes first.  Turning every pair around
    swaps T1 and T2, so of the two answers the one that keeps the last
    pair as listed is returned.  Each removed vertex is then checked
    once against that orientation."""
    row = g.rows[removed[0]]
    oriented = [(a, b) if row >> a & 1 else (b, a) for a, b in classes]
    if oriented[-1] != classes[-1]:
        oriented = [(b, a) for a, b in oriented]
    first = sum(1 << a for a, _ in oriented)
    second = sum(1 << b for _, b in oriented)
    t1 = tuple(w for w in removed if g.rows[w] & (first | second) == first)
    t2 = tuple(w for w in removed if g.rows[w] & (first | second) == second)
    if len(t1) + len(t2) < len(removed):
        return None, None, None, False
    return tuple(oriented), t1, t2, True


# ── order bounds ─────────────────────────────────────────────────


def conjectured_max_order(r: int) -> int:
    """The conjectured maximum order of a reduced graph of rank r:
    2^((r+2)/2) - 2 for even r, 5 * 2^((r-3)/2) - 2 for odd r."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    if r % 2 == 0:
        return 2 ** ((r + 2) // 2) - 2
    return 5 * 2 ** ((r - 3) // 2) - 2


def proven_max_order(r: int) -> int:
    """The proven order bound 8 * conjectured_max_order(r) + 14."""
    return 8 * conjectured_max_order(r) + 14
