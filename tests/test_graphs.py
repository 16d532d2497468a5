"""Graph invariants: exact rank, reducedness, removal counts, and the
duplication witness.

The rank is cross-checked against an independent dense Gaussian
elimination over Fraction, against rank computations modulo three large
primes, and against the Bareiss elimination it falls back on.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from redrank import graphs
from redrank.census import construct_extremal, enumerate_graphs
from redrank.formats import graph6_decode
from redrank.graphs import (RHO_SUBSET_CAP, DuplicationWitness, Graph,
                            SearchCapError,
                            _bareiss, _bits, _kernel, _pack, _rank_mod_p,
                            conjectured_max_order,
                            duplication_witness,
                            is_reduced, min_removal_for_duplicates,
                            min_removal_for_rank_drop, neighborhood_symdiff,
                            proven_max_order, rank, reduce_graph)

PETERSEN = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                 (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                                 (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])


def duplication_classes(g):
    """Maximal sets of size >= 2 of vertices sharing a neighborhood.
    Members of a class are pairwise non-adjacent automatically."""
    groups = {}
    for v in range(g.n):
        groups.setdefault(g.rows[v], []).append(v)
    return sorted(tuple(vs) for vs in groups.values() if len(vs) >= 2)


def _fraction_rank(matrix: list[list[int]]) -> int:
    """Reference rank: plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _matrix(g: Graph) -> list[list[int]]:
    return [[g.rows[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]


def _gauss_rank(g: Graph) -> int:
    return _fraction_rank(_matrix(g))


def _modp_rank(g: Graph, p: int) -> int:
    m = [[g.rows[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]
    r = 0
    for col in range(g.n):
        pivot = next((i for i in range(r, g.n) if m[i][col] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(g.n):
            if i != r and m[i][col] % p:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _random_graph(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return Graph.from_edges(n, edges)


def _twin_blowup(rng: random.Random, base: Graph, n: int) -> Graph:
    """An order-n graph with every vertex a twin of a vertex of base and
    every base vertex used, labels shuffled."""
    owner = list(range(base.n)) + [rng.randrange(base.n)
                                   for _ in range(n - base.n)]
    rng.shuffle(owner)
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                if base.rows[owner[a]] >> owner[b] & 1])


def test_graph_construction_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert not g.is_complete
    assert Graph.complete(4).is_complete
    assert Graph.path(4) == g
    assert Graph.cycle(3) == Graph.complete(3)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])


@pytest.mark.parametrize("n, rows, message", [
    (-1, [], "negative order"),
    (3, [0b010, 0b001], "expected 3 rows, got 2"),
    (2, [0b110, 0b001], "row 0 mentions a vertex >= 2"),
    (2, [0b011, 0b001], "loop at vertex 0"),
    (3, [0b010, 0b000, 0b000], "asymmetric edge 0-1"),
])
def test_graph_constructor_validates(n, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(n, rows)


def test_graph_constructor_accepts_valid_rows():
    g = Graph(4, [0b0010, 0b0101, 0b1010, 0b0100])
    assert g == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert Graph(0, []) == Graph.empty(0)
    assert type(g.rows) is tuple and g.rows == (0b0010, 0b0101, 0b1010, 0b0100)
    # a Graph is the value (n, rows): equal ones hash alike, and it is
    # never equal to that tuple itself
    assert hash(g) == hash(Graph.path(4)) and len({g, Graph.path(4)}) == 1
    assert g != Graph.cycle(4) and g != Graph.path(5) and Graph(0, []) != Graph.empty(1)
    assert g != (4, g.rows) and (4, g.rows) != g
    for name, value in (("n", 5), ("rows", Graph.cycle(4).rows)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g == Graph.path(4)


def _induced_reference(g: Graph, keep) -> Graph:
    """Reference induced subgraph: one adjacency bit at a time."""
    kept = sorted(set(keep))
    return Graph.from_edges(len(kept), [
        (a, b) for a, b in itertools.combinations(range(len(kept)), 2)
        if g.rows[kept[a]] >> kept[b] & 1])


def test_induced_on_and_without_match_a_per_bit_reference():
    rng = random.Random(17)
    for n in range(41):
        g = _random_graph(rng, n)
        picks = [rng.randrange(n) for _ in range(n)]  # unsorted, repeats
        keeps = [[], range(n), range(n // 4, 3 * n // 4), range(0, n, 2),
                 rng.sample(range(n), n // 3), picks] + [[n // 2]] * (n > 0)
        for keep in keeps:
            assert g.induced_on(keep) == _induced_reference(g, keep)
        assert g.induced_on(v for v in picks) == _induced_reference(g, picks)
        removed = rng.sample(range(n), rng.randrange(n + 1))
        rest = set(range(n)) - set(removed)
        assert g.without(removed) == _induced_reference(g, rest)
        for bad in (-1, n):
            for keep in ([bad], [*range(n), bad]):
                with pytest.raises(ValueError):
                    g.induced_on(keep)


def test_rank_oracles():
    assert rank(Graph.complete(4)) == 4
    assert rank(Graph.path(4)) == 4
    assert rank(Graph.path(5)) == 4
    assert rank(Graph.cycle(4)) == 2
    assert rank(Graph.cycle(5)) == 5
    assert rank(Graph.cycle(6)) == 6
    assert rank(PETERSEN) == 10
    assert rank(Graph.from_edges(1, [])) == 0
    assert rank(Graph.from_edges(5, [])) == 0
    # complete bipartite K_{3,3} has rank 2
    k33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert rank(k33) == 2


def test_rank_matches_gaussian_reference():
    rng = random.Random(515151)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 12))
        assert rank(g) == _gauss_rank(g)


def test_rank_matches_mod_p():
    primes = (1048583, 1048589, 1048601)
    rng = random.Random(626262)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(2, 14))
        r = rank(g)
        modp = [_modp_rank(g, p) for p in primes]
        # mod-p rank never exceeds the rational rank, and for these
        # primes at this size at least one of them attains it
        assert all(x <= r for x in modp)
        assert max(modp) == r


def _bareiss_rank(g: Graph) -> int:
    return len(_bareiss(_matrix(g)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 200), st.floats(0.3, 0.7), st.integers(0, 2**32))
def test_rank_matches_bareiss_on_dense_graphs(n, density, seed):
    # orders past 64 and 128 cross the periodic lane folds
    g = _random_graph(random.Random(seed), n, density)
    assert rank(g) == _bareiss_rank(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_rank_matches_bareiss_on_small_graphs(n, density, seed):
    # through order 9 the rank mod p is taken as exact, singular or not
    g = _random_graph(random.Random(seed), n, density)
    assert rank(g) == _bareiss_rank(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(0, 150), st.integers(0, 2**32))
def test_rank_matches_bareiss_on_twin_blowups(k, extra, seed):
    rng = random.Random(seed)
    base = _random_graph(rng, k)
    g = _twin_blowup(rng, base, k + extra)
    assert rank(g) == _bareiss_rank(g) == _bareiss_rank(base)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 50), st.floats(0.3, 0.9), st.integers(64, 200),
       st.integers(0, 2**32))
def test_rank_matches_bareiss_on_dense_twin_blowups(k, density, n, seed):
    # the rank mod p lands on both sides of the span certificate's
    # cutoff n/3, with dense rows that need wide lanes
    rng = random.Random(seed)
    base = _random_graph(rng, k, density)
    g = _twin_blowup(rng, base, n)
    assert rank(g) == _bareiss_rank(g) == _bareiss_rank(base)


@pytest.mark.parametrize("r", range(4, 13))
def test_low_rank_blowups_never_reach_bareiss(r, monkeypatch):
    # shaped like the benchmark stream's blow-ups; orders past 64 and 128
    # cross the periodic lane folds.  Bareiss may decide on the twin
    # quotient, the base itself, below rank 8, but never at the blow-up's
    # order; from rank 8 on, 3r <= m(r) and the span certificate decides,
    # taking the pivots of the row phase in the order found
    def refuse_large(matrix):
        assert r < 8, "Bareiss ran where the span certificate applies"
        assert len(matrix) <= base.n, "Bareiss ran at the blow-up's order"
        return _bareiss(matrix)

    base = construct_extremal(r)  # which checks its own rank
    monkeypatch.setattr(graphs, "_bareiss", refuse_large)
    rng = random.Random(r)
    for n in sorted({max(base.n, 3 * r), 70, 130, 150}):
        if n >= base.n:
            assert rank(_twin_blowup(rng, base, n)) == r


def test_rank_mod_p_row_phase_matches_bareiss(monkeypatch):
    # vertex 1 a twin of vertex 0 leaves column 1 without a pivot, so every
    # later row is ranked one at a time, against more than 128 basis rows,
    # crossing the row phase's folds.  Every lane reaching a fold is below
    # the docstring's bound 2^16 + 64*3p^2, which is what keeps a row from
    # carrying out of its 40-bit lanes.  Twins leave the rank mod p alone,
    # so the quotient, ranked column by column, agrees.
    fold = graphs._fold

    def checked_fold(x, lo, hi):
        digits = format(x, "x")  # ten hex digits to a lane
        assert max(int(digits[max(0, i - 10):i], 16)
                   for i in range(len(digits), 0, -10)) < 2**16 + 64 * 3 * 32749**2
        return fold(x, lo, hi)

    monkeypatch.setattr(graphs, "_fold", checked_fold)
    rng = random.Random(2012)
    for n in (131, 166, 200):
        base = _random_graph(rng, n - 1, rng.choice([0.3, 0.5, 0.7]))
        owner = [0] + list(range(n - 1))
        g = Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                 if base.rows[owner[a]] >> owner[b] & 1])
        found, pivots = _rank_mod_p(g.rows, n)
        columns = [c for _, c in pivots]
        assert columns[0] == 0 and 1 not in columns and found - 1 > 128
        assert found == _rank_mod_p(base.rows, n - 1)[0] == _bareiss_rank(g)


def _leading_minors(matrix: list[list[int]]) -> list[Fraction]:
    """The leading principal minors of a square matrix, by Fraction
    elimination without row exchanges, up to the first that is 0."""
    m = [[Fraction(x) for x in row] for row in matrix]
    minors, det = [], Fraction(1)
    for k in range(len(m)):
        det *= m[k][k]
        minors.append(det)
        if not det:
            break
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return minors


def test_rank_mod_p_pivots_have_nonzero_leading_minors():
    # the span certificate pivots on the rows and columns in the order
    # _rank_mod_p found them, which the row phase leaves out of column
    # order; every leading minor of A[B, C] must be nonzero mod p
    rng = random.Random(32749)
    unordered = 0
    for t in range(60):
        if t % 3 == 0:
            base = _random_graph(rng, rng.randint(3, 16), rng.choice([0.3, 0.6]))
            g = _twin_blowup(rng, base, rng.randint(base.n, 40))
        elif t % 3 == 1:
            g = _random_graph(rng, rng.randint(10, 40), rng.choice([0.05, 0.15]))
        else:
            g = _twin_blowup(rng, _random_graph(rng, 24, 0.5), 25)
        found, pivots = _rank_mod_p(g.rows, g.n)
        assert found == len(pivots) == _modp_rank(g, 32749)
        minors = _leading_minors([[row >> c & 1 for _, c in pivots]
                                  for row, _ in pivots])
        assert len(minors) == found and all(int(d) % 32749 for d in minors)
        columns = [c for _, c in pivots]
        unordered += columns != sorted(columns)
    assert unordered >= 10


def test_rank_of_twin_blowups_matches_the_full_matrix():
    # the twin quotient's rank lands on both sides of a third of its
    # order, so the quotient's rank comes from the span certificate or
    # from Bareiss; either way it is the blow-up's full-matrix rank
    rng = random.Random(1968)
    bases = [construct_extremal(r) for r in range(4, 10)]
    bases += [_random_graph(rng, rng.randint(1, 20), rng.choice([0.1, 0.5, 0.9]))
              for _ in range(40)]
    sides = set()
    for base in bases:
        g = _twin_blowup(rng, base, rng.randint(max(10, base.n), 60))
        q = reduce_graph(g)
        sides.add((q.n > 9, 3 * rank(q) <= q.n))
        assert rank(g) == _bareiss_rank(g) == _bareiss_rank(base)
    assert {(True, True), (True, False)} <= sides


@pytest.mark.parametrize("n", [3000, 8000])
def test_rank_of_large_edgeless_graphs_runs_on_the_quotient(n):
    start = time.perf_counter()
    assert rank(Graph.empty(n)) == 0
    assert rank(Graph.from_edges(n, [(0, n - 1)])) == 2
    assert time.perf_counter() - start < 1.0


def _dependent_matrix(rng: random.Random, nrows: int, ncols: int):
    """Integer rows spanned by at most min(nrows, ncols) random rows,
    with a random set of columns zero in every row."""
    basis = [[rng.randint(-3, 3) for _ in range(ncols)]
             for _ in range(rng.randint(0, min(nrows, ncols)))]
    zero = set(rng.sample(range(ncols), rng.randint(0, ncols)))
    return [[0 if j in zero else sum(rng.randint(-2, 2) * b[j] for b in basis)
             for j in range(ncols)] for _ in range(nrows)]


def _fraction_echelon(matrix: list[list[int]]) -> tuple[list[int], list[list[Fraction]]]:
    """Fraction elimination with _bareiss's choice of pivot row (the first
    row not yet a pivot row that is nonzero in the column), every later row
    reduced at every pivot: the pivot columns and the rows."""
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pi = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pi is None:
            continue
        m[r], m[pi] = m[pi], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m


def test_bareiss_matches_fraction_elimination():
    # square and non-square shapes, dependent rows and all-zero columns,
    # so the elimination skips columns before, between and after pivots;
    # and banded, sparse and dense signed matrices, where most rows have a
    # zero head at most pivots.  The pivot columns agree, and pivot row k
    # is the fraction row times the pivot minor before it, the previous
    # pivot, from its pivot on.
    assert _bareiss([]) == _bareiss([[]]) == []
    rng = random.Random(1968)

    def dependent() -> list[list[int]]:
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        return _dependent_matrix(rng, nrows, nrows if rng.random() < 0.3 else ncols)

    def banded() -> list[list[int]]:
        n, width = rng.randint(2, 24), rng.randint(1, 3)
        return [[rng.randint(-3, 3) if abs(i - j) <= width else 0
                 for j in range(n)] for i in range(n)]

    def sparse() -> list[list[int]]:
        n, density = rng.randint(2, 24), rng.choice([0.1, 0.3])
        return [[rng.choice([-2, -1, 1, 3]) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]

    def signed() -> list[list[int]]:
        n = rng.randint(2, 24)
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # a repeated row
            matrix[rng.randrange(n)] = matrix[0][:]
        return matrix

    shapes = set()
    for make, count in ((dependent, 300), (banded, 40), (sparse, 40), (signed, 40)):
        for _ in range(count):
            matrix = make()
            want, rows = _fraction_echelon(matrix)
            got = [row[:] for row in matrix]
            pivots = _bareiss(got)
            assert pivots == want and len(pivots) == _fraction_rank(matrix), matrix
            for k, c in enumerate(pivots):
                minor = got[k - 1][pivots[k - 1]] if k else 1
                assert got[k][c:] == [x * minor for x in rows[k][c:]], (matrix, k)
            shapes.add((make.__name__, len(pivots) < min(len(matrix), len(matrix[0]))))
    assert len(shapes) == 8


def test_kernel_beside_the_identity_is_the_adjugate():
    # [M | I] for a nonsingular graph M of order r: the pivots are M's
    # columns 0..r-1, and the kernel vector of free column r + i holds
    # -d M^-1 e_i on them, d the last pivot (+-det M).  So N, minus the
    # kernel's first r rows, has M N = d I and is symmetric, as M is
    count = 0
    for r in range(1, 8):
        for g in enumerate_graphs(r):
            if rank(g) < r:
                continue
            m = _matrix(g)
            matrix = [row + [int(i == j) for j in range(r)]
                      for i, row in enumerate(m)]
            pivots = _bareiss(matrix)
            assert pivots == list(range(r)), g
            d = matrix[r - 1][r - 1]
            adj = [[-x for x in row] for row in _kernel(matrix, pivots)[:r]]
            assert all(sum(m[i][k] * adj[k][j] for k in range(r))
                       == (d if i == j else 0)
                       for i in range(r) for j in range(r)), g
            assert adj == [list(col) for col in zip(*adj)], g
            count += 1
    assert count == 426


def test_rank_of_long_paths_and_cycles_is_fast():
    # reduced, singular and of rank above n/3, so rank pays Bareiss, whose
    # rows with a zero head are left alone
    for g, want in ((Graph.path(601), 600), (Graph.cycle(600), 598)):
        start = time.perf_counter()
        assert rank(g) == want
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 10, 64, 65, 129, 200])
def test_rank_of_empty_and_complete_graphs(n):
    assert rank(Graph.empty(n)) == _bareiss_rank(Graph.empty(n)) == 0
    expected = n if n >= 2 else 0
    assert rank(Graph.complete(n)) == _bareiss_rank(Graph.complete(n)) == expected


# Found by a seeded search (random.Random(32749), G(30, 1/2)): its
# determinant is 78826843 = 2407 * 32749, a nonzero multiple of the
# certificate's prime, so elimination mod p proves nothing and the rank
# must come from the Bareiss fallback.
DET_DIVISIBLE_BY_P = (r"]olvaL~qpAQws}FyDBj?c?xrEgRjV\jc^NRzGwQM?PDkgrPiKynNUBZp_Xwb"
                      r"\jREwVmR@bXpP_")


def _recording_bareiss(monkeypatch) -> list[int]:
    """Route graphs._bareiss through a wrapper that records the
    number of rows of each matrix it eliminates."""
    orders: list[int] = []

    def record(matrix):
        orders.append(len(matrix))
        return _bareiss(matrix)

    monkeypatch.setattr(graphs, "_bareiss", record)
    return orders


def test_rank_falls_back_when_p_divides_the_determinant(monkeypatch):
    g = graph6_decode(DET_DIVISIBLE_BY_P)
    assert g.n == 30
    assert _rank_mod_p(g.rows, g.n)[0] < 30
    orders = _recording_bareiss(monkeypatch)
    assert rank(g) == _bareiss_rank(g) == _gauss_rank(g) == 30
    assert orders == [30]


@pytest.mark.parametrize("width", [8, 16, 40, 64])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 150])
def test_pack_spreads_each_row_into_lanes(n, width):
    # entry v of a row lands in lane v, bits width*v..width*v+width-1,
    # whether the row is zero, full, only bit n - 1, or random
    rng = random.Random(n * width)
    top = [1 << n - 1] if n else []
    rows = [0, (1 << n) - 1, *top] + [rng.getrandbits(n) for _ in range(5)]
    assert _pack(rows, n, width) == [
        sum((row >> v & 1) << width * v for v in range(n)) for row in rows]
    assert _pack([], n, width) == []


@pytest.mark.parametrize("r", range(4, 11))
def test_span_certificate_accepts_twin_blowups_of_extremal_graphs(r):
    # the blow-up keeps the base's rank r, so its r pivot rows span every
    # row; twins share one packed row, checked once against the span
    base = construct_extremal(r)
    g = _twin_blowup(random.Random(r), base, max(3 * r, base.n + 10))
    found, pivots = _rank_mod_p(g.rows, g.n)
    assert found == r < g.n
    assert graphs._span_certified(g.rows, pivots)


def test_span_certificate_refuses_when_p_divides_a_minor(monkeypatch):
    # blown up to order 95 its rank mod p, 29, is within the cutoff n/3,
    # so the span certificate applies; a row outside the span of the 29
    # pivot rows makes it refuse.  rank itself reduces to the order-30
    # twin quotient first, where 3 * 29 > 30, and Bareiss finds the rank
    g = _twin_blowup(random.Random(95), graph6_decode(DET_DIVISIBLE_BY_P), 95)
    found, pivots = _rank_mod_p(g.rows, g.n)
    assert _modp_rank(g, 32749) == found == 29
    assert 3 * 29 <= g.n
    assert not graphs._span_certified(g.rows, pivots)
    orders = _recording_bareiss(monkeypatch)
    assert rank(g) == 30
    assert orders == [30]  # on the twin quotient
    assert _bareiss_rank(g) == 30


def test_rank_invariant_under_relabeling():
    rng = random.Random(737373)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(2, 10))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert rank(g.relabeled(perm)) == rank(g)


def test_duplication_classes():
    assert duplication_classes(Graph.cycle(4)) == [(0, 2), (1, 3)]
    assert duplication_classes(Graph.path(3)) == [(0, 2)]
    assert duplication_classes(Graph.path(4)) == []
    k33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert duplication_classes(k33) == [(0, 1, 2), (3, 4, 5)]


def test_is_reduced():
    assert is_reduced(Graph.path(4))
    assert is_reduced(Graph.cycle(5))
    assert is_reduced(Graph.complete(4))
    assert not is_reduced(Graph.cycle(4))
    assert not is_reduced(Graph.from_edges(3, [(0, 1)]))  # isolated vertex
    assert not is_reduced(Graph.from_edges(1, []))


def _reduce_to_fixpoint(g: Graph) -> Graph:
    """Reference reduction: delete every isolated vertex and every later
    twin, and repeat until a pass deletes nothing."""
    while True:
        seen = set()
        drop = set()
        for v, row in enumerate(g.rows):
            if row == 0 or row in seen:
                drop.add(v)
            seen.add(row)
        if not drop:
            return g
        g = g.without(drop)


def test_reduce_graph():
    red = reduce_graph(Graph.cycle(4))
    assert red.n == 2 and list(red.edges()) == [(0, 1)]
    assert reduce_graph(red) is red
    assert reduce_graph(PETERSEN) is PETERSEN
    rng = random.Random(848484)
    for _ in range(80):
        g = _random_graph(rng, rng.randint(1, 10))
        r = reduce_graph(g)
        assert is_reduced(r) or r.n == 0
        assert rank(r) == rank(g)


def test_reduce_graph_matches_fixpoint_loop():
    rng = random.Random(5150)
    for _ in range(200):
        k, extra = rng.randint(1, 9), rng.randint(0, 12)
        g = _twin_blowup(rng, _random_graph(rng, k), k + extra)
        if rng.random() < 0.5:   # some isolated vertices too
            g = Graph.from_edges(g.n + 2, g.edges())
        assert reduce_graph(g) == _reduce_to_fixpoint(g)


def test_neighborhood_symdiff():
    p4 = Graph.path(4)
    assert neighborhood_symdiff(p4, 0, 2) == (3,)
    assert neighborhood_symdiff(p4, 1, 3) == (0,)
    # adjacent pair includes the endpoints themselves
    c4 = Graph.cycle(4)
    assert neighborhood_symdiff(c4, 1, 3) == ()
    assert set(neighborhood_symdiff(c4, 0, 1)) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        neighborhood_symdiff(p4, 0, 0)
    with pytest.raises(ValueError):
        neighborhood_symdiff(p4, 0, 9)


def test_min_removal_for_duplicates():
    assert min_removal_for_duplicates(Graph.path(4)) == 1
    assert min_removal_for_duplicates(Graph.cycle(5)) == 2
    assert min_removal_for_duplicates(PETERSEN) == 4
    with pytest.raises(ValueError):
        min_removal_for_duplicates(Graph.cycle(4))      # not reduced
    with pytest.raises(ValueError):
        min_removal_for_duplicates(Graph.complete(5))   # complete


def test_min_removal_for_rank_drop():
    assert min_removal_for_rank_drop(Graph.cycle(4)) == 2
    assert min_removal_for_rank_drop(Graph.complete(4)) == 1
    assert min_removal_for_rank_drop(Graph.path(4)) == 1
    assert min_removal_for_rank_drop(PETERSEN) == 1
    with pytest.raises(ValueError):
        min_removal_for_rank_drop(Graph.from_edges(3, []))


def _brute_rho(g: Graph) -> int:
    """The least number of vertices whose deletion from g lowers its
    rank, by exhausting the vertex subsets of g in ascending size."""
    base = rank(g)
    return next(size for size in range(1, g.n + 1)
                if any(rank(g.without(sub)) < base
                       for sub in itertools.combinations(range(g.n), size)))


def test_removal_counts_by_brute_force():
    # independent check of both minimums by exhausting removal subsets of
    # every graph with an edge through order 7, twins and isolated
    # vertices included, and of seeded twin blow-ups through order 12
    rng = random.Random(1616)
    blowups = []
    while len(blowups) < 120:
        base = _random_graph(rng, rng.randint(2, 7), rng.choice([0.3, 0.5, 0.7]))
        g = _twin_blowup(rng, base, rng.randint(base.n, 12))
        if any(g.rows) and not is_reduced(g):
            blowups.append(g)
    graphs = [g for order in range(2, 8) for g in enumerate_graphs(order)]
    for g in filter(lambda g: any(g.rows), graphs + blowups):
        assert min_removal_for_rank_drop(g) == _brute_rho(g), g
    for g in enumerate_graphs(6):
        if not is_reduced(g) or g.is_complete:
            continue
        brute_tau = None
        for size in range(0, g.n - 1):
            if any(duplication_classes(g.without(set(sub)))
                   for sub in itertools.combinations(range(g.n), size)):
                brute_tau = size
                break
        assert min_removal_for_duplicates(g) == brute_tau


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, j) for i in range(a)
                                    for j in range(a, a + b)])


def _circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


# nullity 9, degree 8 and differences of at least 8: every subset of up
# to 7 of its 32 classes (4,514,872) would be ranked
C32_PAST_CAP = _circulant(32, (1, 6, 7, 14))


def test_rank_drop_search_cap(monkeypatch):
    # the twin quotient of K_{a,b} is K_2, nonsingular, so rho is the
    # lighter class: the column space is spanned by the side indicators
    for a in range(1, 11):
        for b in range(a, 11):
            assert min_removal_for_rank_drop(_complete_bipartite(a, b)) == a
    # a nonsingular graph answers 1 with no search, at any order
    assert rank(Graph.cycle(95)) == 95
    assert min_removal_for_rank_drop(Graph.cycle(95)) == 1
    # C_n with 4 | n has nullity 2 and tau 2, so its n single vertices
    # are ranked on K, far within the cap
    for n in (108, 160, 200):
        assert min_removal_for_rank_drop(Graph.cycle(n)) == 2
    g = C32_PAST_CAP
    assert is_reduced(g) and rank(g) == 23
    assert min_removal_for_duplicates(g) == 8
    assert sum(comb(32, k) for k in range(1, 8)) > RHO_SUBSET_CAP
    # the refusal comes after the one elimination, before any K[S] is ranked
    orders = _recording_bareiss(monkeypatch)
    with pytest.raises(SearchCapError, match="RHO_SUBSET_CAP"):
        min_removal_for_rank_drop(g)
    assert orders == [32]


def test_rank_drop_search_ranks_exactly_only_the_base(monkeypatch):
    # C_92 has nullity 2 and degree 2: one order-92 elimination gives its
    # rank and K, and each of its 92 classes is one row of K, ranked alone
    orders = _recording_bareiss(monkeypatch)
    start = time.perf_counter()
    assert min_removal_for_rank_drop(Graph.cycle(92)) == 2
    assert time.perf_counter() - start < 1.5
    assert orders == [92] + [1] * 92


def test_rank_free_bounds_answer_before_any_elimination(monkeypatch):
    # P_601 has rank 600 of 601, so rank pays a full Bareiss, but its
    # degree-1 ends answer first
    orders = _recording_bareiss(monkeypatch)
    start = time.perf_counter()
    assert min_removal_for_rank_drop(Graph.path(601)) == 1
    assert time.perf_counter() - start < 1.0
    assert orders == []


def test_kernel_is_an_integer_basis():
    # A K = 0 over the integers and K has rank N = n - rank, on sparse
    # singular cycles with chords, twin blow-up quotients and dense graphs
    rng = random.Random(1996)
    cases = [_sparse_singular_graph(rng, rng.randint(10, 40)) for _ in range(15)]
    cases += [reduce_graph(_twin_blowup(rng, _random_graph(rng, rng.randint(3, 20),
                                                           rng.choice([0.3, 0.5])), 40))
              for _ in range(15)]
    cases += [_random_graph(rng, rng.randint(2, 40), rng.choice([0.5, 0.8]))
              for _ in range(15)]
    cases += [_circulant(22, (1, 2, 3, 4, 5, 11)), C32_PAST_CAP]
    nullities = set()
    for g in cases:
        matrix = _matrix(g)
        pivots = _bareiss(matrix)
        kernel = _kernel(matrix, pivots)
        nullity = g.n - rank(g)
        assert len(pivots) == rank(g)
        assert len(kernel) == (g.n if nullity else 0)
        columns = list(zip(*kernel))
        assert len(columns) == nullity
        assert len(_bareiss([list(x) for x in columns])) == nullity
        for x in columns:
            assert all(sum(x[v] for v in _bits(row)) == 0 for row in g.rows), g
        nullities.add(nullity)
    assert {0, 1, 2} <= nullities and max(nullities) >= 9


def test_rank_drop_of_a_circulant_matches_exhaustive_deletion():
    # C_20(1, 2, 3, 6): nullity 5 and differences of 6, so subsets of up to
    # 5 classes (21,699) are counted; the search finds a pair
    g = _circulant(20, (1, 2, 3, 6))
    base = rank(g)
    assert base == 15
    assert min_removal_for_rank_drop(g) == 2
    assert not any(rank(g.without([v])) < base for v in range(20))
    assert any(rank(g.without(pair)) < base
               for pair in itertools.combinations(range(20), 2))


def _sparse_singular_graph(rng: random.Random, n: int) -> Graph:
    """C_n with up to three random chords, drawn until it is singular."""
    while True:
        edges = [(v, (v + 1) % n) for v in range(n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        g = Graph.from_edges(n, edges)
        if rank(g) < n:
            return g


def test_rank_drop_matches_exhaustive_deletion():
    # every vertex set of size below rho keeps the rank and some set of
    # size rho lowers it, on sparse singular graphs and twin blow-ups of
    # order 10 to 20 with at most 6,000 such sets; degrees of at least 2
    # make the sparse graphs search class subsets, which the bound mod p
    # clears or an exact rank confirms
    rng = random.Random(1996)
    rhos = []
    for trial in range(80):
        n = rng.randint(10, 20)
        if trial % 2:
            g = _sparse_singular_graph(rng, n)
        else:
            base = _random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5]))
            g = _twin_blowup(rng, base, n)
        rho = min_removal_for_rank_drop(g) if any(g.rows) else 0
        if not rho or sum(comb(n, k) for k in range(1, rho + 1)) > 6000:
            continue
        r = rank(g)
        for size in range(1, rho + 1):
            drops = any(rank(g.without(sub)) < r
                        for sub in itertools.combinations(range(g.n), size))
            assert drops == (size == rho), (g, size, rho)
        rhos.append(rho)
    assert len(rhos) >= 75 and len(set(rhos)) >= 4


def test_each_rank_drop_bound_answers_alone(monkeypatch):
    # C_32(1, 6, 7, 14) plus one vertex x has nullity 8; with degrees and
    # differences of at least 7 the search would rank every subset of up
    # to 6 classes, past the cap.  x brings one rank-free bound down to 1,
    # so that bound must answer alone, before any elimination
    c32 = list(C32_PAST_CAP.edges())
    assert sum(comb(33, k) for k in range(1, 7)) > RHO_SUBSET_CAP
    orders = _recording_bareiss(monkeypatch)
    # x ~ {0}: only the degree 1 answers
    g = Graph.from_edges(33, c32 + [(32, 0)])
    assert min_removal_for_rank_drop(g) == 1
    # x ~ N(1) - {0}: degrees >= 7, and N(x) xor N(1) = {0} answers
    g = Graph.from_edges(33, c32 + [(32, v) for v in (2, 7, 8, 15, 19, 26, 27)])
    assert min(row.bit_count() for row in g.rows) == 7
    assert min_removal_for_rank_drop(g) == 1
    assert orders == []
    assert rank(g) == 25
    assert rank(Graph.from_edges(33, c32 + [(32, 0)])) == 25


@pytest.mark.parametrize("n", [150, 300, 500])
def test_rank_drop_answers_twins_on_the_quotient(n):
    # G(n - 1, 1/2) + twin is singular and not reduced, but its twin
    # quotient G(n - 1, 1/2) is nonsingular and has a class of one
    # vertex, so rho is 1 after one rank pass on the quotient
    rng = random.Random(n)
    g = _twin_blowup(rng, _random_graph(rng, n - 1), n)
    assert not is_reduced(g)
    start = time.perf_counter()
    assert min_removal_for_rank_drop(g) == 1
    assert time.perf_counter() - start < 1.0


def _twin_pairs_on_cycle(k: int, split: bool) -> Graph:
    """C_k with every vertex doubled into a twin pair (i, k + i), and
    vertex 2k adjacent to the first member of each pair.  Without
    `split` vertex 2k + 1 is adjacent to the first members of pairs
    0..k-2 and to the second member of pair k-1, so no orientation of
    the k pairs splits the two extra vertices."""
    edges = [(x, y) for i in range(k) for x in (i, k + i)
             for y in ((i + 1) % k, k + (i + 1) % k)]
    edges += [(2 * k, i) for i in range(k)]
    if not split:
        edges += [(2 * k + 1, i) for i in range(k - 1)]
        edges.append((2 * k + 1, 2 * k - 1))
    return Graph.from_edges(2 * k + (1 if split else 2), edges)


def _split_by_search(g: Graph, w: DuplicationWitness):
    """Reference split: the first of all 2^k orientations of the k pairs,
    by flip mask, under which every removed vertex sees exactly the first
    members (T1) or exactly the second members (T2)."""
    classes = w.classes
    if not classes or any(len(c) != 2 for c in classes):
        return None, None, None, False
    for flips in range(1 << len(classes)):
        oriented = tuple((c[1], c[0]) if flips >> i & 1 else c
                         for i, c in enumerate(classes))
        t1, t2 = [], []
        for x in w.removed:
            firsts = [g.rows[x] >> f & 1 for f, _ in oriented]
            seconds = [g.rows[x] >> s & 1 for _, s in oriented]
            if all(firsts) and not any(seconds):
                t1.append(x)
            elif all(seconds) and not any(firsts):
                t2.append(x)
            else:
                break
        else:
            return oriented, tuple(t1), tuple(t2), True
    return None, None, None, False


def _assert_split_matches_search(g: Graph) -> DuplicationWitness:
    w = duplication_witness(g)
    assert (w.oriented, w.t1, w.t2, w.split_ok) == _split_by_search(g, w)
    return w


def _split_blowup(rng: random.Random, m: int, t: int) -> Graph:
    """A random graph on m vertices with each vertex doubled into a twin
    pair (i, m + i), and t extra vertices that see one member of every
    pair: the members one shared orientation picks, turned around at
    random, or with probability 1/4 members picked at random.  Labels are
    shuffled."""
    base = _random_graph(rng, m)
    edges = [(x, y) for u, v in base.edges()
             for x in (u, m + u) for y in (v, m + v)]
    pick = [rng.randrange(2) for _ in range(m)]
    for e in range(2 * m, 2 * m + t):
        turn = rng.randrange(2)
        mixed = rng.random() < 0.25
        for i in range(m):
            side = rng.randrange(2) if mixed else pick[i] ^ turn
            edges.append((e, i + side * m))
        edges += [(e, f) for f in range(e + 1, 2 * m + t) if rng.random() < 0.5]
    perm = list(range(2 * m + t))
    rng.shuffle(perm)
    return Graph.from_edges(2 * m + t, edges).relabeled(perm)


def test_duplication_witness_split_matches_search():
    for k in (3, 5, 6, 7, 8, 9, 10):   # C_4 has twins, so k = 4 is not reduced
        for split in (True, False):
            w = _assert_split_matches_search(_twin_pairs_on_cycle(k, split))
            assert len(w.classes) == k and w.split_ok == split
    rng = random.Random(7007)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        g = _split_blowup(rng, rng.randint(2, 7), rng.randint(1, 4))
        if not is_reduced(g) or g.is_complete:
            continue
        w = _assert_split_matches_search(g)
        if len(w.classes) >= 2:
            outcomes[w.split_ok] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_duplication_witness_answers_any_number_of_pairs():
    for k in (17, 40):
        w = duplication_witness(_twin_pairs_on_cycle(k, split=False))
        assert len(w.classes) == k and not w.split_ok
        w = duplication_witness(_twin_pairs_on_cycle(k, split=True))
        assert len(w.classes) == k and w.split_ok and w.t1 == (2 * k,)


def test_rho_at_most_tau_plus_structure():
    for g in filter(is_reduced, enumerate_graphs(6)):
        if g.is_complete:
            continue
        assert min_removal_for_rank_drop(g) <= min_removal_for_duplicates(g)


def test_duplication_witness_pairs_differ_exactly_on_removed():
    # why _two_sided_split needs no guard: every class is a pair whose
    # members differ exactly on the removed set, so the first removed
    # vertex sees exactly one member of each
    for order in range(3, 9):
        for g in filter(is_reduced, enumerate_graphs(order)):
            if g.is_complete:
                continue
            w = duplication_witness(g)
            removed = sum(1 << x for x in w.removed)
            assert removed
            for c in w.classes:
                assert len(c) == 2
                assert g.rows[c[0]] ^ g.rows[c[1]] == removed


def test_duplication_witness_oracles():
    w = duplication_witness(Graph.path(4))
    assert w == DuplicationWitness(pair=(0, 2), removed=(3,),
                                   classes=((0, 2),), oriented=((0, 2),),
                                   t1=(), t2=(3,), isolated=None,
                                   split_ok=True)
    w = duplication_witness(Graph.cycle(5))
    assert w.pair == (0, 2)
    assert w.removed == (3, 4)
    assert w.split_ok and w.t1 == (4,) and w.t2 == (3,)
    w = duplication_witness(PETERSEN)
    assert w.pair == (0, 2)
    assert w.removed == (3, 4, 5, 7)
    assert w.classes == ((0, 2), (8, 9))
    assert not w.split_ok and w.oriented is None


def test_duplication_witness_properties():
    for g in filter(is_reduced, enumerate_graphs(7)):
        if g.is_complete:
            continue
        w = duplication_witness(g)
        tau = min_removal_for_duplicates(g)
        assert len(w.removed) == tau
        # the pair really is duplicated once removed is gone: non-adjacent
        # with identical surviving neighborhoods
        u, v = w.pair
        assert not g.rows[u] >> v & 1
        gone = sum(1 << x for x in w.removed) | 1 << u | 1 << v
        assert g.rows[u] & ~gone == g.rows[v] & ~gone
        # and the stored classes agree with a fresh computation, mapped
        # back to original labels
        keep = [x for x in range(g.n) if x not in set(w.removed)]
        fresh = [tuple(keep[i] for i in c)
                 for c in duplication_classes(g.without(set(w.removed)))]
        assert list(w.classes) == fresh
        if w.split_ok:
            keep = set(w.t1) | set(w.t2)
            assert keep == set(w.removed)
            first = {c[0] for c in w.oriented}
            second = {x for c in w.oriented for x in c[1:]}
            for x in w.t1:
                row = g.rows[x]
                assert all(row >> f & 1 for f in first)
                assert not any(row >> s & 1 for s in second)
            for x in w.t2:
                row = g.rows[x]
                assert all(row >> s & 1 for s in second)
                assert not any(row >> f & 1 for f in first)


def test_max_order_values():
    assert [conjectured_max_order(r) for r in range(2, 11)] == \
        [2, 3, 6, 8, 14, 18, 30, 38, 62]
    assert proven_max_order(2) == 30
    assert proven_max_order(6) == 126
    for r in range(2, 40):
        assert proven_max_order(r) == 8 * conjectured_max_order(r) + 14
    for r in range(4, 40):
        assert conjectured_max_order(r) == 2 * conjectured_max_order(r - 2) + 2
    with pytest.raises(ValueError):
        conjectured_max_order(1)


def test_order_bound_variants():
    assert conjectured_max_order(10) == 62
    assert proven_max_order(10) == 510
    with pytest.raises(ValueError):
        proven_max_order(1)


def test_rank_profile():
    # C5 is reduced of rank 5: conjectured cap 8, proven cap 78
    c5 = Graph.cycle(5)
    assert (c5.n, rank(c5), is_reduced(c5)) == (5, 5, True)
    assert conjectured_max_order(rank(c5)) == 8
    assert proven_max_order(rank(c5)) == 78
    assert not is_reduced(Graph.cycle(4))
