"""Isomorph-free enumeration of small graphs and the exhaustive
verifications built on it: the order-vs-rank census, the max-order
arithmetic inequalities, extremal-graph construction, and the
per-graph property suite.

Enumeration grows graphs one vertex at a time by canonical
augmentation (McKay 1998): a representative P of order k gets a new
vertex k with one neighborhood per orbit of P's known automorphisms,
and the child C is kept only when C - w*, for w* the last vertex of
C's canonical order, is isomorphic to P.  So every class grows from
one parent class, and repeats are caught in a set that lives for one
parent.  Canonical orders come from a backtracking search over
equitable vertex partitions with automorphism-orbit pruning; no
external tooling is involved, so runs are reproducible anywhere.  w*
lies in the last cell of C's first equitable refinement, a union of
automorphism orbits, so each class comes from a child whose new vertex
lies in that cell; every other child is dropped before its search,
which starts from that refinement.

A call builds each level once, from the level before, and keeps
nothing between calls: the module holds no graphs, only the previous
level is kept while the next is built, and the last level streams.

Orders up to ORDER_CAP = 10 are accepted; on a 2-vCPU Xeon 8 takes
about 1.8 s and 9 about 34 s, and 10 is a stretch for patient hardware.
Larger orders are rejected outright rather than invited to run for days.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

from .formats import graph6_encode
from .graphs import (Graph, conjectured_max_order, duplication_witness,
                     is_reduced, min_removal_for_duplicates,
                     min_removal_for_rank_drop, proven_max_order, rank)

ORDER_CAP = 10


class EnumerationCapError(ValueError):
    """An exhaustive check asked past its cap: an order above ORDER_CAP
    or an inequality rank above MINEQ_R_CAP."""


# ── canonical labeling ───────────────────────────────────────────


def _refine(rows: Sequence[int], cells: tuple[tuple[int, ...], ...],
            ) -> tuple[tuple[int, ...], ...]:
    """Equitable refinement: split cells by neighbor counts into every
    other cell until stable.  Sub-cells are ordered by count, which
    depends only on the partition, never on vertex labels.  A discrete
    partition cannot split, so it is returned at once."""
    changed = True
    while changed and len(cells) < len(rows):
        changed = False
        for splitter in cells:
            mask = 0
            for v in splitter:
                mask |= 1 << v
            refined: list[tuple[int, ...]] = []
            for cell in cells:
                if len(cell) == 1:
                    refined.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((rows[v] & mask).bit_count(), []).append(v)
                if len(groups) == 1:
                    refined.append(cell)
                else:
                    changed = True
                    for count in sorted(groups):
                        refined.append(tuple(groups[count]))
            if changed:
                cells = tuple(refined)
                break
    return cells


def _orbit_leaders(size: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """For each point of range(size), the least point of its orbit under
    the group the permutations `perms` generate (each the sequence of
    images of range(size)), found by breadth-first search."""
    leader = [-1] * size
    for start in range(size):
        if leader[start] < 0:
            leader[start] = start
            frontier = [start]
            for x in frontier:
                for p in perms:
                    y = p[x]
                    if leader[y] < 0:
                        leader[y] = start
                        frontier.append(y)
    return leader


def _canonical_order(g: Graph,
                     cells: Optional[tuple[tuple[int, ...], ...]] = None,
                     ) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """The canonical certificate (upper-triangle bits of the relabeled
    adjacency matrix as an integer, minimized over leaf labelings), the
    vertex order realizing it, and the automorphisms the search found.

    The search individualizes vertices of the first non-singleton cell;
    a vertex is skipped when an already-known automorphism fixing the
    individualized prefix pointwise maps an earlier sibling to it.  Two
    leaves with equal certificates give an automorphism, kept as the
    sequence of images; they need not generate the whole group.

    The search starts from the first refinement, `_refine` of the unit
    partition, passed in as `cells` by a caller that needs it too.  Every
    later split, by refinement or by individualization, replaces a cell
    by sub-cells in the cell's own place, and an individualized vertex
    goes ahead of the rest of its cell.  So every leaf order lists the
    cells of the first refinement in turn, and the last vertex of the
    canonical order lies in its last cell.  The first refinement splits
    by degree, sub-cells ascending, so that cell holds vertices of
    maximum degree only.
    """
    n, rows = g.n, g.rows
    generators: list[tuple[int, ...]] = []
    if n <= 1:
        return 0, tuple(range(n)), generators
    pairs = n * (n - 1) // 2
    best_cert: Optional[int] = None
    best_order: tuple[int, ...] = ()

    def leaf(cells: tuple[tuple[int, ...], ...]) -> None:
        nonlocal best_cert, best_order
        order = tuple(c[0] for c in cells)
        cert = 0
        for i in range(n):
            row = rows[order[i]]
            for j in range(i + 1, n):
                cert = cert << 1 | (row >> order[j]) & 1
        if best_cert is None or cert < best_cert:
            best_cert, best_order = cert, order
        elif cert == best_cert and order != best_order:
            image = [0] * n
            for pos in range(n):
                image[best_order[pos]] = order[pos]
            generators.append(tuple(image))

    def descend(cells: tuple[tuple[int, ...], ...],
                prefix: tuple[int, ...]) -> None:
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            leaf(cells)
            return
        cell = cells[target]
        tried: list[int] = []
        known = 0  # generators the orbits below were computed from
        leader = range(n)
        for v in cell:
            if tried:
                if len(generators) != known:
                    known = len(generators)
                    leader = _orbit_leaders(n, [
                        p for p in generators
                        if all(p[x] == x for x in prefix)])
                if any(leader[v] == leader[t] for t in tried):
                    continue
            tried.append(v)
            split = (cells[:target] + ((v,), tuple(u for u in cell if u != v))
                     + cells[target + 1:])
            descend(_refine(rows, split), prefix + (v,))

    descend(cells or _refine(rows, (tuple(range(n)),)), ())
    assert best_cert is not None and best_cert < (1 << pairs)
    return best_cert, best_order, generators


def canonical_cert(g: Graph) -> int:
    """Isomorphism-invariant integer certificate; two graphs of the same
    order are isomorphic iff their certificates agree."""
    return _canonical_order(g)[0]


# ── isomorph-free enumeration ────────────────────────────────────


def _check_order(order: int, name: str, what: str) -> None:
    if order < 1:
        raise ValueError(f"{name} must be positive")
    if order > ORDER_CAP:
        raise EnumerationCapError(
            f"{what} capped at order {ORDER_CAP}, got {order}")


# A class as the next level grows from it: canonical form, certificate,
# and automorphisms found by its canonization, in canonical labels.
_Class = tuple[Graph, int, list[tuple[int, ...]]]


def _accepts(child: Graph, last: int, parent_cert: int) -> bool:
    """Whether the child minus `last`, its canonical last vertex, is
    isomorphic to the parent, the child minus its new vertex n - 1."""
    return (last == child.n - 1
            or canonical_cert(child.without((last,))) == parent_cert)


def _extend(parents: Iterable[_Class], order: int) -> Iterator[_Class]:
    """Every class of order `order` once, canonically labeled, from the
    classes of order k = `order` - 1, by canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

    A parent P gets a new vertex k with one neighborhood (a mask) per
    orbit of its found automorphisms on masks.  The child C is kept iff
    C - w* is isomorphic to P = C - k, where w* is the last vertex of
    C's canonical order; a set that lives for one parent drops repeats.

    Why each class comes out exactly once:

    * Any canonical order of C maps to any other by an isomorphism, so
      the class of C - w* does not depend on the labeling: C is kept
      from one parent class only.  From that class it is kept at least
      once, by the child that puts k where some labeling has w*.
    * Masks in one orbit of an automorphism of P give isomorphic
      children with k in corresponding places, so skipping all but the
      least mask of an orbit drops no class.  Every found generator is a
      genuine automorphism: its two leaves had equal certificates.
    * A child whose new vertex k lies outside X, the last cell of R(C),
      the first refinement of C's unit partition, is dropped before any
      search, and the search starts from R(C).  X holds vertices of
      maximum degree only, so a mask giving k less is dropped unrefined.
      No class is lost.  w* lies in X (see `_canonical_order`), and
      `_refine` orders sub-cells by count, never by label, so X is a
      union of Aut(C)-orbits.  Take the child C' that puts k where some
      labeling of C has w*.  Its mask-orbit leader is s(C') for some s
      in Aut(P) fixing k, and it does so too; let C' be the leader.  Two
      canonical orders of one graph differ by an automorphism, so w* =
      t(k) for some t in Aut(C'): k lies in X, and C' - w* is isomorphic
      to C' - k = P, so `_accepts` keeps C'.
    * Within the one parent, isomorphic children can still come from
      masks in different orbits (the found generators need not give
      all of Aut(P), and C can have pseudo-similar vertices), hence the
      per-parent set.

    Representatives are canonical forms, so each level is the same set
    of graphs whichever parent produced a class; only the order of
    generation depends on the method.
    """
    k = order - 1
    for g, cert, generators in parents:
        base = g.rows
        degrees = [row.bit_count() for row in base]
        top = max(degrees, default=0)
        at_top = sum(1 << i for i, d in enumerate(degrees) if d == top)
        images = []
        for p in generators:
            image = [0] * (1 << k)
            for mask in range(1, 1 << k):
                low = mask & -mask
                image[mask] = image[mask ^ low] | 1 << p[low.bit_length() - 1]
            images.append(image)
        leader = _orbit_leaders(1 << k, images)
        kept: set[int] = set()
        for mask in range(1 << k):
            d = mask.bit_count()
            if (leader[mask] != mask or d < top
                    or d == top and mask & at_top):
                continue
            rows = tuple(base[i] | ((mask >> i & 1) << k) for i in range(k)
                         ) + (mask,)
            cells = _refine(rows, (tuple(range(order)),))
            if k not in cells[-1]:
                continue
            child = Graph._raw(order, rows)
            child_cert, label_order, found = _canonical_order(child, cells)
            if (child_cert in kept
                    or not _accepts(child, label_order[-1], cert)):
                continue
            kept.add(child_cert)
            position = [0] * order
            for pos, v in enumerate(label_order):
                position[v] = pos
            yield (child.relabeled(position), child_cert,
                   [tuple(position[p[v]] for v in label_order)
                    for p in found])


def _grow(max_order: int) -> Iterator[Iterable[Graph]]:
    """The levels of orders 1..max_order in turn, each built once from
    the one before (order 1 from the empty graph).  Only the previous
    level is kept; the last one streams."""
    parents: tuple[_Class, ...] = ((Graph.empty(0), 0, []),)
    for order in range(1, max_order):
        parents = tuple(_extend(parents, order))
        yield tuple(g for g, _, _ in parents)
    yield (g for g, _, _ in _extend(parents, max_order))


def enumerate_graphs(order: int) -> Iterator[Graph]:
    """One canonically labeled representative per isomorphism class on
    `order` vertices, in a deterministic first-discovered order.

    Each call builds the levels 1..order once, keeps nothing between
    calls, and streams the last level."""
    _check_order(order, "order", "enumeration")
    for level in _grow(order):
        pass
    yield from level


# ── conjecture census ────────────────────────────────────────────


@dataclass(frozen=True)
class CensusReport:
    """One order's slice of the census: how many isomorphism classes
    exist, how many are reduced, the ranks observed among the reduced
    ones, and any graphs exceeding the conjectured cap for their rank
    (as graph6 strings)."""

    order: int
    total_graphs: int
    reduced_graphs: int
    per_rank_max_order: tuple[tuple[int, int], ...]
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {**asdict(self),
                "per_rank_max_order": {str(r): o for r, o in self.per_rank_max_order},
                "violations": list(self.violations)}


@dataclass(frozen=True)
class ConjectureSummary:
    """Census rows for orders 1..max_order plus the aggregate verdict.

    covered_ranks lists the ranks r with m(r) + 1 <= max_order, m =
    conjectured_max_order.  When the internal census holds, the cap holds
    for each such r at every order.  A reduced graph G of rank r has a
    nonsingular principal r x r submatrix, on a vertex set B, and every
    row of G is fixed by its B-columns (A = A[:,B] A[B,B]^-1 A[B,:]).
    Deleting a vertex outside B keeps the rank r, as A[B,B] stays, and
    keeps G reduced: two equal or zero rows left would be equal or zero
    on B, so already in G.  A violation of order N > m(r) >= r thus
    shrinks to one of order m(r) + 1, which the census would have met.
    For an external stream (verify_conjecture's graphs) the list is
    arithmetic only: the stream need not hold every graph of that order.
    """

    max_order: int
    reports: tuple[CensusReport, ...]
    per_rank_max_order: tuple[tuple[int, int], ...]
    violations: tuple[str, ...]
    covered_ranks: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "max_order": self.max_order,
            "orders": [r.to_json() for r in self.reports],
            "per_rank_max_order": {str(r): o for r, o in self.per_rank_max_order},
            "violations": list(self.violations),
            "covered_ranks": list(self.covered_ranks),
            "holds": self.holds,
        }


def _covered_ranks(max_order: int) -> tuple[int, ...]:
    out = []
    r = 2
    while conjectured_max_order(r) + 1 <= max_order:
        out.append(r)
        r += 1
    return tuple(out)


def verify_conjecture(max_order: int,
                      graphs: Optional[Iterable[Graph]] = None,
                      ) -> ConjectureSummary:
    """Check order <= conjectured_max_order(rank) for every reduced
    graph of order up to max_order.

    By default the internal generator supplies the graphs; an external
    iterable (for example a parsed graph6 stream) can stand in, and is
    then binned by order and pushed through the identical checks.  A
    stream graph isomorphic to an earlier one is counted once, as the
    generator counts its class once.
    """
    _check_order(max_order, "max_order", "census")
    levels: Iterable[Iterable[Graph]]
    if graphs is None:
        levels = _grow(max_order)
    else:
        bins: dict[int, dict[int, Graph]] = {
            o: {} for o in range(1, max_order + 1)}
        for g in graphs:
            if g.n < 1 or g.n > max_order:
                raise ValueError(
                    f"stream graph of order {g.n} outside 1..{max_order}")
            bins[g.n].setdefault(canonical_cert(g), g)
        levels = [b.values() for b in bins.values()]

    reports: list[CensusReport] = []
    for order, pool in enumerate(levels, start=1):
        total = 0
        reduced = 0
        ranks_here: dict[int, int] = {}
        violations: list[str] = []
        for g in pool:
            total += 1
            if not is_reduced(g):
                continue
            reduced += 1
            r = rank(g)
            ranks_here[r] = order
            if order > conjectured_max_order(r):
                violations.append(graph6_encode(g))
        reports.append(CensusReport(order, total, reduced,
                                    tuple(sorted(ranks_here.items())),
                                    tuple(violations)))
    # orders ascend, so the last report holding a rank gives its maximum
    per_rank = dict(chain.from_iterable(r.per_rank_max_order for r in reports))
    return ConjectureSummary(max_order, tuple(reports),
                             tuple(sorted(per_rank.items())),
                             tuple(chain.from_iterable(r.violations for r in reports)),
                             _covered_ranks(max_order))


def census_counts(max_order: int) -> list[tuple[int, int, int]]:
    """(order, total classes, reduced classes) rows for 1..max_order."""
    _check_order(max_order, "max_order", "census")
    counts = (Counter(map(is_reduced, level)) for level in _grow(max_order))
    return [(order, c.total(), c[True]) for order, c in enumerate(counts, start=1)]


# ── max-order arithmetic ─────────────────────────────────────────

# Largest r_max of verify_m_inequalities: its work grows faster than
# r_max^2 (1,000 takes 2.4 s, 2,000 takes 11.5 s), so a larger r_max is
# refused before any work.
MINEQ_R_CAP = 1_000


@dataclass(frozen=True)
class InequalityReport:
    """Exhaustive check of the two split inequalities

        (i)  m(k) + m(r-k)   <= m(r-2) + 1   for r >= 6,  3 <= k <= r-3
        (ii) m(k) + m(r-k+1) <= m(r-2)       for r >= 10, 4 <= k <= r-3

    together with the doubling recurrences m(r) = 2 m(r-2) + 2 and
    m'(r) = 2 m'(r-2) + 2, for all r up to r_max."""

    r_max: int
    recurrence_checks: int
    family_i_checks: int
    family_ii_checks: int
    failures: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**asdict(self), "holds": self.holds}


def verify_m_inequalities(r_max: int) -> InequalityReport:
    if r_max < 10:
        raise ValueError("r_max must be at least 10 to exercise family (ii)")
    if r_max > MINEQ_R_CAP:
        raise EnumerationCapError(
            f"inequality check capped at rank {MINEQ_R_CAP} (MINEQ_R_CAP), "
            f"got {r_max}")
    failures: list[str] = []
    recurrences = 0
    for r in range(4, r_max + 1):
        recurrences += 2
        if conjectured_max_order(r) != 2 * conjectured_max_order(r - 2) + 2:
            failures.append(f"m recurrence fails at r={r}")
        if proven_max_order(r) != 2 * proven_max_order(r - 2) + 2:
            failures.append(f"m' recurrence fails at r={r}")
    fam_i = 0
    for r in range(6, r_max + 1):
        for k in range(3, r - 2):
            fam_i += 1
            lhs = conjectured_max_order(k) + conjectured_max_order(r - k)
            if lhs > conjectured_max_order(r - 2) + 1:
                failures.append(f"family (i) fails at r={r}, k={k}")
    fam_ii = 0
    for r in range(10, r_max + 1):
        for k in range(4, r - 2):
            fam_ii += 1
            lhs = conjectured_max_order(k) + conjectured_max_order(r - k + 1)
            if lhs > conjectured_max_order(r - 2):
                failures.append(f"family (ii) fails at r={r}, k={k}")
    return InequalityReport(r_max, recurrences, fam_i, fam_ii, tuple(failures))


# ── extremal construction ────────────────────────────────────────


class ExtremalConstructionError(RuntimeError):
    """The doubling construction missed its target; carries what was
    actually built so the failure can be inspected."""

    def __init__(self, r: int, g: Graph, reason: str):
        self.r = r
        self.graph = g
        super().__init__(f"extremal candidate for rank {r} {reason}; "
                         f"built {graph6_encode(g)}")


def construct_extremal(r: int) -> Graph:
    """A reduced graph of rank exactly r at the largest conjectured
    order, built by repeated doubling from K_2 (even ranks) or K_3 (odd
    ranks).

    The step from r-2 to r duplicates every vertex (the copy is
    non-adjacent to its original and inherits all its neighbors, which
    leaves the rank unchanged), then adds a vertex w adjacent to every
    original and a pendant vertex u adjacent only to w.  w separates
    each duplicate pair, u and w land in rows of their own, and the two
    new rows raise the rank by exactly 2: pivoting on u's column
    isolates w's row, pivoting on the original-minus-copy difference
    row isolates w's column, and what remains is the doubled matrix.

    Symmetric attachments (joining the second new vertex to all copies
    instead of leaving it pendant) overshoot: they add rank 3 whenever
    the base admits no c with A c = 1 and sum(c) = 2, which already
    happens for K_3.  The advertised properties are therefore verified
    on every result rather than trusted; a miss raises
    ExtremalConstructionError.
    """
    if not 2 <= r <= 12:
        raise ValueError("construction supported for 2 <= r <= 12")
    if r == 2:
        g = Graph.complete(2)
    elif r == 3:
        g = Graph.complete(3)
    else:
        base = construct_extremal(r - 2)
        t = base.n
        w, u = 2 * t, 2 * t + 1
        edges = []
        for i, j in base.edges():
            edges.extend([(i, j), (i, t + j), (t + i, j), (t + i, t + j)])
        edges.extend((w, i) for i in range(t))
        edges.append((u, w))
        g = Graph.from_edges(2 * t + 2, edges)
    if not is_reduced(g):
        raise ExtremalConstructionError(r, g, "is not reduced")
    if g.n != conjectured_max_order(r):
        raise ExtremalConstructionError(
            r, g, f"has order {g.n}, wanted {conjectured_max_order(r)}")
    got = rank(g)
    if got != r:
        raise ExtremalConstructionError(r, g, f"has rank {got}")
    return g


# ── per-graph property suite ─────────────────────────────────────


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    run: int
    passed: int


def _witness_consistent(g: Graph, tau: int) -> bool:
    """The duplication witness must remove exactly tau vertices, leave
    its anchor pair duplicated, and any claimed T1/T2 split must
    re-validate against the adjacency rows.  A failed split with no
    consistent orientation is legitimate and not flagged."""
    w = duplication_witness(g)
    if len(w.removed) != tau:
        return False
    if not any(w.pair[0] in c and w.pair[1] in c for c in w.classes):
        return False
    if not w.split_ok:
        return w.oriented is None and w.t1 is None and w.t2 is None
    assert w.oriented is not None and w.t1 is not None and w.t2 is not None
    if set(w.t1) | set(w.t2) != set(w.removed) or set(w.t1) & set(w.t2):
        return False
    if sorted(tuple(sorted(p)) for p in w.oriented) != sorted(w.classes):
        return False
    for side, mine, other in ((w.t1, 0, 1), (w.t2, 1, 0)):
        for x in side:
            row = g.rows[x]
            if not all(row >> p[mine] & 1 and not row >> p[other] & 1
                       for p in w.oriented):
                return False
    return True


@dataclass(frozen=True)
class PropertySuiteReport:
    """Outcome of running every structural check over every reduced
    graph up to max_order.  The duplication-based checks only apply to
    non-complete graphs (a complete graph has no non-adjacent pair), so
    their run counts are lower."""

    max_order: int
    graphs_processed: int
    checks: tuple[SuiteCheck, ...]
    failures: tuple[tuple[str, str], ...]

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**asdict(self),
                "failures": [{"graph6": g6, "check": name}
                             for g6, name in self.failures],
                "holds": self.holds}


def lemma_suite(max_order: int) -> PropertySuiteReport:
    """Exhaustively re-verify, over every reduced graph on up to
    max_order <= 8 vertices:

      * removing N(v), or N(u) xor N(v), drops the rank by at least 2
        (at least 1 when u and v are adjacent),
      * the rank-drop removal count is at most the duplication count,
      * the order stays below 2^rank,
      * the duplication witness splits both ways consistently,
      * the +-1 row embedding keeps every inner product <= (n - 2 rho)/n.

    The second and the last follow from the row-difference bound that
    min_removal_for_rank_drop puts on rho (deleting N(u) xor N(v), the
    support of A(e_u - e_v), lowers the rank); the first checks the
    premise of that bound by rank, and rho itself is checked against
    exhaustive deletion in test_removal_counts_by_brute_force.
    """
    if not 2 <= max_order <= 8:
        raise ValueError("suite supported for 2 <= max_order <= 8")
    names = ("neighborhood_removal_rank_drop", "rank_drop_le_duplication",
             "order_within_power_bound", "duplication_witness_consistent",
             "embedding_inner_product_cap")
    run = dict.fromkeys(names, 0)
    passed = dict.fromkeys(names, 0)
    failures: list[tuple[str, str]] = []
    processed = 0

    def record(g: Graph, name: str, ok: bool) -> None:
        run[name] += 1
        if ok:
            passed[name] += 1
        else:
            failures.append((graph6_encode(g), name))

    for level in _grow(max_order):
        for g in filter(is_reduced, level):
            processed += 1
            r = rank(g)
            rho = min_removal_for_rank_drop(g)
            drops = [(row, 2) for row in g.rows]
            drops += [(g.rows[u] ^ g.rows[v], 2 - (g.rows[u] >> v & 1))
                      for u, v in combinations(range(g.n), 2)]
            record(g, "neighborhood_removal_rank_drop", all(
                rank(g.without(w for w in range(g.n) if mask >> w & 1))
                <= r - drop for mask, drop in drops))
            record(g, "order_within_power_bound", g.n <= 2 ** r - 1)
            if not g.is_complete:
                tau = min_removal_for_duplicates(g)
                record(g, "rank_drop_le_duplication", rho <= tau)
                record(g, "duplication_witness_consistent",
                       _witness_consistent(g, tau))
            # the code at s0: rows with 0 as -1, scaled by 1/sqrt(n), have
            # inner products (n - 2d)/n with d = |N(u) xor N(v)|, so the
            # cap (n - 2 rho)/n holds iff every d >= rho
            record(g, "embedding_inner_product_cap",
                   min((a ^ b).bit_count()
                       for a, b in combinations(g.rows, 2)) >= rho)
    checks = tuple(SuiteCheck(name, run[name], passed[name]) for name in names)
    return PropertySuiteReport(max_order, processed, checks, tuple(failures))
