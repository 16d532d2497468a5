"""Isomorph-free enumeration, canonical labeling, census verification,
the extremal construction, the max-order inequalities, and the
per-graph property suite.

Counts are pinned to the classical sequence of graphs on n unlabeled
vertices (1, 2, 4, 11, 34, 156, 1044, ...), with a brute-force orbit
count as an independent check at small orders.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from redrank import census
from redrank.census import (ORDER_CAP, CensusReport, EnumerationCapError,
                            ExtremalConstructionError, _accepts,
                            _canonical_order, _extend,
                            _refine, canonical_cert,
                            census_counts, construct_extremal,
                            enumerate_graphs, lemma_suite, verify_conjecture,
                            verify_m_inequalities)
from redrank.formats import graph6_decode, graph6_encode
from redrank.graphs import (Graph, conjectured_max_order, is_reduced,
                            min_removal_for_rank_drop, rank)

KNOWN_COUNTS = [1, 2, 4, 11, 34, 156, 1044]


def canonical_form(g):
    """The canonically labeled representative of g's isomorphism class."""
    _, order, _ = _canonical_order(g)
    position = [0] * g.n
    for pos, v in enumerate(order):
        position[v] = pos
    return g.relabeled(position)


def _random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def _brute_force_class_count(n):
    """Count isomorphism classes by exhausting labeled graphs and
    permutations; independent of the canonical-labeling machinery."""
    m = n * (n - 1) // 2
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    count = 0
    for mask in range(1 << m):
        if mask in seen:
            continue
        count += 1
        for p in perms:
            image = 0
            for idx, (i, j) in enumerate(pairs):
                if mask >> idx & 1:
                    a, b = p[i], p[j]
                    if a > b:
                        a, b = b, a
                    image |= 1 << pairs.index((a, b))
            seen.add(image)
    return count


def test_census_counts_match_known_sequence():
    rows = census_counts(7)
    assert [t for _, t, _ in rows] == KNOWN_COUNTS
    assert [r for _, _, r in rows] == [0, 1, 1, 4, 12, 66, 522]


def test_counts_match_brute_force_small():
    for n in (2, 3, 4, 5):
        assert _brute_force_class_count(n) == KNOWN_COUNTS[n - 1]


def test_enumeration_is_deterministic():
    first = [graph6_encode(g) for g in enumerate_graphs(6)]
    second = [graph6_encode(g) for g in enumerate_graphs(6)]
    assert first == second
    assert len(first) == 156


# SHA-256 of the sorted graph6 strings of enumerate_graphs(order), one
# per line, as the certificate-set enumeration produced them before
# canonical augmentation replaced it.
LEVEL_DIGESTS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
    5: "6d6f843705782883a8ce87faa164796dcdcbc3f2d033fe2e34a8d782c2c6b82a",
    6: "f523cfda15e9d535ce349a3d80bef200e2f85e497064153b7efef1dfd7616d44",
    7: "c3e3c59074a3b2fedbf558a511a4656757b5e8d26e8462f390997ca682ed3be9",
}


def test_levels_are_the_same_sets_of_canonical_forms():
    for order, digest in LEVEL_DIGESTS.items():
        level = sorted(graph6_encode(g) for g in enumerate_graphs(order))
        assert hashlib.sha256("\n".join(level).encode()).hexdigest() \
            == digest, order


def test_canonical_order_ends_at_a_maximum_degree_vertex():
    rng = random.Random(424242)
    for order in range(1, 7):
        for g in enumerate_graphs(order):
            top = max(row.bit_count() for row in g.rows)
            for _ in range(3):
                perm = list(range(order))
                rng.shuffle(perm)
                h = g.relabeled(perm)
                last = _canonical_order(h)[1][-1]
                assert h.rows[last].bit_count() == top
                assert last in _refine(h.rows, (tuple(range(order)),))[-1]


def _refine_by_rescan(rows, cells):
    """Reference equitable refinement: split every cell by neighbour
    counts into the first splitter that splits anything, sub-cells by
    ascending count, and rescan from the first splitter until none does."""
    while True:
        for splitter in cells:
            refined = []
            for cell in cells:
                count = {v: sum(rows[v] >> u & 1 for u in splitter)
                         for v in cell}
                for c in sorted(set(count.values())):
                    refined.append(tuple(v for v in cell if count[v] == c))
            if len(refined) > len(cells):
                cells = tuple(refined)
                break
        else:
            return cells


def test_refine_matches_a_full_rescan():
    rng = random.Random(31337)
    for n in range(1, 11):
        for trial in range(60):
            g = _random_graph(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            if trial % 4 == 0:
                cuts = list(range(1, n))  # discrete
            else:
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            cells = tuple(tuple(order[a:b]) for a, b in
                          zip([0] + cuts, cuts + [n]))
            got = _refine(g.rows, cells)
            assert got == _refine_by_rescan(g.rows, cells), (n, trial)
            for x in got:  # equitable: one count per cell into every cell
                for y in got:
                    assert len({(g.rows[v] & sum(1 << u for u in y))
                                .bit_count() for v in x}) == 1


def _parents(max_order):
    """(form, certificate, found generators) of every class below
    max_order, as `_extend` yields them, from the empty graph on."""
    level = [(Graph.empty(0), 0, [])]
    for order in range(1, max_order):
        yield from level
        level = list(_extend(level, order))
    yield from level


def _children(max_order):
    """(parent, child rows) for every mask on every class below
    max_order that the O(1) filter of _extend lets through: the new
    vertex k has maximum degree."""
    for parent in _parents(max_order):
        k = parent[0].n
        for mask in range(1 << k):
            rows = tuple(row | (mask >> i & 1) << k
                         for i, row in enumerate(parent[0].rows)) + (mask,)
            if mask.bit_count() == max(r.bit_count() for r in rows):
                yield parent, rows


def test_last_cell_rule_loses_no_class():
    """Through order 7, a child that passes the O(1) filter but has its
    new vertex k outside the last cell of its first refinement R(C) is
    dropped unsearched; the class of C still comes out of `_extend` from
    the class of C - w*."""
    grown = {}
    for g, cert, found in _parents(7):
        children = _extend([(g, cert, found)], g.n + 1)
        grown[g.n, cert] = {c for _, c, _ in children}
    dropped = kept = 0
    for parent, rows in _children(7):
        k = len(rows) - 1
        if k in _refine(rows, (tuple(range(k + 1)),))[-1]:
            kept += 1
            continue
        dropped += 1
        child = Graph._raw(k + 1, rows)
        cert, order, _ = _canonical_order(child)
        assert order[-1] != k
        assert cert in grown[k, canonical_cert(child.without((order[-1],)))]
    assert dropped > 0 and kept > 0


def test_extend_keeps_one_child_per_class_of_a_parent():
    """Without known automorphisms every mask of a parent is tried, so
    masks in one orbit give isomorphic children; the per-parent set
    keeps one of each, and the classes are those grown with the found
    generators."""
    for g, cert, found in _parents(7):
        bare = [c for _, c, _ in _extend([(g, cert, [])], g.n + 1)]
        assert len(bare) == len(set(bare))
        assert sorted(bare) == sorted(
            c for _, c, _ in _extend([(g, cert, found)], g.n + 1))


def test_last_cell_rule_saves_searches(monkeypatch):
    """Through order 7 the census runs 1,254 child searches (1,640 with
    every rejection left to the search) and compares 2 children's C - w*
    with their parent by certificate."""
    calls = {"child": 0, "parent": 0}
    search = census._canonical_order

    def counting_search(g, cells=None):
        calls["parent" if cells is None else "child"] += 1
        return search(g, cells)

    monkeypatch.setattr(census, "_canonical_order", counting_search)
    assert [t for _, t, _ in census_counts(7)] == KNOWN_COUNTS
    assert calls == {"child": 1254, "parent": 2}


@pytest.mark.parametrize("parent6, mask, accepted", [
    ("E_Ko", 3, False),
    ("EK~o", 15, False),
    ("Ch", 9, True),
])
def test_augmentation_compares_parents_when_new_vertex_is_not_last(
        parent6, mask, accepted):
    """Children C whose new vertex k lies in the last cell of R(C) but
    is not their canonical last vertex w*: the certificate of C - w*
    decides, and the class of C grows from the class of C - w* only.
    The two order-7 children come from canonical-form parents and are
    rejected.  No such parent through order 8 gives an accepted one, so
    the accepted child is built by hand: the 5-cycle, vertex-transitive,
    so C - w* is isomorphic to C - k whichever vertex the search ends on."""
    parent = graph6_decode(parent6)
    k = parent.n
    rows = tuple(row | (mask >> i & 1) << k
                 for i, row in enumerate(parent.rows)) + (mask,)
    child = Graph._raw(k + 1, rows)
    last = _canonical_order(child)[1][-1]
    assert last != k and k in _refine(rows, (tuple(range(k + 1)),))[-1]
    rest = child.without((last,))
    assert _accepts(child, last, canonical_cert(parent)) is accepted
    assert (canonical_cert(rest) == canonical_cert(parent)) is accepted

    def grown(g):
        return {c for c, _, _ in _extend(
            [(canonical_form(g), canonical_cert(g), [])], k + 1)}

    assert (canonical_form(child) in grown(parent)) is accepted
    assert canonical_form(child) in grown(rest)


def test_enumeration_yields_distinct_classes():
    certs = [canonical_cert(g) for g in enumerate_graphs(7)]
    assert len(certs) == len(set(certs)) == 1044


def test_enumeration_cap():
    assert ORDER_CAP == 10
    with pytest.raises(EnumerationCapError):
        next(enumerate_graphs(11))
    with pytest.raises(EnumerationCapError):
        census_counts(11)
    with pytest.raises(ValueError):
        next(enumerate_graphs(0))


def test_canonical_cert_invariant_under_relabeling():
    rng = random.Random(909090)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_cert(g.relabeled(perm)) == canonical_cert(g)


def test_canonical_cert_separates_nonisomorphic():
    p5 = Graph.path(5)
    c5 = Graph.cycle(5)
    assert canonical_cert(p5) != canonical_cert(c5)


def test_canonical_form_idempotent():
    rng = random.Random(13579)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(2, 8))
        cf = canonical_form(g)
        assert canonical_form(cf) == cf
        assert canonical_cert(cf) == canonical_cert(g)


def test_verify_conjecture_holds_to_six():
    summary = verify_conjecture(6)
    assert summary.holds
    assert summary.violations == ()
    assert summary.covered_ranks == (2, 3)
    assert summary.per_rank_max_order == \
        ((2, 2), (3, 3), (4, 6), (5, 6), (6, 6))
    by_order = {r.order: r for r in summary.reports}
    assert by_order[6].total_graphs == 156
    assert by_order[6].reduced_graphs == 66


def test_deleting_outside_a_nonsingular_principal_set_keeps_rank_and_reducedness():
    # the argument behind covered_ranks, over every reduced graph of
    # orders 3..7
    checked = 0
    for order in range(3, 8):
        for g in enumerate_graphs(order):
            if not is_reduced(g):
                continue
            r = rank(g)
            basis = next(b for b in itertools.combinations(range(order), r)
                         if rank(g.induced_on(b)) == r)
            for w in set(range(order)) - set(basis):
                h = g.without([w])
                assert rank(h) == r and is_reduced(h), (graph6_encode(g), w)
                checked += 1
    assert checked == 189


def test_verify_conjecture_external_stream_matches_internal():
    graphs = [g for order in range(1, 6) for g in enumerate_graphs(order)]
    internal = verify_conjecture(5)
    external = verify_conjecture(5, graphs=iter(graphs))
    assert json.dumps(internal.to_json()) == json.dumps(external.to_json())


def test_verify_conjecture_counts_isomorphic_stream_graphs_once():
    k2, p2 = Graph.complete(2), Graph.path(2)
    summary = verify_conjecture(2, graphs=iter([k2, p2, Graph.empty(1)]))
    by_order = {r.order: r for r in summary.reports}
    assert (by_order[2].total_graphs, by_order[2].reduced_graphs) == (1, 1)
    assert by_order[1].total_graphs == 1
    # a relabeled copy is the same class too
    p4, relabeled = Graph.path(4), Graph.path(4).relabeled([2, 0, 3, 1])
    summary = verify_conjecture(4, graphs=iter([p4, relabeled]))
    assert [r.total_graphs for r in summary.reports] == [0, 0, 0, 1]


def test_verify_conjecture_json_layout():
    summary = verify_conjecture(3)
    assert summary.holds
    assert [r.order for r in summary.reports] == [1, 2, 3]
    blob = summary.to_json()
    assert blob["max_order"] == 3
    assert blob["holds"] is True
    assert isinstance(blob["orders"], list)
    assert blob["violations"] == []


def test_census_report_json_shape():
    summary = verify_conjecture(4)
    rep = summary.reports[-1]
    assert isinstance(rep, CensusReport)
    blob = rep.to_json()
    assert set(blob) >= {"order", "total_graphs", "reduced_graphs",
                         "per_rank_max_order", "violations"}
    assert blob["violations"] == []


def test_census_summary_collects_the_per_order_reports(monkeypatch):
    # a cap of r makes every singular reduced graph a violation, which
    # happens at orders 5 and 6; the summary must list the per-order
    # violations in order and the largest order seen per rank, whether
    # the generator or a shuffled external stream supplies the graphs
    monkeypatch.setattr(census, "conjectured_max_order", lambda r: r)
    graphs = [g for order in range(1, 7) for g in enumerate_graphs(order)]
    largest: dict[int, int] = {}
    singular = [0] * 7
    for g in filter(is_reduced, graphs):
        r = rank(g)
        largest[r] = max(largest.get(r, 0), g.n)
        singular[g.n] += r < g.n
    assert sum(map(bool, singular)) >= 2
    random.Random(6).shuffle(graphs)
    for summary in (verify_conjecture(6), verify_conjecture(6, iter(graphs))):
        assert [len(rep.violations) for rep in summary.reports] == singular[1:]
        assert summary.violations == tuple(
            g6 for rep in summary.reports for g6 in rep.violations)
        assert summary.per_rank_max_order == tuple(sorted(largest.items()))
        assert not summary.holds

        rep = next(rep for rep in summary.reports if rep.violations)
        blob = rep.to_json()
        assert list(blob) == ["order", "total_graphs", "reduced_graphs",
                              "per_rank_max_order", "violations"]
        assert blob["per_rank_max_order"] == {
            str(r): o for r, o in rep.per_rank_max_order}
        assert type(blob["violations"]) is list
        assert blob["violations"] == list(rep.violations)
        blob = summary.to_json()
        assert list(blob) == ["max_order", "orders", "per_rank_max_order",
                              "violations", "covered_ranks", "holds"]
        assert type(blob["violations"]) is list
        assert blob["violations"] == list(summary.violations)


def test_construct_extremal_chain():
    for r in range(2, 9):
        g = construct_extremal(r)
        assert g.n == conjectured_max_order(r)
        assert rank(g) == r
        assert is_reduced(g)
    with pytest.raises(ValueError):
        construct_extremal(1)
    with pytest.raises(ValueError):
        construct_extremal(13)
    assert issubclass(ExtremalConstructionError, RuntimeError)


def test_extremal_graphs_are_distinct_classes():
    certs = {canonical_cert(construct_extremal(r)) for r in range(2, 9)}
    assert len(certs) == 7


def test_verify_m_inequalities_frozen():
    rep = verify_m_inequalities(60)
    assert rep.holds
    assert rep.failures == ()
    assert rep.recurrence_checks == 114
    assert rep.family_i_checks == 1540
    assert rep.family_ii_checks == 1479
    with pytest.raises(ValueError):
        verify_m_inequalities(9)


def test_lemma_suite_frozen_at_order_five():
    rep = lemma_suite(5)
    assert rep.holds
    assert rep.graphs_processed == 18
    got = {c.name: (c.run, c.passed) for c in rep.checks}
    assert got == {
        "neighborhood_removal_rank_drop": (18, 18),
        "rank_drop_le_duplication": (14, 14),
        "order_within_power_bound": (18, 18),
        "duplication_witness_consistent": (14, 14),
        "embedding_inner_product_cap": (18, 18),
    }


def test_lemma_suite_runs_one_rank_drop_search_per_graph(monkeypatch):
    searched = []

    def counted(g):
        searched.append(graph6_encode(g))
        return min_removal_for_rank_drop(g)

    # rho serves both the duplication comparison and the embedding cap
    monkeypatch.setattr(census, "min_removal_for_rank_drop", counted)
    rep = lemma_suite(5)
    assert rep.holds
    assert len(searched) == len(set(searched)) == rep.graphs_processed == 18


def _suite_failures(monkeypatch, graphs, check):
    """The graph6 strings of `graphs` that fail `check` when lemma_suite
    runs on exactly these graphs, as one level."""
    monkeypatch.setattr(census, "_grow", lambda _max_order: iter([graphs]))
    rep = lemma_suite(max(g.n for g in graphs))
    assert {c.name: c.run for c in rep.checks}[check] == len(graphs)
    return {g6 for g6, name in rep.failures if name == check}


def test_embedding_cap_matches_the_plus_minus_one_code(monkeypatch):
    # reference: the rows with 0 as -1 of every reduced graph through
    # order 6, their largest inner product over n, and the cap
    # (n - 2 rho)/n, compared graph by graph with the suite's verdict
    graphs = [g for order in range(2, 7) for g in enumerate_graphs(order)
              if is_reduced(g)]
    assert len(graphs) == 84
    failed = _suite_failures(monkeypatch, graphs,
                             "embedding_inner_product_cap")
    for g in graphs:
        n = g.n
        vecs = [[1 if row >> v & 1 else -1 for v in range(n)]
                for row in g.rows]
        worst = max(Fraction(sum(a * b for a, b in zip(x, y)), n)
                    for x, y in itertools.combinations(vecs, 2))
        within = worst <= Fraction(n - 2 * min_removal_for_rank_drop(g), n)
        assert within, graph6_encode(g)
        assert (graph6_encode(g) not in failed) == within


def test_embedding_cap_is_met_with_equality_on_p4(monkeypatch):
    # P_4 is nonsingular, so rho = 1, and N(0) xor N(2) = {3} has d = 1:
    # its closest rows reach the cap (4 - 2)/4 exactly
    p4 = Graph.path(4)
    assert min_removal_for_rank_drop(p4) == 1
    assert min((a ^ b).bit_count()
               for a, b in itertools.combinations(p4.rows, 2)) == 1
    check = "embedding_inner_product_cap"
    assert _suite_failures(monkeypatch, [p4], check) == set()
    # a cap one removal tighter is missed
    monkeypatch.setattr(census, "min_removal_for_rank_drop", lambda g: 2)
    assert _suite_failures(monkeypatch, [p4], check) == {graph6_encode(p4)}


def test_suite_flags_a_neighborhood_removal_that_drops_too_little(
        monkeypatch):
    # every reduced graph through order 6 passes (the order-6 suite
    # below); P_4 (rank 4) with rank() lying about one removal,
    # N(0) = {1}: its rank 2 read as 3 is a drop of 1 where 2 is required
    p4, real = Graph.path(4), census.rank
    check = "neighborhood_removal_rank_drop"
    assert _suite_failures(monkeypatch, [p4], check) == set()
    liar = p4.without([1])
    monkeypatch.setattr(census, "rank", lambda h: 3 if h == liar else real(h))
    assert _suite_failures(monkeypatch, [p4], check) == {graph6_encode(p4)}


def test_suite_report_json_with_a_failure(monkeypatch):
    # P_4 with rank() misreporting one removal, as in the test above, so
    # the report that to_json renders holds one failure
    p4, real = Graph.path(4), census.rank
    liar = p4.without([1])
    monkeypatch.setattr(census, "rank", lambda h: 3 if h == liar else real(h))
    monkeypatch.setattr(census, "_grow", lambda _max_order: iter([[p4]]))
    rep = lemma_suite(4)
    blob = rep.to_json()
    assert list(blob) == ["max_order", "graphs_processed", "checks",
                          "failures", "holds"]
    assert blob["failures"] == [{"graph6": graph6_encode(p4),
                                 "check": "neighborhood_removal_rank_drop"}]
    assert blob["holds"] is False
    assert json.loads(json.dumps(blob["checks"]))[0] == {
        "name": "neighborhood_removal_rank_drop", "run": 1, "passed": 0}


def test_lemma_suite_full_at_order_six():
    rep = lemma_suite(6)
    assert rep.holds
    assert rep.graphs_processed == 84
    assert all(c.passed == c.run for c in rep.checks)
    with pytest.raises(ValueError):
        lemma_suite(9)
