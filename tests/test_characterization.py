import functools
import itertools
import random

import pytest

from domatch import (
    CONDITION_IDS,
    DomainError,
    Edge,
    Graph,
    Matching,
    ResourceLimitError,
    check_certificate_conditions,
    connected_components,
    find_certifying_matching,
    is_maximal_matching,
    is_tight_graph,
    is_total_dominating,
    min_degree,
    minimum_maximal_matching,
    parse_edge_list,
    partition_matching,
    support_classification,
    total_dominating_set_from_matching,
    total_domination_number,
)
from domatch.generators import (
    TightGraphParams,
    cycle,
    high_degree_extremal,
    path,
    random_tight_graph,
    spider,
    subdivided_grid,
)

import helpers
from catalogs import connected_catalog


def complete_graph(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def labeled_matching(g, *pairs):
    return Matching(
        Edge.of(g.vertex_with_label(a), g.vertex_with_label(b)) for a, b in pairs
    )


def spider_leg_matching(n):
    return Matching((3 * i + 1, 3 * i + 2) for i in range(n))


def grid_rungs(n):
    return Matching((i, n + 1 + i) for i in range(n + 1))


# ---------------------------------------------------------------------------
# partitioning a maximal matching by support status


def test_partition_spider_legs_lean_on_supports():
    g = spider(2)
    part = partition_matching(g, spider_leg_matching(2))
    assert part.m_plus == ()
    assert sorted(part.m_minus) == [Edge(1, 2), Edge(4, 5)]
    assert part.m_star == ()


def test_partition_grid_rungs_avoid_supports():
    g = subdivided_grid(2)
    part = partition_matching(g, grid_rungs(2))
    assert part.m_plus == part.m_minus == ()
    assert sorted(part.m_star) == [Edge(0, 3), Edge(1, 4), Edge(2, 5)]


def test_partition_path_middle_edge_joins_supports():
    g = parse_edge_list("a b\nb c\nc d")
    part = partition_matching(g, labeled_matching(g, ("b", "c")))
    assert part.m_plus == (Edge(1, 2),)
    assert part.m_minus == part.m_star == ()


def test_partition_mixed_components():
    g = helpers.disjoint_union(parse_edge_list("a b\nb c\nc d"), cycle(6))
    m = Matching([(1, 2), (4, 5), (7, 8)])
    part = partition_matching(g, m)
    assert part.m_plus == (Edge(1, 2),)
    assert part.m_minus == ()
    assert sorted(part.m_star) == [Edge(4, 5), Edge(7, 8)]


def test_partition_classifies_by_endpoint_support_counts():
    pool = list(connected_catalog(5)) + [spider(3), subdivided_grid(2)]
    for g in pool:
        sup = support_classification(g).sup
        for edges in helpers.brute_maximal_matchings(g):
            part = partition_matching(g, Matching(edges))
            pieces = (part.m_plus, part.m_minus, part.m_star)
            assert sorted(e for piece in pieces for e in piece) == sorted(edges)
            for e in part.m_plus:
                assert e.u in sup and e.v in sup
            for e in part.m_minus:
                assert (e.u in sup) != (e.v in sup)
            for e in part.m_star:
                assert e.u not in sup and e.v not in sup


# ---------------------------------------------------------------------------
# the four certificate conditions


def test_conditions_hold_for_spider_legs():
    report = check_certificate_conditions(spider(2), spider_leg_matching(2))
    assert report.holds
    assert dict(report.verdicts) == {"i": True, "ii": True, "iii": True, "iv": True}
    assert report.violations == ()


def test_conditions_hold_for_grid_rungs():
    report = check_certificate_conditions(subdivided_grid(2), grid_rungs(2))
    assert report.holds
    assert tuple(report.verdicts) == CONDITION_IDS


def test_conditions_hold_for_antipodal_pair_on_hexagon():
    report = check_certificate_conditions(cycle(6), Matching([(0, 1), (3, 4)]))
    assert report.holds


def test_perfect_matching_on_square_fails_uniqueness():
    report = check_certificate_conditions(cycle(4), Matching([(0, 1), (2, 3)]))
    assert not report.holds
    assert report.verdicts == {"i": True, "ii": True, "iii": False, "iv": True}
    violation = report.violations[0]
    assert violation.condition == "iii"
    assert violation.vertices[0] == 0
    assert "partner" in violation.message


def test_end_edges_of_path_fail_support_conditions():
    g = parse_edge_list("a b\nb c\nc d")
    report = check_certificate_conditions(g, labeled_matching(g, ("a", "b"), ("c", "d")))
    assert not report.holds
    assert not report.verdicts["i"]
    assert not report.verdicts["ii"]
    for condition, verdict in report.verdicts.items():
        if not verdict:
            assert any(v.condition == condition for v in report.violations)


def test_conditions_reject_wrong_minimum_degree():
    with pytest.raises(DomainError, match=r"minimum degree 3 is outside \{1, 2\}"):
        check_certificate_conditions(complete_graph(4), Matching([(0, 1), (2, 3)]))


def test_conditions_reject_non_maximal_matching():
    with pytest.raises(DomainError, match="not maximal"):
        check_certificate_conditions(cycle(6), Matching([(0, 1)]))


def test_condition_iv_needs_exact_witness_neighborhood():
    # 0 and 2 are matched and share the neighbor 5, so a witness adjacent to
    # exactly their partners {1, 3} is required; vertex 4 comes close but
    # carries the extra edge to 0, and nobody else qualifies
    g = Graph(
        7,
        [(0, 1), (2, 3), (1, 4), (3, 4), (0, 4), (0, 5), (2, 5), (0, 6), (1, 6)],
    )
    m = Matching([(0, 1), (2, 3)])
    assert min_degree(g) == 2
    assert is_maximal_matching(g, m.edges)
    report = check_certificate_conditions(g, m)
    assert report.verdicts["iii"]
    assert not report.verdicts["iv"]
    assert any(v.condition == "iv" for v in report.violations)


def test_conditions_match_their_definition_on_every_small_maximal_matching():
    # A maximal matching covers every support, since the edge to a leaf must
    # be covered, and no S⁻ vertex is matched to a support; so (i) fails
    # exactly when some S⁺ vertex is matched outside the support, and then
    # (ii) names that edge.
    checked = split = 0
    for n in range(2, 8):
        for g in connected_catalog(n):
            if min_degree(g) not in (1, 2):
                continue
            sup = support_classification(g).sup
            for m in helpers.include_exclude_maximal_matchings(g):
                verdicts, witnesses = helpers.definition_conditions(g, m)
                report = check_certificate_conditions(g, m)
                assert report.verdicts == verdicts, (g.edges(), m)
                assert [(v.condition, v.vertices, v.edges) for v in report.violations] == (
                    witnesses
                ), (g.edges(), m)
                assert sup <= m.covered
                assert verdicts["i"] == verdicts["ii"]
                checked += 1
                split += not verdicts["i"]
    assert (checked, split) == (12014, 447)


# ---------------------------------------------------------------------------
# maximal-matching enumeration in the tests and the least minimum one


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_enumeration_matches_brute_force(n):
    # The tests' enumeration lists maximal matchings once each, by size and
    # then lexicographically; the power set is too slow past 5 vertices.
    for g in connected_catalog(n):
        got = helpers.maximal_matchings_by_size(g)
        assert got == sorted(got, key=lambda m: (len(m), m.edges))
        assert len({frozenset(m.edges) for m in got}) == len(got)
        assert all(helpers.is_maximal_edges(g, m) for m in got)
        if n <= 5:
            assert {frozenset(m.edges) for m in got} == helpers.brute_maximal_matchings(g)


def test_enumeration_matches_include_exclude_past_seven_vertices():
    # Sizes below the optimum are proven empty by a search that ignores
    # pick order, so a size wrongly proven empty would raise μ*, and a walk
    # of the optimum size out of order would return another witness.  The
    # fixed graphs have 12 to 14 vertices and two to four sizes each.
    rng = random.Random(2104)
    graphs = [subdivided_grid(3), cycle(12), spider(4), path(12)]
    for _ in range(200):
        n = rng.randint(8, 10)
        g = helpers.random_connected_graph(rng, n, rng.randint(0, 18 - (n - 1)))
        permutation = list(range(n))
        rng.shuffle(permutation)
        graphs.append(helpers.relabel(g, permutation))
        assert graphs[-1].edge_count <= 18
    for h in graphs:
        result = minimum_maximal_matching(h)
        least = helpers.maximal_matchings_by_size(h)[0]
        assert (result.value, result.witness) == (len(least), least)


def test_enumeration_matches_brute_force_fixtures():
    for g in [cycle(6), cycle(7), subdivided_grid(2), spider(3)]:
        got = {frozenset(m.edges) for m in helpers.maximal_matchings_by_size(g)}
        assert got == helpers.brute_maximal_matchings(g)


# ---------------------------------------------------------------------------
# searching for a certifying matching


def test_find_hexagon_antipodal_pair():
    found = find_certifying_matching(cycle(6))
    assert found is not None
    assert found.matching.edges == (Edge(0, 1), Edge(3, 4))
    assert found.report.holds
    assert sorted(found.partition.m_star) == [Edge(0, 1), Edge(3, 4)]


def test_find_spider_leg_matching():
    found = find_certifying_matching(spider(2))
    assert found is not None
    assert found.matching == spider_leg_matching(2)
    assert found.partition.m_minus == found.matching.edges


def test_find_returns_none_on_square():
    assert find_certifying_matching(cycle(4)) is None


def test_find_rejects_wrong_minimum_degree():
    with pytest.raises(DomainError):
        find_certifying_matching(complete_graph(4))


def test_find_returns_first_hit_of_enumeration():
    # The search prunes by the certificate conditions and checks each
    # matching it reaches only up to its first violation; its hit, report
    # and partition must still be those of a scan of every maximal matching,
    # in include/exclude order, with the public checkers.
    graphs = [subdivided_grid(2)]
    graphs += [g for n in range(2, 8) for g in connected_catalog(n) if min_degree(g) in (1, 2)]
    hits = 0
    for g in graphs:
        found = find_certifying_matching(g)
        by_scan = next(
            (
                m
                for m in helpers.include_exclude_maximal_matchings(g)
                if check_certificate_conditions(g, m).holds
            ),
            None,
        )
        assert (found is None) == (by_scan is None)
        if found is not None:
            hits += 1
            assert found.matching == by_scan
            assert found.report == check_certificate_conditions(g, found.matching)
            assert found.partition == partition_matching(g, found.matching)
    assert (len(graphs), hits) == (823, 52)


def test_find_equals_walk_over_minimum_maximal_matchings():
    # Every certificate has size μ*, so the pruned search over all sizes
    # must return the first certificate among the minimum maximal
    # matchings, or None with that walk, on every connected graph of at
    # most 8 vertices with minimum degree one or two.
    graphs = [g for n in range(2, 9) for g in connected_catalog(n) if min_degree(g) in (1, 2)]
    hits = 0
    for g in graphs:
        found = find_certifying_matching(g)
        expected = helpers.minimum_certifying_matching(g)
        assert (found is None) == (expected is None)
        if found is not None:
            hits += 1
            assert found.matching == expected
            assert found.partition == partition_matching(g, expected)
            assert found.report == check_certificate_conditions(g, expected)
    assert (len(graphs), hits) == (9350, 178)


def test_find_agrees_with_oracle_on_small_catalog():
    for n in range(2, 7):
        for g in connected_catalog(n):
            if min_degree(g) not in (1, 2):
                continue
            found = find_certifying_matching(g)
            tight = is_tight_graph(g)
            assert (found is not None) == tight
            if found is not None:
                assert len(found.matching) == minimum_maximal_matching(g).value
                assert 2 * len(found.matching) == total_domination_number(g).value
                assert is_maximal_matching(g, found.matching.edges)


def test_find_on_disconnected_unions_equals_walk_and_oracle():
    # The conditions are local to a component, so on a union with its ids
    # shuffled the search must still return the walk's first certificate,
    # and find one exactly when the graph is tight.  About one part in
    # seven is dense, so some unions have a component of minimum degree
    # three or more, which has no certificate.
    rng = random.Random(1607)
    kept = with_dense_component = tight = 0
    for _ in range(450):
        parts = []
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.15:
                n = rng.randint(4, 6)
                pairs = itertools.combinations(range(n), 2)
                parts.append(Graph(n, [p for p in pairs if rng.random() < 0.8]))
            else:
                parts.append(helpers.random_low_degree_graph(rng, 3, 8))
        g, _ = helpers.relabelled_union(rng, parts)
        if min_degree(g) not in (1, 2):
            continue
        kept += 1
        with_dense_component += any(
            min(len(g.neighbors(v)) for v in c) >= 3 for c in connected_components(g)
        )
        found = find_certifying_matching(g)
        expected = helpers.minimum_certifying_matching(g)
        assert (found.matching if found else None) == expected
        is_tight = is_tight_graph(g, max_vertices=30)
        assert (found is not None) == is_tight
        tight += is_tight
    assert (kept, with_dense_component, tight) == (445, 80, 59)


def shuffled(g, rng):
    permutation = list(range(g.vertex_count))
    rng.shuffle(permutation)
    return helpers.relabel(g, permutation)


def relabelled_tight_graph(seed, params):
    g, _ = random_tight_graph(seed, params)
    return shuffled(g, random.Random(seed))


def with_extra_edge(g, seed):
    missing = [
        (a, b) for a in g.vertices() for b in g.vertices() if a < b and not g.has_edge(a, b)
    ]
    return Graph(g.vertex_count, [*g.edges(), random.Random(seed).choice(missing)])


def test_find_certifies_relabelled_tight_graphs_within_node_ceilings():
    # Relabelling moves the embedded certificate far back in the order of a
    # full enumeration; an unpruned search over all sizes then passes 10**6
    # nodes.  The budgets are node ceilings (measured: 12, 17, 16 and 20
    # nodes on the tight graphs, 13, 22, 20 and 23 on the variants; 22, 23,
    # 19 and 33, and 15, 37, 23 and 33, when the search picked edges in
    # ascending index order under a budget of 100).
    cases = [(1, TightGraphParams(max_k2=20, max_a=8, mark_probability=0.35, max_vertices=64))]
    cases += [
        (seed, TightGraphParams(max_k2=30, max_a=10, mark_probability=0.35, max_vertices=96))
        for seed in range(3)
    ]
    sizes = []
    for seed, params in cases:
        g = relabelled_tight_graph(seed, params)
        found = find_certifying_matching(g, budget=40)
        assert found is not None
        assert check_certificate_conditions(g, found.matching).holds
        variant = with_extra_edge(g, seed)
        found_variant = find_certifying_matching(variant, budget=40)
        for h, result in ((g, found), (variant, found_variant)):
            if h.vertex_count <= 40:
                assert (result is not None) == is_tight_graph(h, max_vertices=40)
        sizes.append(g.vertex_count)
    assert sizes == [26, 38, 39, 81]


BASELINE_PARAMS = TightGraphParams(max_k2=170, max_a=64, mark_probability=0.35, max_vertices=512)


@pytest.mark.parametrize(
    "seed, vertices, tight_budget, variant_budget",
    # measured: 115, 74 and 36 nodes on the tight graphs, 44, 106 and 15 on
    # the variants (1,877, 1,349 and 115, and 3,240, 1,456 and 518, under
    # budgets of 2,000/3,500, 1,500/1,600 and 150/600 when the search
    # picked edges in ascending index order)
    [(0, 360, 150, 80), (1, 307, 100, 150), (2, 107, 50, 30)],
)
def test_find_certifies_hundreds_of_vertices_within_node_ceilings(
    seed, vertices, tight_budget, variant_budget
):
    # A search that proves μ* before it checks a candidate needs 1,194,911
    # nodes on the 360-vertex graph, more than the default budget.
    g = relabelled_tight_graph(seed, BASELINE_PARAMS)
    assert g.vertex_count == vertices
    found = find_certifying_matching(g, budget=tight_budget)
    assert found is not None
    assert check_certificate_conditions(g, found.matching).holds
    assert find_certifying_matching(with_extra_edge(g, seed), budget=variant_budget) is None


def test_find_refutes_long_path_within_node_ceiling():
    # measured: 134 nodes, as when the search picked edges in ascending
    # index order
    assert find_certifying_matching(path(200), budget=150) is None


def caterpillar(k):
    """``path(k)`` with a pendant leaf on every third vertex, from 0."""
    leaves = range(0, k, 3)
    return Graph(k + len(leaves), [*path(k).edges(), *((v, k + j) for j, v in enumerate(leaves))])


def test_find_cost_does_not_follow_the_id_order():
    # Node ceilings on long sparse graphs with shuffled ids.  Measured: 81
    # nodes on the 320-vertex caterpillar and 107 on path(160), as in path
    # order; a search picking edges in ascending index order ran past each
    # ceiling (12,220 nodes on shuffled path(80) alone, and 47, 192 and 782
    # on caterpillars of 40, 80 and 160 vertices even in path order).
    g = shuffled(caterpillar(240), random.Random(99))
    assert g.vertex_count == 320
    found = find_certifying_matching(g, budget=150)
    assert found is not None
    assert check_certificate_conditions(g, found.matching).holds
    assert len(found.matching) == 80
    assert find_certifying_matching(shuffled(path(160), random.Random(99)), budget=200) is None


def test_find_cost_adds_over_components():
    # Each component is searched alone, so a failing part is not retried
    # against every certificate of the parts before it.  Measured: 32 nodes
    # on six hexagons then path(20) in block order (3 per hexagon, 14 for
    # the path), 20 when relabelled (the path's least id comes second), and
    # 63 on the 38-vertex relabelled tight graph with path(80), where the
    # search picking edges in ascending index order took 11,662 and 14,649.
    parts = [cycle(6)] * 6 + [path(20)]
    block = functools.reduce(helpers.disjoint_union, parts)
    assert find_certifying_matching(block, budget=60) is None
    union, _ = helpers.relabelled_union(random.Random(0), parts)
    assert find_certifying_matching(union, budget=40) is None
    tight = relabelled_tight_graph(
        0, TightGraphParams(max_k2=30, max_a=10, mark_probability=0.35, max_vertices=96)
    )
    assert tight.vertex_count == 38
    union, _ = helpers.relabelled_union(random.Random(179), [tight, path(80)])
    assert find_certifying_matching(union, budget=120) is None


def test_find_cost_is_linear_on_relabelled_leafy_tight_graphs():
    # Under a random id order the search must still certify each draw with
    # a matching of size μ*, and decide its one-extra-edge variant as the
    # exact solvers do (an extra edge does not always break equality),
    # within n + 5 nodes on n vertices.  Measured: at most 24 nodes on the
    # draws and 23 on the variants, 0.75 and 0.91 per vertex at most; a
    # search picking edges in ascending index order took up to 33 and 41
    # (2.07 per vertex) and ran past the ceiling on 7 of the 80 graphs.
    params = TightGraphParams(max_k2=12, max_a=6, mark_probability=0.35, max_vertices=40)
    rng = random.Random(2026)
    draws = tight_variants = 0
    for seed in range(42):
        g, _ = random_tight_graph(seed, params)
        if min_degree(g) != 1:
            continue
        draws += 1
        g = shuffled(g, rng)
        found = find_certifying_matching(g, budget=g.vertex_count + 5)
        assert found is not None
        assert check_certificate_conditions(g, found.matching).holds
        assert len(found.matching) == minimum_maximal_matching(g, max_vertices=40).value
        variant = with_extra_edge(g, seed)
        found = find_certifying_matching(variant, budget=variant.vertex_count + 5)
        is_tight = is_tight_graph(variant, max_vertices=40)
        assert (found is not None) == is_tight
        tight_variants += is_tight
    assert (draws, tight_variants) == (40, 9)


def test_find_budget_propagates():
    with pytest.raises(ResourceLimitError):
        find_certifying_matching(subdivided_grid(2), budget=2)


# ---------------------------------------------------------------------------
# dominating sets built from matchings in dense graphs


def test_tds_from_matching_on_extremal_graph():
    g = high_degree_extremal(2, 3)
    m = Matching([(0, 1), (2, 3)])
    assert is_maximal_matching(g, m.edges)
    s = total_dominating_set_from_matching(g, m)
    assert len(s) == 3
    assert is_total_dominating(g, s)
    assert len(s) <= 2 * len(m) - min_degree(g) + 2


def test_tds_from_matching_fully_covered_branch():
    g = complete_graph(4)
    s = total_dominating_set_from_matching(g, Matching([(0, 1), (2, 3)]))
    assert len(s) == 2
    assert is_total_dominating(g, s)


def test_tds_from_matching_uncovered_branch():
    g = complete_graph(5)
    s = total_dominating_set_from_matching(g, Matching([(0, 1), (2, 3)]))
    assert 4 in s
    assert len(s) <= 2
    assert is_total_dominating(g, s)


def test_tds_from_matching_rejects_low_degree():
    with pytest.raises(DomainError, match="minimum degree 2 is below 3"):
        total_dominating_set_from_matching(cycle(6), Matching([(0, 1), (3, 4)]))


def test_tds_from_matching_rejects_non_maximal():
    with pytest.raises(DomainError, match="not maximal"):
        total_dominating_set_from_matching(complete_graph(4), Matching([(0, 1)]))


def test_tds_from_matching_bound_over_catalog():
    for n in (4, 5, 6):
        for g in connected_catalog(n):
            if min_degree(g) < 3:
                continue
            delta = min_degree(g)
            for m in helpers.maximal_matchings_by_size(g)[:6]:
                s = total_dominating_set_from_matching(g, m)
                assert is_total_dominating(g, s)
                assert len(s) <= 2 * len(m) - delta + 2
