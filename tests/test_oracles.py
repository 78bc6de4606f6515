import hashlib
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domatch import (
    DomainError,
    Edge,
    Graph,
    Matching,
    ResourceLimitError,
    check_matching_bound,
    connected_components,
    is_matching,
    is_maximal_matching,
    is_tight_graph,
    is_total_dominating,
    min_degree,
    minimum_maximal_matching,
    parse_edge_list,
    support_classification,
    total_domination_number,
)
from domatch.generators import cycle, high_degree_extremal, path, spider, subdivided_grid, triangle_book
from domatch.oracles import DEFAULT_MAX_VERTICES, _maximal_matchings, _optima

import helpers
from catalogs import connected_catalog

# gamma_t / mu_star per cycle length, frozen from the solvers and re-checked
# against the brute-force references below
CYCLE_VALUES = {
    3: (2, 1),
    4: (2, 2),
    5: (3, 2),
    6: (4, 2),
    7: (4, 3),
    8: (4, 3),
    9: (5, 3),
    10: (6, 4),
}


def complete_graph(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


# ---------------------------------------------------------------------------
# Matching type


def test_matching_canonicalizes_edges():
    m = Matching([(4, 3), Edge(0, 1)])
    assert m.edges == (Edge(0, 1), Edge(3, 4)) == m
    assert type(m.edges) is tuple and repr(m) == "Matching(0-1, 3-4)"
    assert len(m) == 2
    assert Edge(3, 4) in m and (3, 4) in m
    assert Edge(1, 2) not in m and (4, 3) not in m
    assert "3-4" not in m and None not in m and object() not in m
    assert m == Matching([(0, 1), (3, 4)])
    assert hash(m) == hash(Matching([(1, 0), (4, 3)]))


def test_matching_rejects_shared_endpoint():
    with pytest.raises(DomainError, match="not disjoint"):
        Matching([(0, 1), (1, 2)])


def test_matching_partner_involution():
    m = Matching([(0, 1), (3, 4)])
    assert m.covered == {0, 1, 3, 4}
    for v in m.covered:
        assert m.partner(m.partner(v)) == v
    assert m.covers(3)
    assert not m.covers(2)
    with pytest.raises(DomainError, match="not covered"):
        m.partner(2)


# ---------------------------------------------------------------------------
# validators


def test_is_total_dominating_on_cycle():
    g = cycle(6)
    assert is_total_dominating(g, {0, 1, 3, 4})
    assert not is_total_dominating(g, {0, 1, 2})
    assert is_total_dominating(g, set(g.vertices()))


def test_total_domination_rejects_isolated_vertices():
    with pytest.raises(DomainError, match="isolated vertex: gamma_t undefined"):
        is_total_dominating(Graph(3, [(0, 1)]), {0, 1})
    with pytest.raises(DomainError, match="empty graph"):
        is_total_dominating(Graph(0), set())
    with pytest.raises(DomainError):
        total_domination_number(parse_edge_list("vertices: a\n"))


def test_is_total_dominating_rejects_unknown_vertex():
    with pytest.raises(DomainError):
        is_total_dominating(cycle(4), {0, 9})


def test_is_matching_and_maximality_on_c4():
    g = cycle(4)
    assert is_matching(g, [(0, 1)])
    assert not is_maximal_matching(g, [(0, 1)])
    assert is_maximal_matching(g, [(0, 1), (2, 3)])
    assert not is_matching(g, [(0, 1), (1, 2)])


def test_is_maximal_matching_middle_edge_of_path():
    g = parse_edge_list("a b\nb c\nc d")
    bc = (g.vertex_with_label("b"), g.vertex_with_label("c"))
    assert is_maximal_matching(g, [bc])


def test_matching_validators_reject_foreign_edges():
    with pytest.raises(DomainError, match="is not an edge"):
        is_matching(cycle(4), [(0, 2)])
    with pytest.raises(DomainError, match="is not an edge"):
        is_maximal_matching(cycle(4), [(0, 2)])


def test_edge_domination_check_examples():
    g = cycle(4)
    assert helpers.edge_domination_check(g, Matching([(0, 1), (2, 3)]))
    assert not helpers.edge_domination_check(g, Matching([(0, 1)]))
    p = parse_edge_list("a b\nb c\nc d")
    assert helpers.edge_domination_check(p, Matching([(1, 2)]))


def test_edge_domination_equals_maximality_for_matchings():
    # the dominated-edges reading of maximality, checked over every matching
    pool = list(connected_catalog(5)) + [cycle(6), cycle(7), subdivided_grid(2)]
    for g in pool:
        edges = sorted(g.edges())
        import itertools

        for size in range(len(edges) + 1):
            for combo in itertools.combinations(edges, size):
                if not helpers.is_matching_edges(combo):
                    continue
                m = Matching(combo)
                assert helpers.edge_domination_check(g, m) == is_maximal_matching(g, combo)


# ---------------------------------------------------------------------------
# exact solvers against brute force


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solvers_match_brute_force_catalog(n):
    for g in connected_catalog(n):
        value, witness = helpers.brute_total_domination(g)
        got = total_domination_number(g)
        assert got.value == value
        assert tuple(sorted(got.witness)) == witness
        mm_value, mm_witness = helpers.brute_minimum_maximal_matching(g)
        mm = minimum_maximal_matching(g)
        assert mm.value == mm_value
        assert mm.witness.edges == mm_witness


def assert_solvers_match_brute_force(g):
    td = total_domination_number(g)
    assert (td.value, tuple(sorted(td.witness))) == helpers.brute_total_domination(g)
    mm = minimum_maximal_matching(g)
    assert (mm.value, mm.witness.edges) == helpers.brute_minimum_maximal_matching(g)
    return td.value, mm.value


def assert_bound_report(g, gamma_t, mu_star, delta):
    # The bound check reads its values off the root proofs, not the
    # witness solvers; what it reports must follow from the true values.
    bound = 2 * mu_star if delta <= 2 else 2 * mu_star - delta + 2
    report = check_matching_bound(g)
    assert report == (delta, gamma_t, mu_star, bound, bound - gamma_t, gamma_t <= bound)
    assert report.holds
    assert is_tight_graph(g) == (gamma_t == 2 * mu_star)


def test_solvers_match_brute_force_on_every_seven_vertex_graph():
    graphs = connected_catalog(7)
    assert len(graphs) == 853
    for g in graphs:
        assert_solvers_match_brute_force(g)


def test_solvers_match_brute_force_on_relabelled_random_graphs():
    # A relabelling moves the vertices and edges the searches branch on, so
    # the proofs and the ordered walk take other paths; witnesses must not
    # move with them.  The graphs of minimum degree three are dense enough
    # that greedy packings often fill every free slot, where the proof
    # confines its picks to the packing's settlers, and their bound is
    # 2 mu* - delta + 2.  Each graph is also joined, under a second stream's
    # relabelling, to the one before it: the values add over the parts,
    # and the minimum degree is the smaller one.
    dense = [
        g
        for seed in range(200)
        for n in (9, 10, 11)
        if (g := helpers.sparse_graph(seed, n, 0, 3)).edge_count <= 18
    ]
    assert len(dense) == 330 and all(min_degree(g) == 3 for g in dense)
    rng = random.Random(20190)
    drawn = (
        helpers.random_connected_graph(rng, n, rng.randint(0, 18 - (n - 1)))
        for n in (rng.randint(8, 11) for _ in range(400))
    )
    unions = random.Random(2019)
    previous = None
    for g in itertools.chain(drawn, dense):
        permutation = list(range(g.vertex_count))
        rng.shuffle(permutation)
        h = helpers.relabel(g, permutation)
        assert h.edge_count <= 18
        gamma_t, mu_star = assert_solvers_match_brute_force(h)
        assert_bound_report(h, gamma_t, mu_star, min_degree(h))
        if previous is not None:
            part, part_gamma_t, part_mu_star = previous
            union, _ = helpers.relabelled_union(unions, [part, g])
            delta = min(min_degree(part), min_degree(g))
            assert_bound_report(union, part_gamma_t + gamma_t, part_mu_star + mu_star, delta)
        previous = g, gamma_t, mu_star


def test_solver_node_ceilings():
    # Deterministic counters, never seconds.  cycle(60) comes last: a search
    # without the packing bounds exceeds the earlier ceilings first instead of
    # running for minutes.  spider(10) takes 32 nodes, and 121 when the
    # packing visits undominated vertices in index order, not fewest
    # dominators first.  The subdivided grids are bipartite, so each colour
    # class is covered by its own search from the other class:
    # subdivided_grid(7) takes 156 nodes (204 when the proof keeps no
    # refutation table) and subdivided_grid(12) 1,440 (2,244 with no table,
    # 1,490 when a tight packing does not confine the proof's picks to its
    # settlers); one search over both classes at once takes 1,806 and
    # 173,493.  sparse_graph(5, 28, 0, 3) has μ* = 9 and takes 987 nodes
    # (1,304 without the tight-packing rule, 1,202 with no table), and 6,119
    # in lexicographic order, 5,684 of them proving size 8 empty.
    assert total_domination_number(spider(10), max_vertices=64).stats.nodes <= 100
    assert total_domination_number(subdivided_grid(7), max_vertices=64).stats.nodes <= 180
    grid = total_domination_number(subdivided_grid(12), max_vertices=50)
    assert grid.value == 26
    assert hashlib.sha256(str(sorted(grid.witness)).encode()).hexdigest() == (
        "44dc91874fecb7585a38145def157b689ff3bb9274da1e24463a81c3e0f46b43"
    )
    assert grid.stats.nodes <= 1_700
    assert minimum_maximal_matching(cycle(32), max_vertices=64).stats.nodes <= 1_000
    sparse = minimum_maximal_matching(helpers.sparse_graph(5, 28, 0, 3), max_vertices=30)
    assert sparse.value == 9
    assert sparse.stats.nodes <= 1_150
    result = minimum_maximal_matching(cycle(60), max_vertices=60)
    assert result.value == 20
    assert result.stats.nodes <= 1_000


def test_second_maximal_matching_resumes_from_the_first():
    # Deterministic counters.  sparse_graph(5, 28, 0, 3) has μ* = 9; the
    # first maximal matching takes 987 nodes and the second 1,470 in all,
    # since the ordered walk backtracks from the first hit (1,304 and 1,924
    # when a tight packing does not confine the proof's picks to its
    # settlers).  A search that lists the optimum size again from no picks
    # reaches it at 3,689.
    g = helpers.sparse_graph(5, 28, 0, 3)
    matchings = _maximal_matchings(g._adjacency, g.vertices())
    (first, _), (second, nodes) = next(matchings), next(matchings)
    assert len(first) == len(second) == 9 and first < second
    assert nodes <= 1_800


def test_solver_node_totals_on_the_small_catalog():
    # Deterministic counters over the 995 connected graphs on 2..7 vertices.
    # Dropping either solver's packing bound makes its total grow, and so
    # does packing in index order (6,532 and 13,913), keeping no refutation
    # table (6,268 and 13,922) or letting the proof pick outside a tight
    # packing's settlers (6,422 and 13,978).  On graphs this small the optimum
    # is mostly the first size tried, where the proof reaches a solution and
    # the ordered walk proves the smaller picks at each level empty to reach
    # the least one.  A bipartite graph's γ_t is two searches, one per colour
    # class, each proving its own first size: 6,226 nodes in all when both
    # classes share one search.
    # The bound checks stop at the first size whose root proof finds a
    # cover and walk to no witness: 3,671 and 9,270 nodes (3,603 for γ_t
    # with one search per bipartite graph).
    graphs = [g for n in range(2, 8) for g in connected_catalog(n)]
    assert len(graphs) == 995
    assert sum(total_domination_number(g).stats.nodes for g in graphs) == 6_249
    assert sum(minimum_maximal_matching(g).stats.nodes for g in graphs) == 13_003
    optimum_nodes = [0, 0]
    for g in graphs:
        (gamma_t, gamma_t_nodes), (mu_star, mu_star_nodes) = _optima(g, None)
        assert gamma_t == total_domination_number(g).value
        assert mu_star == minimum_maximal_matching(g).value
        report = check_matching_bound(g)
        assert (report.gamma_t, report.mu_star) == (gamma_t, mu_star)
        assert is_tight_graph(g) == (gamma_t == 2 * mu_star)
        optimum_nodes[0] += gamma_t_nodes
        optimum_nodes[1] += mu_star_nodes
    assert optimum_nodes == [3_671, 9_270]


def test_solver_witnesses_and_nodes_at_bench_scale():
    # The brute-force comparisons stop at 11 vertices; these graphs have 22 to
    # 30, as in the exact-solve benchmark.  The digests pin every value and
    # lexicographically least witness, so a prune that cuts a solution, or
    # changes which optimum comes first, fails here; the node totals are
    # deterministic counters of the same searches: 1,314 and 5,660 when a
    # tight packing does not confine the proof's picks to its settlers.  The
    # bound checks must give the same values from the root proofs alone,
    # which take 506 and 2,059 nodes.
    lines = {"gamma_t": [], "mu_star": []}
    nodes = {"gamma_t": 0, "mu_star": 0}
    optimum_nodes = {"gamma_t": 0, "mu_star": 0}
    degrees = set()
    for params in helpers.BENCH_SCALE_SPARSE:
        g = helpers.sparse_graph(*params)
        assert len(connected_components(g)) == 1 and 22 <= g.vertex_count <= 30
        degrees.add(min_degree(g))
        gamma_t = total_domination_number(g, max_vertices=30)
        mu_star = minimum_maximal_matching(g, max_vertices=30)
        lines["gamma_t"].append(f"{params} {gamma_t.value} {sorted(gamma_t.witness)}")
        lines["mu_star"].append(f"{params} {mu_star.value} {[(e.u, e.v) for e in mu_star.witness]}")
        nodes["gamma_t"] += gamma_t.stats.nodes
        nodes["mu_star"] += mu_star.stats.nodes
        (gamma_t_value, gamma_t_nodes), (mu_star_value, mu_star_nodes) = _optima(g, 30)
        assert (gamma_t_value, mu_star_value) == (gamma_t.value, mu_star.value)
        report = check_matching_bound(g, max_vertices=30)
        assert (report.gamma_t, report.mu_star) == (gamma_t.value, mu_star.value)
        assert is_tight_graph(g, max_vertices=30) == (gamma_t.value == 2 * mu_star.value)
        optimum_nodes["gamma_t"] += gamma_t_nodes
        optimum_nodes["mu_star"] += mu_star_nodes
    digests = {k: hashlib.sha256("\n".join(v).encode()).hexdigest() for k, v in lines.items()}
    assert digests == {
        "gamma_t": "97af8a51ee3b26dc8e8b4414468ad99264ed90bba956c5643590d230d960a29d",
        "mu_star": "763d6a9e4d2a43ae0eafc8099d731e7508e549b96589383dcb5cf359c02b0476",
    }
    assert degrees == {1, 2, 3}
    assert nodes == {"gamma_t": 909, "mu_star": 3_725}
    assert optimum_nodes == {"gamma_t": 506, "mu_star": 2_059}


def test_solver_search_depth_is_not_bounded_by_recursion():
    # One search level per pick: 200 edges for cycle(600), and 150
    # vertices for each colour class of path(600), which is bipartite, so
    # γ_t is one search per class; each runs in the proof and again in the
    # ordered walk to the least witness.  With the recursion limit 100
    # frames above the caller, a search that recursed per level would raise
    # RecursionError.  The proof keeps its picks within a tight packing's
    # settlers; without that rule the counts are 599 and 899.  One search
    # over both classes takes 600 nodes for γ_t.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        mu_star = minimum_maximal_matching(cycle(600), max_vertices=600)
        gamma_t = total_domination_number(path(600), max_vertices=600)
    finally:
        sys.setrecursionlimit(limit)
    assert (mu_star.value, mu_star.stats.nodes) == (200, 500)
    assert (gamma_t.value, gamma_t.stats.nodes) == (300, 749)
    assert is_maximal_matching(cycle(600), mu_star.witness.edges)
    assert is_total_dominating(path(600), gamma_t.witness)


def test_cycle_value_table():
    for n, (gamma_t, mu_star) in CYCLE_VALUES.items():
        g = cycle(n)
        assert total_domination_number(g).value == gamma_t
        assert minimum_maximal_matching(g).value == mu_star
        assert helpers.brute_total_domination(g)[0] == gamma_t
        assert helpers.brute_minimum_maximal_matching(g)[0] == mu_star


def test_paths_match_brute_force():
    for n in range(2, 9):
        g = path(n)
        assert total_domination_number(g).value == helpers.brute_total_domination(g)[0]
        assert minimum_maximal_matching(g).value == helpers.brute_minimum_maximal_matching(g)[0]


def test_single_edge_values():
    g = Graph(2, [(0, 1)])
    assert total_domination_number(g).value == 2
    assert minimum_maximal_matching(g).value == 1


def test_triangle_book_values():
    # every edge of a book meets the spine, so the spine alone is maximal
    for n in (1, 2, 3, 4):
        g = triangle_book(n)
        mm = minimum_maximal_matching(g)
        assert mm.value == 1
        assert mm.witness.edges == (Edge(0, 1),)
        assert total_domination_number(g).value == 2


def test_figure_family_values_small():
    assert total_domination_number(spider(3)).value == 6
    assert minimum_maximal_matching(spider(3)).value == 3
    assert total_domination_number(subdivided_grid(2)).value == 6
    assert minimum_maximal_matching(subdivided_grid(2)).value == 3


def test_solver_results_validate():
    for g in [spider(2), subdivided_grid(2), cycle(7), complete_graph(5)]:
        td = total_domination_number(g)
        assert is_total_dominating(g, td.witness)
        assert len(td.witness) == td.value
        assert td.stats.nodes > 0
        assert td.stats.seconds >= 0.0
        mm = minimum_maximal_matching(g)
        assert is_maximal_matching(g, mm.witness.edges)
        assert len(mm.witness) == mm.value


def test_solver_determinism():
    g = subdivided_grid(2)
    first, second = total_domination_number(g), total_domination_number(g)
    assert (first.value, first.witness) == (second.value, second.witness)
    assert minimum_maximal_matching(g).witness == minimum_maximal_matching(g).witness
    rng = random.Random(7)
    for _ in range(10):
        h = helpers.random_connected_graph(rng, rng.randint(4, 9), 3)
        if min_degree(h) == 0:
            continue
        assert total_domination_number(h).witness == total_domination_number(h).witness


def test_component_additivity():
    parts = [cycle(6), cycle(4), path(4)]
    union = helpers.disjoint_union(helpers.disjoint_union(parts[0], parts[1]), parts[2])
    assert total_domination_number(union).value == sum(
        total_domination_number(p).value for p in parts
    )
    assert minimum_maximal_matching(union).value == sum(
        minimum_maximal_matching(p).value for p in parts
    )


def test_component_witness_is_global_optimum():
    union = helpers.disjoint_union(cycle(6), cycle(4))
    td = total_domination_number(union)
    assert is_total_dominating(union, td.witness)
    assert tuple(sorted(td.witness)) == helpers.brute_total_domination(union)[1]


def test_solvers_never_list_the_input_edges():
    # Components are searched in place through the adjacency, and maximality
    # is read from adjacency too, so the input's edge tuple is never built.
    union = helpers.disjoint_union(helpers.disjoint_union(cycle(6), cycle(4)), path(4))
    perfect = [(2 * i, 2 * i + 1) for i in range(7)]
    assert union._edges is None
    total_domination_number(union)
    minimum_maximal_matching(union)
    is_tight_graph(union)
    check_matching_bound(union)
    assert is_maximal_matching(union, perfect)
    assert not is_maximal_matching(union, perfect[:-1])
    assert union._edges is None


def test_solvers_build_no_graph_per_component(monkeypatch):
    # Components are read in place through the input's adjacency.
    rng = random.Random(15)
    g, _ = helpers.relabelled_union(
        rng, [helpers.random_connected_graph(rng, n, 2) for n in (5, 4, 6)]
    )
    builds = []
    build = Graph._build
    monkeypatch.setattr(Graph, "_build", lambda *args: builds.append(args) or build(*args))
    assert total_domination_number(g).value > 0
    assert minimum_maximal_matching(g).value > 0
    assert builds == []


def test_solvers_on_a_union_equal_their_pieces():
    # Solving a union in place must give the values, witnesses and node
    # totals of solving each part alone, relabelled onto its ids in the
    # union in the same relative order, and mapping it back.
    rng = random.Random(1507)
    interleaved = 0
    for _ in range(60):
        sizes = [rng.randint(3, 8) for _ in range(rng.randint(2, 3))]
        parts = [helpers.random_connected_graph(rng, n, rng.randint(0, n)) for n in sizes]
        g, permutation = helpers.relabelled_union(rng, parts)
        interleaved += any(max(c) - min(c) >= len(c) for c in connected_components(g))
        pieces = []
        offset = 0
        for part in parts:
            ids = permutation[offset : offset + part.vertex_count]
            offset += part.vertex_count
            original = sorted(ids)
            rank = {v: i for i, v in enumerate(original)}
            pieces.append((helpers.relabel(part, [rank[v] for v in ids]), original))
        for solve in (total_domination_number, minimum_maximal_matching):
            whole = solve(g)
            value = nodes = 0
            witness = []
            for piece, original in pieces:
                result = solve(piece)
                value += result.value
                nodes += result.stats.nodes
                witness += [
                    Edge.of(original[x.u], original[x.v]) if isinstance(x, Edge) else original[x]
                    for x in result.witness
                ]
            assert (whole.value, whole.stats.nodes) == (value, nodes)
            assert whole.witness == type(whole.witness)(witness)
    assert interleaved >= 50


def test_mu_star_requires_an_edge():
    with pytest.raises(DomainError, match="no edges: mu_star undefined"):
        minimum_maximal_matching(Graph(3))


# ---------------------------------------------------------------------------
# matching observations on enumerated maximal matchings


def test_maximal_matching_observations():
    pool = list(connected_catalog(5)) + [spider(3), subdivided_grid(2), cycle(7)]
    for g in pool:
        sup = support_classification(g).sup
        for edges in helpers.brute_maximal_matchings(g):
            covered = {w for e in edges for w in (e.u, e.v)}
            outside = set(g.vertices()) - covered
            # uncovered vertices form an independent set
            assert all(not (g.neighbors(v) & outside) for v in outside)
            # covered vertices totally dominate (no isolated vertices here)
            if covered:
                assert is_total_dominating(g, covered)
            # support vertices are always covered
            assert sup <= covered


def test_total_dominating_sets_contain_supports():
    for g in [spider(2), spider(3), path(5), path(6)]:
        sup = support_classification(g).sup
        assert sup <= set(total_domination_number(g).witness)


def test_gamma_t_two_thirds_bound():
    for n in range(3, 7):
        for g in connected_catalog(n):
            assert 3 * total_domination_number(g).value <= 2 * g.vertex_count


# ---------------------------------------------------------------------------
# tightness and the degree bound


def test_is_tight_graph_fixed_instances():
    assert is_tight_graph(cycle(6))
    assert is_tight_graph(cycle(3))
    assert not is_tight_graph(cycle(4))
    assert not is_tight_graph(cycle(7))
    assert is_tight_graph(spider(3))
    assert is_tight_graph(subdivided_grid(3))


def test_is_tight_graph_matches_solver_values():
    for n in (4, 5, 6):
        for g in connected_catalog(n):
            expected = (
                total_domination_number(g).value
                == 2 * minimum_maximal_matching(g).value
            )
            assert is_tight_graph(g) == expected


def test_is_tight_graph_per_component():
    assert is_tight_graph(helpers.disjoint_union(cycle(6), cycle(3)))
    assert not is_tight_graph(helpers.disjoint_union(cycle(6), cycle(4)))


def test_check_matching_bound_reports():
    report = check_matching_bound(complete_graph(4))
    assert (report.min_degree, report.gamma_t, report.mu_star) == (3, 2, 2)
    assert report.bound == 3
    assert report.slack == 1
    assert report.holds

    report = check_matching_bound(spider(2))
    assert (report.min_degree, report.gamma_t, report.mu_star) == (1, 4, 2)
    assert report.bound == 4
    assert report.slack == 0
    assert report.holds

    report = check_matching_bound(high_degree_extremal(2, 3))
    assert (report.min_degree, report.gamma_t, report.mu_star) == (3, 3, 2)
    assert report.bound == 3
    assert report.slack == 0
    assert report.holds


@given(st.integers(min_value=0, max_value=10_000))
def test_check_matching_bound_random(seed):
    rng = random.Random(seed)
    g = helpers.random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 6))
    if min_degree(g) == 0:
        return
    assert check_matching_bound(g).holds


# ---------------------------------------------------------------------------
# resource limits


def test_vertex_limit_enforced():
    big = path(DEFAULT_MAX_VERTICES + 1)
    with pytest.raises(ResourceLimitError, match="exceeds the solver limit of 24"):
        total_domination_number(big)
    with pytest.raises(ResourceLimitError):
        minimum_maximal_matching(big)
    with pytest.raises(ResourceLimitError):
        is_tight_graph(big)
    with pytest.raises(ResourceLimitError):
        check_matching_bound(big)


def test_vertex_limit_override():
    forest = Graph(26, [(2 * i, 2 * i + 1) for i in range(13)])
    with pytest.raises(ResourceLimitError):
        total_domination_number(forest)
    assert total_domination_number(forest, max_vertices=26).value == 26
    assert minimum_maximal_matching(forest, max_vertices=26).value == 13
    assert is_tight_graph(forest, max_vertices=26)
