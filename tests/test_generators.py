import hashlib
import tracemalloc

import networkx as nx
import pytest

from domatch import (
    DomainError,
    Edge,
    ExceptionalBook,
    ExceptionalSixCycle,
    Graph,
    Matching,
    ResourceLimitError,
    TightGraphParams,
    TightRecipe,
    build_tight_graph,
    check_certificate_conditions,
    check_matching_bound,
    is_maximal_matching,
    is_tight_graph,
    min_degree,
    minimum_maximal_matching,
    parse_edge_list,
    random_tight_graph,
    recognize,
    serialize_edge_list,
    total_domination_number,
)
from domatch.generators import (
    MAX_FAMILY_VERTICES,
    cycle,
    high_degree_extremal,
    path,
    spider,
    subdivided_grid,
    triangle_book,
)

import helpers


# ---------------------------------------------------------------------------
# named fixture families


def test_spider_shape():
    for n in (1, 2, 5):
        g = spider(n)
        assert g.vertex_count == 3 * n + 1
        assert g.edge_count == 3 * n
        assert min_degree(g) == 1
        assert g.degree(0) == n
    assert spider(2).labels == ("c", "x1", "y1", "z1", "x2", "y2", "z2")
    with pytest.raises(DomainError, match="at least one leg"):
        spider(0)


def test_subdivided_grid_shape():
    for n in (1, 2, 4):
        g = subdivided_grid(n)
        assert g.vertex_count == 4 * n + 2
        assert g.edge_count == 5 * n + 1
        assert min_degree(g) == 2
    assert recognize(subdivided_grid(1)).certificates == (ExceptionalSixCycle(),)
    assert subdivided_grid(2).labels == (
        "u0", "u1", "u2", "v0", "v1", "v2", "a0", "a1", "b0", "b1",
    )
    with pytest.raises(DomainError, match="at least one column"):
        subdivided_grid(0)


def test_triangle_book_shape():
    for n in (1, 3):
        g = triangle_book(n)
        assert g.vertex_count == n + 2
        assert g.edge_count == 2 * n + 1
        assert g.degree(0) == g.degree(1) == n + 1
    with pytest.raises(DomainError, match="at least one page"):
        triangle_book(0)


def test_cycle_and_path_bounds():
    assert cycle(3).edge_count == 3
    assert path(2).edge_count == 1
    with pytest.raises(DomainError, match="at least three"):
        cycle(2)
    with pytest.raises(DomainError, match="at least two"):
        path(1)


# ---------------------------------------------------------------------------
# the minimum-degree-three extremal family


def test_high_degree_extremal_smallest():
    g = high_degree_extremal(2, 3)
    assert g.vertex_count == 8
    assert g.edge_count == 2 + 4 * 3
    assert min_degree(g) == 3
    # base vertices see their partner plus every apex through them
    assert all(g.degree(v) == 4 for v in range(4))
    assert all(g.degree(v) == 3 for v in range(4, 8))
    assert g.labels[:4] == ("m0", "m1", "m2", "m3")
    assert g.labels[4] == "s0"


def test_high_degree_extremal_larger_shape():
    g = high_degree_extremal(3, 3)
    assert g.vertex_count == 6 + 20
    assert g.edge_count == 3 + 20 * 3
    assert min_degree(g) == 3
    assert all(g.degree(v) == 1 + 10 for v in range(6))


def test_high_degree_extremal_meets_bound():
    # the one family member small enough for the exact solvers
    g = high_degree_extremal(2, 3)
    report = check_matching_bound(g)
    assert report.holds and report.slack == 0
    assert total_domination_number(g).value == 3
    assert minimum_maximal_matching(g).value == 2


@pytest.mark.parametrize(
    "build, count",
    [
        (cycle, 10**8),
        (path, 10**8),
        (spider, 3 * 10**8 + 1),
        (subdivided_grid, 4 * 10**8 + 2),
        (triangle_book, 10**8 + 2),
    ],
)
def test_named_families_refuse_past_the_vertex_limit(build, count):
    # the vertex count is computed from the parameter and checked before
    # any label or edge is allocated, so 10**8 costs next to no memory
    tracemalloc.start()
    try:
        with pytest.raises(
            ResourceLimitError,
            match=f"^{count} vertices exceeds the generator limit of {MAX_FAMILY_VERTICES}$",
        ):
            build(10**8)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_family_vertex_limit_is_read_at_call_time_and_inclusive(monkeypatch):
    assert MAX_FAMILY_VERTICES == 100_000
    monkeypatch.setattr("domatch.generators.MAX_FAMILY_VERTICES", 10)
    # (builder, parameter for exactly 10 vertices, the next one, its count)
    for build, fits, over, count in [
        (cycle, 10, 11, 11),
        (path, 10, 11, 11),
        (spider, 3, 4, 13),
        (subdivided_grid, 2, 3, 14),
        (triangle_book, 8, 9, 11),
    ]:
        assert build(fits).vertex_count == 10
        with pytest.raises(
            ResourceLimitError, match=f"^{count} vertices exceeds the generator limit of 10$"
        ):
            build(over)


def test_high_degree_extremal_rejects_bad_parameters(monkeypatch):
    with pytest.raises(DomainError, match="at least 3"):
        high_degree_extremal(3, 2)
    with pytest.raises(DomainError, match="2n >= delta \\+ 1"):
        high_degree_extremal(1, 3)
    with pytest.raises(ResourceLimitError, match="^26 vertices exceeds the generator limit of 20$"):
        high_degree_extremal(3, 3, max_vertices=20)

    # C(2n, δ) >= 2n, so 4n vertices over the limit refuse the graph
    # without computing a binomial that may take unbounded time
    def refuse(*args):
        pytest.fail("the binomial was computed before the size check")

    monkeypatch.setattr("domatch.generators.comb", refuse)
    with pytest.raises(ResourceLimitError, match="generator limit"):
        high_degree_extremal(5000, 3)
    with pytest.raises(
        ResourceLimitError,
        match="^at least 8000000 vertices exceeds the generator limit of 4096$",
    ):
        high_degree_extremal(2_000_000, 2_000_000)


# ---------------------------------------------------------------------------
# recipes


def test_recipe_order_and_repeats_do_not_change_the_build():
    recipe = TightRecipe(
        4,
        3,
        marked=(0, 3, 4),
        a_edges=((0, 2), (2, 4, 6), (5, 7)),
        leaf_edges=((3, 8),),
        extra_edges=((1, 5),),
        pendant_counts=((0, 1), (3, 2), (4, 1)),
    )
    shuffled = recipe._replace(
        marked=(4, 0, 3, 0),
        a_edges=((2, 0, 2), (6, 4, 2), (7, 5, 7)),
        leaf_edges=((3, 8), (3, 8)),
        extra_edges=((5, 1), (1, 5)),
        pendant_counts=((4, 1), (3, 2), (0, 1), (3, 2)),
    )
    assert build_tight_graph(shuffled) == build_tight_graph(recipe)
    assert shuffled.marked == (4, 0, 3, 0)
    assert shuffled.a_edges == ((2, 0, 2), (6, 4, 2), (7, 5, 7))
    assert shuffled.leaf_edges == ((3, 8), (3, 8))
    assert shuffled.extra_edges == ((5, 1), (1, 5))
    assert shuffled.pendant_counts == ((4, 1), (3, 2), (0, 1), (3, 2))


def test_build_rejects_malformed_recipes():
    cases = [
        (TightRecipe(0), "at least one matched edge"),
        (TightRecipe(1, a_count=-1), "cannot be negative"),
        (TightRecipe(1, 2, a_edges=((0, 1),)), "neighbor groups"),
        (TightRecipe(1, marked=(2,), pendant_counts=((2, 1),)), "not a matched vertex"),
        (TightRecipe(1, 1, a_edges=((0,),)), "at least two neighbors"),
        (TightRecipe(1, 1, a_edges=((0, 5),)), "not a matched vertex"),
        (TightRecipe(2, 1, a_edges=((0, 1),), leaf_edges=((2, 9),)), "not an attachment vertex id"),
        (TightRecipe(2, 1, a_edges=((0, 2),), leaf_edges=((0, 4),)), "not a bare matched vertex"),
        (
            TightRecipe(
                2, 1, marked=(2,), a_edges=((0, 1),),
                leaf_edges=((3, 4),), pendant_counts=((2, 1),),
            ),
            "has a marked partner",
        ),
        (TightRecipe(1, extra_edges=((0, 1),)), "has an unmarked partner"),
        (TightRecipe(2, 1, (3,), ((0, 1),), (), ((2, 2),), ((3, 1),)), "^self-loop at 2$"),
        (
            TightRecipe(1, marked=(1,), extra_edges=((0, 99),), pendant_counts=((1, 1),)),
            "^extra edge endpoint 99 is not a matched vertex$",
        ),
        (
            TightRecipe(1, marked=(1,), pendant_counts=((1, 1), (1, 2))),
            "^duplicate pendant count for vertex 1$",
        ),
        (TightRecipe(1, marked=(0, 1), pendant_counts=((0, -1), (1, 1))), "negative pendant count"),
        (TightRecipe(1, marked=(0,), pendant_counts=((1, 1),)), "only allowed on marked"),
        # partner is soaked up by the attachment vertex, so no leaf remains
        (TightRecipe(1, 1, marked=(0,), a_edges=((0, 1),)), "needs at least one pendant leaf"),
    ]
    for recipe, message in cases:
        with pytest.raises(DomainError, match=message):
            build_tight_graph(recipe)


def test_build_respects_vertex_limit():
    recipe = TightRecipe(3, 1, a_edges=((0, 2, 4),))
    with pytest.raises(ResourceLimitError, match="witness closure exceeded"):
        build_tight_graph(recipe, max_vertices=9)
    pendant_heavy = TightRecipe(1, marked=(0,), pendant_counts=((0, 50),))
    with pytest.raises(ResourceLimitError, match="pendant leaves exceeded"):
        build_tight_graph(pendant_heavy, max_vertices=16)


def test_build_bare_matched_edge():
    g, m = build_tight_graph(TightRecipe(1))
    assert g.vertex_count == 2 and g.edge_count == 1
    assert m == Matching([(0, 1)])
    assert is_tight_graph(g)
    assert check_certificate_conditions(g, m).holds


def test_build_double_pendant_is_a_path():
    recipe = TightRecipe(1, marked=(0, 1), pendant_counts=((0, 1), (1, 1)))
    g, m = build_tight_graph(recipe)
    assert g.labels == ("m0", "m1", "p0", "p1")
    assert nx.is_isomorphic(helpers.to_networkx(g), nx.path_graph(4))
    assert is_tight_graph(g)
    assert check_certificate_conditions(g, m).holds


def test_build_attachment_closes_to_triangle():
    # the attachment vertex doubles as the witness for the matched pair
    g, m = build_tight_graph(TightRecipe(1, 1, a_edges=((0, 1),)))
    assert g.vertex_count == 3
    assert recognize(g).certificates == (ExceptionalBook(1),)
    assert is_tight_graph(g)
    assert check_certificate_conditions(g, m).holds


def test_build_three_edges_one_attachment():
    g, m = build_tight_graph(TightRecipe(3, 1, a_edges=((0, 2, 4),)))
    assert g.vertex_count == 13
    assert g.edge_count == 18
    assert g.labels[6] == "a0" and g.labels[7:] == ("w0", "w1", "w2", "w3", "w4", "w5")
    assert min_degree(g) == 2
    assert total_domination_number(g).value == 6
    assert minimum_maximal_matching(g).value == 3
    assert check_certificate_conditions(g, m).holds
    assert recognize(g).verdict


def test_build_mixed_recipe():
    recipe = TightRecipe(
        4,
        3,
        marked=(0, 3, 4),
        a_edges=((0, 2), (2, 4, 6), (5, 7)),
        leaf_edges=((3, 8),),
        extra_edges=((1, 5),),
        pendant_counts=((0, 1), (3, 2), (4, 1)),
    )
    g, m = build_tight_graph(recipe)
    assert g.vertex_count == 16
    assert g.edge_count == 19
    assert min_degree(g) == 1
    assert g.labels.count("w0") == 1 and "w1" not in g.labels
    assert is_maximal_matching(g, m.edges)
    assert check_certificate_conditions(g, m).holds
    assert is_tight_graph(g)
    assert total_domination_number(g).value == 2 * len(m)


def test_built_matching_is_always_maximal():
    for seed in range(20):
        g, m = random_tight_graph(seed)
        assert is_maximal_matching(g, m.edges)


# ---------------------------------------------------------------------------
# the seeded sampler


def test_random_tight_graph_is_deterministic():
    for seed in (0, 7, 123):
        first_g, first_m = random_tight_graph(seed)
        second_g, second_m = random_tight_graph(seed)
        assert first_g == second_g
        assert first_m == second_m


def test_random_tight_graph_respects_budget():
    params = TightGraphParams(max_vertices=12)
    for seed in range(15):
        g, _ = random_tight_graph(seed, params)
        assert 2 <= g.vertex_count <= 12


def test_random_tight_graph_is_tight():
    for seed in range(30):
        g, m = random_tight_graph(seed)
        assert check_certificate_conditions(g, m).holds
        assert is_tight_graph(g)


def test_random_tight_graph_without_marks_is_leafless():
    params = TightGraphParams(mark_probability=0.0)
    for seed in range(12):
        g, _ = random_tight_graph(seed, params)
        assert min_degree(g) == 2
        assert recognize(g).verdict


def test_random_tight_graph_output_is_pinned():
    leafless = TightGraphParams(
        max_k2=40, max_a=20, mark_probability=0.0, extra_edge_probability=0.2, max_vertices=350
    )
    leafy = TightGraphParams(
        max_k2=6, max_a=3, mark_probability=0.25, extra_edge_probability=0.2, max_vertices=20
    )
    h = hashlib.sha256()
    for params in (TightGraphParams(), leafless, leafy):
        for seed in range(30):
            g, m = random_tight_graph(seed, params)
            h.update((serialize_edge_list(g) + repr(m)).encode())
    assert h.hexdigest() == "00582aab047f5d3dac04f0a43a944d36eb59c2e10b88063ac95add7d17f82b1f"


def test_random_tight_graph_rejects_bad_params():
    with pytest.raises(DomainError, match="positive size bounds"):
        random_tight_graph(1, TightGraphParams(max_k2=0))
    with pytest.raises(DomainError, match="mark probability"):
        random_tight_graph(1, TightGraphParams(mark_probability=1.5))
    with pytest.raises(DomainError, match="extra edge probability"):
        random_tight_graph(1, TightGraphParams(extra_edge_probability=-0.1))
    with pytest.raises(DomainError, match="vertex budget"):
        random_tight_graph(1, TightGraphParams(max_vertices=3))


# ---------------------------------------------------------------------------
# every graph the package makes skips the validating constructor


def test_package_made_graphs_skip_validation_and_equal_validated_ones():
    # With Graph.__init__ disabled, every generator and the parser must
    # still build: the validating constructor is for input from outside the
    # package.  Each result must equal, and hash like, its validated copy.
    def refuse(*args, **kwargs):
        raise AssertionError("Graph.__init__ called inside the package")

    leafy = TightGraphParams(max_k2=6, max_a=3, mark_probability=0.3, max_vertices=24)
    texts = ["a b\nb c\n", "vertices: p q r s\nq r\n", "\ufeffx y\n# note\ny z\nz x\n"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Graph, "__init__", refuse)
        graphs = [build(n) for build in (spider, subdivided_grid, triangle_book) for n in range(1, 31)]
        graphs += [cycle(n) for n in range(3, 33)] + [path(n) for n in range(2, 32)]
        graphs += [
            high_degree_extremal(n, delta) for delta in (3, 4, 5) for n in range(2, 5) if 2 * n > delta
        ]
        graphs += [random_tight_graph(seed)[0] for seed in range(20)]
        graphs += [random_tight_graph(seed, leafy)[0] for seed in range(20)]
        graphs += [parse_edge_list(text) for text in texts]
        graphs += [parse_edge_list(serialize_edge_list(g)) for g in graphs[::15]]
    for g in graphs:
        validated = Graph(g.vertex_count, g.edges(), g.labels)
        assert g == validated
        assert hash(g) == hash(validated)
    assert len(graphs) == 214
