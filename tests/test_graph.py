import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domatch import (
    INFINITE_GIRTH,
    DomainError,
    Edge,
    EdgeListFormatError,
    ExceptionalBook,
    ExceptionalSixCycle,
    Graph,
    TightGraphParams,
    check_matching_bound,
    connected_components,
    find_certifying_matching,
    girth,
    min_degree,
    parse_edge_list,
    random_tight_graph,
    recognize,
    serialize_edge_list,
    support_classification,
)
from domatch.generators import cycle, path, spider, subdivided_grid, triangle_book

import helpers


@st.composite
def small_graphs(draw, max_vertices=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Edge


def test_edge_canonical_orientation():
    assert Edge.of(3, 1) == Edge(1, 3)
    assert Edge.of(1, 3) == Edge(1, 3)


def test_edge_rejects_self_loop():
    with pytest.raises(DomainError):
        Edge.of(2, 2)


# ---------------------------------------------------------------------------
# Graph construction


def test_graph_adjacency_and_degrees():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.neighbors(0) == {1, 2}
    assert g.degree(1) == 2
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert g.edges() == (Edge(0, 1), Edge(0, 2), Edge(1, 2))


def test_graph_collapses_duplicate_edges():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_graph_rejects_bad_input():
    with pytest.raises(DomainError):
        Graph(-1)
    with pytest.raises(DomainError):
        Graph(2, [(0, 2)])
    with pytest.raises(DomainError):
        Graph(2, [(0, 0)])
    # a self-loop is reported first; the range message names the canonical edge
    with pytest.raises(DomainError, match="^self-loop at vertex 1$"):
        Graph(2, [(1, 1)])
    with pytest.raises(
        DomainError, match=r"^edge Edge\(u=0, v=3\) has an endpoint outside 0\.\.1$"
    ):
        Graph(2, [(3, 0)])
    with pytest.raises(DomainError, match="^self-loop at vertex 5$"):
        Graph(2, [(5, 5)])
    with pytest.raises(DomainError):
        Graph(2, [], labels=["a"])
    with pytest.raises(DomainError):
        Graph(2, [], labels=["a", "a"])
    with pytest.raises(DomainError):
        Graph(1, [], labels=["two words"])
    with pytest.raises(DomainError):
        Graph(1, [], labels=["#a"])
    with pytest.raises(DomainError):
        Graph(1, [], labels=["vertices:"])
    # labels are compared after conversion to text
    with pytest.raises(DomainError, match="unique"):
        Graph(2, [(0, 1)], labels=[1, "1"])


def test_graph_equality_includes_labels():
    a = Graph(2, [(0, 1)])
    b = Graph(2, [(0, 1)], labels=["x", "y"])
    assert a != b
    assert a == Graph(2, [(1, 0)])
    assert hash(a) == hash(Graph(2, [(0, 1)]))


def test_graph_owns_the_sets_its_builder_filled():
    # One container per vertex: the builder keeps the sets it is handed,
    # and a caller only ever sees a frozenset copy of one.
    adjacency = [{1, 2}, {0}, {0}]
    g = Graph._from_checked(adjacency, ("a", "b", "c"))
    assert all(g._adjacency[i] is adjacency[i] for i in range(3))
    book = triangle_book(1000)
    built = [
        book,
        parse_edge_list(serialize_edge_list(book)),
        Graph(book.vertex_count, book.edges(), book.labels),
    ]
    for h in built:
        assert all(type(near) is set for near in h._adjacency)
        for v in h.vertices():
            near = h.neighbors(v)
            assert type(near) is frozenset and near == h._adjacency[v]
    assert built[0] == built[1] == built[2]
    assert len({hash(h) for h in built}) == 1


def test_vertex_with_label():
    g = Graph(2, [(0, 1)], labels=["x", "y"])
    assert g.vertex_with_label("y") == 1
    with pytest.raises(DomainError):
        g.vertex_with_label("z")


# ---------------------------------------------------------------------------
# edge-list text format


def test_parse_smallest_path():
    g = parse_edge_list("a b\nb c")
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.labels == ("a", "b", "c")


def test_parse_triangle():
    g = parse_edge_list("u v\nu w1\nv w1")
    assert g.vertex_count == 3
    assert recognize(g).certificates == (ExceptionalBook(1),)


def test_parse_duplicate_edge_collapses():
    g = parse_edge_list("a b\na b")
    assert g.edge_count == 1


def test_parse_comments_blanks_and_header():
    text = "# a comment\n\nvertices: lonely a\na b\n"
    g = parse_edge_list(text)
    assert g.vertex_count == 3
    assert g.labels == ("lonely", "a", "b")
    assert g.degree(0) == 0


def test_parse_errors():
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("a\n")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("a b c\n")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("a a\n")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("a #b\n")
    assert issubclass(EdgeListFormatError, ValueError)


def test_parse_error_names_line():
    with pytest.raises(EdgeListFormatError, match="line 2"):
        parse_edge_list("a b\nbroken\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("a\n", "line 1: expected two vertex labels, got 'a'"),
        ("a b\n\t x  y z \n", "line 2: unexpected extra tokens in 'x  y z'"),
        ("# c\na b\nc c\n", "line 3: self-loop at 'c'"),
        ("a #b\n", "line 1: label '#b' is ambiguous in this format"),
        ("x y\na vertices:\n", "line 2: label 'vertices:' is ambiguous in this format"),
        ("\nvertices: a #b c\n", "line 2: label '#b' is ambiguous in this format"),
        ("a b\nbroken\nc c\nd #e\n", "line 2: expected two vertex labels, got 'broken'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(EdgeListFormatError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_round_trip_fixed_graphs():
    for g in [spider(2), subdivided_grid(2), triangle_book(3), path(4)]:
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_round_trip_preserves_isolated_vertices():
    g = parse_edge_list("vertices: a b c\nb c\n")
    again = parse_edge_list(serialize_edge_list(g))
    assert again == g
    assert again.degree(0) == 0


_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_GAP = st.sampled_from([" ", "\t", "  ", " \t"])


#: Tokens the format reserves: a comment mark and the header keyword.
_RESERVED = st.sampled_from(["#", "#b", "vertices:"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text with comments, blank lines, odd whitespace, repeated
    and flipped edges, and any number of headers anywhere, which may repeat
    labels and name isolated vertices.  Half the texts also hold malformed
    lines: one or three tokens, self-loops, reserved tokens as labels."""
    names = draw(
        st.lists(
            st.text(alphabet="abxy01_:#", min_size=1, max_size=3).filter(
                lambda t: not t.startswith("#")
            ),
            min_size=2,
            max_size=9,
            unique=True,
        )
    )
    label = st.sampled_from(names)
    pairs = st.tuples(label, label).filter(lambda p: p[0] != p[1])
    lines = [draw(_GAP).join(p) for p in draw(st.lists(pairs, max_size=15))]
    broken = draw(st.booleans())
    header_label = st.one_of(label, _RESERVED) if broken else label
    for header in draw(st.lists(st.lists(header_label, max_size=len(names) + 1), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), " ".join(["vertices:", *header]))
    for extra in draw(st.lists(st.sampled_from(["", "#", "# a b c", "\t# x"]), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if broken:
        bad_lines = st.one_of(
            label,
            st.lists(label, min_size=3, max_size=3).map(" ".join),
            st.tuples(label, _GAP).map(lambda p: p[1].join([p[0], p[0]])),
            st.tuples(label, _RESERVED).map(" ".join),
        )
        for bad in draw(st.lists(bad_lines, min_size=1, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), bad)
    lines = [draw(_BLANK) + line + draw(_BLANK) for line in lines]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def tokenized_graph(text):
    """What ``text`` describes, read by this test's own tokenizer: the
    graph, or the error message for its first bad line."""
    ids: dict[str, int] = {}
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "vertices:":
            named = tokens[1:]
        elif len(tokens) == 1:
            return f"line {lineno}: expected two vertex labels, got {line.strip()!r}"
        elif len(tokens) > 2:
            return f"line {lineno}: unexpected extra tokens in {line.strip()!r}"
        elif tokens[0] == tokens[1]:
            return f"line {lineno}: self-loop at {tokens[0]!r}"
        else:
            named = tokens
        for token in named:
            if token not in ids and (token.startswith("#") or token == "vertices:"):
                return f"line {lineno}: label {token!r} is ambiguous in this format"
            ids.setdefault(token, len(ids))
        if named is tokens:
            pairs.append((ids[tokens[0]], ids[tokens[1]]))
    return Graph(len(ids), pairs, labels=list(ids))


@given(edge_list_texts())
def test_parse_agrees_with_constructor(text):
    expected = tokenized_graph(text)
    if isinstance(expected, str):
        with pytest.raises(EdgeListFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == expected
        return
    g = parse_edge_list(text)
    # edge_count and repr must not depend on whether edges() has run yet.
    assert g.edge_count == expected.edge_count
    assert repr(g) == repr(expected)
    assert g == expected
    assert hash(g) == hash(expected)
    assert g.labels == expected.labels
    assert g.edges() == expected.edges()
    assert all(type(e) is Edge and e.u < e.v for e in g.edges())
    assert list(g.edges()) == sorted(set(g.edges()))
    assert g.edge_count == expected.edge_count == len(g.edges())
    assert repr(g) == repr(expected)


def test_parse_self_loop_between_known_labels():
    with pytest.raises(EdgeListFormatError) as info:
        parse_edge_list("vertices: a b\na b\nb a\n\nb  b\n")
    assert str(info.value) == "line 5: self-loop at 'b'"


@pytest.mark.parametrize(
    "build",
    [
        lambda: triangle_book(2000),
        lambda: subdivided_grid(500),
        lambda: helpers.disjoint_union(
            helpers.disjoint_union(triangle_book(30), subdivided_grid(20)), cycle(60)
        ),
    ],
    ids=["book", "grid", "union"],
)
def test_parse_then_recognize_never_lists_edges(build):
    text = serialize_edge_list(build())
    g = parse_edge_list(text)
    recognize(g)
    assert g._edges is None
    expected = tokenized_graph(text)
    assert g.edges() == expected.edges()
    assert g.edge_count == len(g.edges())


@given(small_graphs())
def test_round_trip_random(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def _outcome(solve, g):
    try:
        return solve(g)
    except DomainError as error:
        return type(error), str(error)


def check_edge_order_invariance(g, rng):
    # The layout of an adjacency set follows the order its edges were
    # added in, so no answer may depend on it.
    header, *lines = serialize_edge_list(g).splitlines()
    lines = [" ".join(reversed(line.split())) for line in lines]
    rng.shuffle(lines)
    h = parse_edge_list("\n".join([header, *lines]) + "\n")
    assert h == g and hash(h) == hash(g)
    delta = min_degree(g)
    if delta == 2:
        assert _outcome(recognize, h) == _outcome(recognize, g)
    if 1 <= delta <= 2:
        assert _outcome(find_certifying_matching, h) == _outcome(find_certifying_matching, g)
    if g.vertex_count <= 24:
        assert _outcome(check_matching_bound, h) == _outcome(check_matching_bound, g)


@given(small_graphs(), st.randoms(use_true_random=False))
def test_answers_do_not_depend_on_edge_order(g, rng):
    check_edge_order_invariance(g, rng)


@pytest.mark.parametrize(
    "params, seeds",
    [
        (TightGraphParams(max_k2=6, max_a=3, mark_probability=0.3, max_vertices=24), range(8)),
        (TightGraphParams(max_k2=20, max_a=8, mark_probability=0.0, max_vertices=64), range(6)),
    ],
    ids=["leafy", "leafless"],
)
def test_answers_on_tight_graphs_do_not_depend_on_edge_order(params, seeds):
    for seed in seeds:
        check_edge_order_invariance(random_tight_graph(seed, params)[0], random.Random(seed))


@given(small_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count == 2 * len(g.edges())


# ---------------------------------------------------------------------------
# degree queries


def test_min_degree():
    assert min_degree(cycle(5)) == 2
    assert min_degree(spider(2)) == 1
    assert min_degree(triangle_book(3)) == 2
    with pytest.raises(DomainError):
        min_degree(Graph(0))


def test_degree_two_vertices():
    assert helpers.degree_two_vertices(cycle(6)) == frozenset(range(6))
    assert helpers.degree_two_vertices(Graph(2, [(0, 1)])) == frozenset()
    g = subdivided_grid(2)
    expected = {
        g.vertex_with_label(name)
        for name in ["u0", "u2", "v0", "v2", "a0", "a1", "b0", "b1"]
    }
    assert helpers.degree_two_vertices(g) == expected
    assert len(expected) == 8


# ---------------------------------------------------------------------------
# support classification


def test_support_classification_path():
    g = parse_edge_list("a b\nb c\nc d")
    got = support_classification(g)
    b, c = g.vertex_with_label("b"), g.vertex_with_label("c")
    assert got.sup == {b, c}
    assert got.s_plus == {b, c}
    assert got.s_minus == frozenset()


def test_support_classification_spider():
    g = spider(3)
    got = support_classification(g)
    expected = {g.vertex_with_label(f"y{i}") for i in (1, 2, 3)}
    assert got.sup == expected
    assert got.s_plus == frozenset()
    assert got.s_minus == expected


def test_support_classification_leafless():
    got = support_classification(cycle(6))
    assert got.sup == got.s_plus == got.s_minus == frozenset()


@given(small_graphs())
def test_support_classification_invariants(g):
    got = support_classification(g)
    assert got.s_plus | got.s_minus == got.sup
    assert got.s_plus & got.s_minus == frozenset()
    leaves = {v for v in g.vertices() if g.degree(v) == 1}
    for v in got.sup:
        assert g.neighbors(v) & leaves
    # within sup, s_plus members have company and s_minus members are alone
    for v in got.s_plus:
        assert g.neighbors(v) & got.sup
    for v in got.s_minus:
        assert not (g.neighbors(v) & got.sup)


# ---------------------------------------------------------------------------
# connectivity


def test_connected_components_disjoint_cycles():
    g = helpers.disjoint_union(cycle(3), cycle(4))
    comps = connected_components(g)
    assert [len(c) for c in comps] == [3, 4]
    assert comps[0] == frozenset(range(3))


def test_connected_components_isolated_vertices():
    comps = connected_components(Graph(2))
    assert comps == [frozenset({0}), frozenset({1})]


def test_connected_components_ordering():
    # ordered by the smallest vertex id each component contains
    g = Graph(4, [(1, 3)])
    assert connected_components(g) == [
        frozenset({0}),
        frozenset({1, 3}),
        frozenset({2}),
    ]


def test_connected_graph_has_one_component():
    g = subdivided_grid(2)
    assert connected_components(g) == [frozenset(g.vertices())]


def check_components(g, comps):
    """``comps`` are the components of ``g`` by definition: they partition
    the vertices, no edge leaves one, a walk inside each reaches all of it,
    and they come ordered by smallest id."""
    union = set()
    for c in comps:
        assert type(c) is frozenset
        assert not (union & c)
        union |= c
        assert all(g.neighbors(v) <= c for v in c)
        start = min(c)
        reached, stack = {start}, [start]
        while stack:
            for y in g.neighbors(stack.pop()) - reached:
                reached.add(y)
                stack.append(y)
        assert reached == c
    assert union == set(g.vertices())
    smallest = [min(c) for c in comps]
    assert smallest == sorted(set(smallest))


@given(small_graphs())
def test_components_partition(g):
    check_components(g, connected_components(g))


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: triangle_book(2000), 1),
        (lambda: cycle(4000), 1),
        (
            lambda: helpers.disjoint_union(
                helpers.disjoint_union(Graph(3), triangle_book(30)),
                helpers.disjoint_union(Graph(4, [(1, 3)]), cycle(60)),
            ),
            8,
        ),
    ],
    ids=["book-hubs", "long-cycle", "isolated-union"],
)
def test_components_of_fixed_graphs(build, count):
    g = build()
    comps = connected_components(g)
    assert len(comps) == count
    check_components(g, comps)


def test_components_settle_placed_vertices_without_set_differences():
    # A book's spine reaches every page at once: each page then costs a
    # subset test, not a set difference, and no start vertex is drawn once
    # the one component is complete.
    differences, drawn = [], []

    class CountingSet(frozenset):
        def __sub__(self, other):
            differences.append(1)
            return super().__sub__(other)

    class CountingGraph(Graph):
        __slots__ = ()

        def vertices(self):
            for v in super().vertices():
                drawn.append(v)
                yield v

    book = triangle_book(1000)
    g = CountingGraph(book.vertex_count, book.edges())
    g._adjacency = tuple(map(CountingSet, book._adjacency))
    comps = connected_components(g)
    assert len(differences) <= 2  # 1002 with one difference per vertex
    assert drawn == [0]
    check_components(g, comps)


# ---------------------------------------------------------------------------
# girth


def test_girth_fixed_values():
    assert girth(spider(3)) == INFINITE_GIRTH
    assert girth(triangle_book(2)) == 3
    assert girth(subdivided_grid(2)) == 6
    for n in range(3, 10):
        assert girth(cycle(n)) == n
    assert girth(helpers.petersen_graph()) == 5


def test_girth_infinite_compares_with_ints():
    assert girth(path(5)) > 6
    assert math.isinf(girth(path(5)))


@given(small_graphs())
def test_girth_matches_brute_force(g):
    assert girth(g) == helpers.brute_girth(g)


def test_girth_is_linear_on_a_long_cycle(monkeypatch):
    import domatch.graph as graph_module

    pops = []

    class CountingDeque(graph_module.deque):
        def popleft(self):
            pops.append(1)
            return super().popleft()

    monkeypatch.setattr(graph_module, "deque", CountingDeque)
    assert girth(cycle(2000)) == 2000
    assert 0 < len(pops) <= 2 * 2000


@given(small_graphs())
def test_girth_forest_test(g):
    forest = g.edge_count == g.vertex_count - len(connected_components(g))
    assert (girth(g) == INFINITE_GIRTH) == forest


# ---------------------------------------------------------------------------
# named families


def test_is_cycle_of_length():
    # recognize tells the six-cycle and the triangle apart per component
    assert recognize(cycle(6)).certificates == (ExceptionalSixCycle(),)
    assert recognize(triangle_book(1)).certificates == (ExceptionalBook(1),)
    two_triangles = recognize(helpers.disjoint_union(cycle(3), cycle(3)))
    assert two_triangles.certificates == (ExceptionalBook(1), ExceptionalBook(1))
    for g in (path(4), Graph(2, [(0, 1)])):
        with pytest.raises(DomainError, match="minimum degree 1"):
            recognize(g)


def test_triangle_book_parameter():
    for n in range(1, 5):
        assert recognize(triangle_book(n)).certificates == (ExceptionalBook(n),)
    assert recognize(cycle(3)).certificates == (ExceptionalBook(1),)
    # a four-cycle has the book's vertex count but not its spine
    assert not isinstance(recognize(cycle(4)).certificates[0], ExceptionalBook)
    assert recognize(cycle(6)).certificates == (ExceptionalSixCycle(),)
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(DomainError, match="minimum degree 3"):
        recognize(k4)


def test_triangle_book_structural_invariants():
    for n in range(1, 5):
        g = triangle_book(n)
        assert min_degree(g) == 2
        assert girth(g) == 3
        assert g.edge_count == 2 * n + 1
