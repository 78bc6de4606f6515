"""Shared test helpers.

Brute-force reference implementations here stay as close to the definitions
as possible and share no code with the package's search routines, so the two
sides can disagree when either is wrong; the one exception,
:func:`minimum_certifying_matching`, says what it shares and why.  The
random samplers are seeded by their callers and exist to feed the
equivalence suites.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterator

import networkx as nx

from domatch import (
    Edge,
    Graph,
    Matching,
    TightGraphParams,
    connected_components,
    cycle,
    girth,
    min_degree,
    random_tight_graph,
    subdivided_grid,
    support_classification,
    triangle_book,
)
from domatch.characterization import _certificate_violations, _pinned_pairs

# ---------------------------------------------------------------------------
# brute-force references


def brute_total_domination(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest total dominating set by plain subset enumeration.

    Returns the lexicographically first optimal subset, which is also what
    the package solver promises.
    """
    vertices = list(g.vertices())
    near = [g.neighbors(v) for v in vertices]
    for size in range(1, g.vertex_count + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = set(combo)
            if all(n & chosen for n in near):
                return size, combo
    raise AssertionError("no total dominating set: isolated vertex present")


def is_matching_edges(edges) -> bool:
    seen: set[int] = set()
    for e in edges:
        if e.u in seen or e.v in seen:
            return False
        seen.add(e.u)
        seen.add(e.v)
    return True


def is_maximal_edges(g: Graph, edges) -> bool:
    covered = {w for e in edges for w in (e.u, e.v)}
    return all(e.u in covered or e.v in covered for e in g.edges())


def brute_minimum_maximal_matching(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Smallest maximal matching by enumerating edge subsets by size."""
    edges = sorted(g.edges())
    for size in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            if is_matching_edges(combo) and is_maximal_edges(g, combo):
                return size, combo
    raise AssertionError("no maximal matching: graph has no edges")


def brute_maximal_matchings(g: Graph) -> set[frozenset[Edge]]:
    """Every maximal matching, via the power set of the edges.

    Exponential in the edge count; keep inputs below ~16 edges.
    """
    edges = sorted(g.edges())
    found: set[frozenset[Edge]] = set()
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            if is_matching_edges(combo) and is_maximal_edges(g, combo):
                found.add(frozenset(combo))
    return found


def include_exclude_maximal_matchings(g: Graph) -> Iterator[Matching]:
    """Every maximal matching, by an include/exclude walk over the sorted edges.

    The include branch pops first, so matchings come in ascending
    lexicographic order of their sorted edge-index tuples, all sizes mixed.
    A branch dies once the least edge with both endpoints uncovered lies
    behind the walk and nothing left can cover it.  Masks are built here,
    independently of the package's own search.
    """
    edges = sorted(g.edges())
    incident = [0] * g.vertex_count
    for i, e in enumerate(edges):
        incident[e.u] |= 1 << i
        incident[e.v] |= 1 << i
    kill = [incident[e.u] | incident[e.v] for e in edges]
    stack = [(0, (1 << len(edges)) - 1, ())]
    while stack:
        i, undominated, chosen = stack.pop()
        if undominated == 0:
            yield Matching(edges[j] for j in chosen)
            continue
        first = (undominated & -undominated).bit_length() - 1
        if kill[first].bit_length() <= i:
            continue
        stack.append((i + 1, undominated, chosen))
        if undominated >> i & 1:
            stack.append((i + 1, undominated & ~kill[i], chosen + (i,)))


def maximal_matchings_by_size(g: Graph) -> list[Matching]:
    """Every maximal matching, smallest first; the stable sort keeps the
    lexicographic order of :func:`include_exclude_maximal_matchings` within
    a size, so the first is the least minimum maximal matching."""
    return sorted(include_exclude_maximal_matchings(g), key=len)


def minimum_certifying_matching(g: Graph) -> Matching | None:
    """First minimum maximal matching that meets the four certificate
    conditions, in the (size, lexicographic) order of
    :func:`maximal_matchings_by_size`.

    A certificate M forces γ_t = 2|M| ≤ 2μ* ≤ 2|M|, so only the matchings
    of size μ* are walked, each dropped at its first violation.  It runs
    on the include/exclude enumerator above and the package's violation
    stream, which has tests of its own, so comparing it with
    ``find_certifying_matching`` checks the pruning of that search alone.
    """
    adjacency = g._adjacency
    vertices = g.vertices()
    support = support_classification(g)
    pinned = _pinned_pairs(adjacency, vertices)
    matchings = maximal_matchings_by_size(g)
    for m in matchings:
        if len(m) > len(matchings[0]):
            break
        if next(_certificate_violations(adjacency, vertices, support, pinned, m), None) is None:
            return m
    return None


def definition_conditions(
    g: Graph, edges
) -> tuple[dict[str, bool], list[tuple[str, tuple[int, ...], tuple[Edge, ...]]]]:
    """The four certificate conditions of a maximal matching, read off the
    partition sets M⁺/M⁻/M* and S⁺/S⁻ directly.

    Returns the verdict of each condition and its witnesses as
    ``(condition, vertices, edges)`` in report order.  Every sub-check is
    kept, also those a maximal matching cannot fail: (i) asks that ``V(M⁺)``
    be ``S⁺`` from both sides, (ii) that ``S⁻`` lie in ``V(M⁻)`` and that
    every ``M⁻`` edge join ``S⁻`` to a non-support vertex.  (iii) asks that
    each vertex of ``S⁻ ∪ V(M*)`` see exactly its partner among matched
    vertices, (iv) that any two of them with a common neighbor have their
    partners as the whole neighborhood of some vertex.
    """
    vertices = list(g.vertices())
    near = [g.neighbors(v) for v in vertices]
    sup = {w for v in vertices if len(near[v]) == 1 for w in near[v]}
    s_plus = {v for v in sup if near[v] & sup}
    s_minus = sup - s_plus
    partner = {}
    for e in edges:
        partner[e.u], partner[e.v] = e.v, e.u
    sides = {0: [], 1: [], 2: []}
    for e in sorted(edges):
        sides[(e.u in sup) + (e.v in sup)].append(e)
    m_plus, m_minus, m_star = sides[2], sides[1], sides[0]
    plus_ends = {w for e in m_plus for w in e}
    minus_ends = {w for e in m_minus for w in e}

    found: list[tuple[str, tuple[int, ...], tuple[Edge, ...]]] = []
    for bad in (s_plus - plus_ends, plus_ends - s_plus):
        if bad:
            found.append(("i", tuple(sorted(bad)), ()))
    if s_minus - minus_ends:
        found.append(("ii", tuple(sorted(s_minus - minus_ends)), ()))
    # an M⁻ edge has one support end; it must lie in S⁻
    crooked = [e for e in m_minus if not set(e) & s_minus]
    if crooked:
        found.append(("ii", (), tuple(crooked)))
    pool = sorted(s_minus | {w for e in m_star for w in e})
    for v in pool:
        seen = near[v] & set(partner)
        if seen != {partner.get(v)}:
            found.append(("iii", (v, *sorted(seen)), ()))
    for u, v in itertools.combinations(pool, 2):
        if near[u] & near[v]:
            wanted = {partner[u], partner[v]}
            if not any(n == wanted for n in near):
                found.append(("iv", (u, v), ()))
    failed = {name for name, _, _ in found}
    return {c: c not in failed for c in ("i", "ii", "iii", "iv")}, found


def edge_domination_check(g: Graph, m: Matching) -> bool:
    """True iff every edge outside ``m`` shares an endpoint with some edge in ``m``.

    Written from the edge-domination definition directly, so tests can
    compare it against :func:`domatch.is_maximal_matching` as an
    independent route.
    """
    chosen = set(m.edges)
    for e in g.edges():
        if e in chosen:
            continue
        if not any(d.u in e or d.v in e for d in m):
            return False
    return True


def girth_bound_check(g: Graph) -> bool:
    """True iff the girth is at most six, as for every recognized leafless graph."""
    return girth(g) <= 6


def degree_two_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly two."""
    return frozenset(v for v in g.vertices() if g.degree(v) == 2)


def pairwise_candidate_matching(g: Graph) -> tuple[Edge, ...]:
    """Candidate edges straight from the definition, pair by pair.

    For every pair of degree-two vertices x, y whose closed neighborhoods
    union to six vertices, those six are tested for inducing a six-cycle:
    each sees exactly two of the others, and the walk from x along them
    comes back to x after six steps.  If they do, the two induced edges
    touching neither x nor y are collected.  Quadratic in the degree-two
    vertices, so keep inputs small.
    """
    found: set[Edge] = set()
    for x, y in itertools.combinations(sorted(degree_two_vertices(g)), 2):
        around = g.neighbors(x) | g.neighbors(y) | {x, y}
        if len(around) != 6:
            continue
        inside = {v: g.neighbors(v) & around for v in around}
        if any(len(near) != 2 for near in inside.values()):
            continue
        previous, current, steps = x, min(inside[x]), 1
        while current != x:
            previous, current = current, min(inside[current] - {previous})
            steps += 1
        if steps != 6:
            continue
        for u in around:
            for v in inside[u]:
                if u < v and x not in (u, v) and y not in (u, v):
                    found.add(Edge(u, v))
    return tuple(sorted(found))


def brute_girth(g: Graph) -> int | float:
    """Shortest cycle length: drop each edge and measure the detour."""
    h = to_networkx(g)
    best: int | float = math.inf
    for e in g.edges():
        h.remove_edge(e.u, e.v)
        try:
            best = min(best, nx.shortest_path_length(h, e.u, e.v) + 1)
        except nx.NetworkXNoPath:
            pass
        h.add_edge(e.u, e.v)
    return best


# ---------------------------------------------------------------------------
# conversions and assembly


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    """Relabel an arbitrary networkx graph onto dense integer ids."""
    nodes = sorted(h.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    return Graph(len(nodes), [(index[a], index[b]) for a, b in h.edges()])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union with b's ids shifted above a's; labels stay unique."""
    shift = a.vertex_count
    edges = [(e.u, e.v) for e in a.edges()]
    edges += [(e.u + shift, e.v + shift) for e in b.edges()]
    labels = [f"l.{a.label(v)}" for v in a.vertices()]
    labels += [f"r.{b.label(v)}" for v in b.vertices()]
    return Graph(a.vertex_count + b.vertex_count, edges, labels=labels)


def relabel(g: Graph, permutation: list[int]) -> Graph:
    """Image of g under a permutation of its vertex ids (labels dropped)."""
    return Graph(
        g.vertex_count,
        [(permutation[e.u], permutation[e.v]) for e in g.edges()],
    )


def relabelled_union(rng: random.Random, parts: list[Graph]) -> tuple[Graph, list[int]]:
    """Disjoint union of ``parts`` under a random permutation of its ids,
    with the permutation: vertex i of the union in block order becomes
    ``permutation[i]``."""
    union = functools.reduce(disjoint_union, parts)
    permutation = list(range(union.vertex_count))
    rng.shuffle(permutation)
    return relabel(union, permutation), permutation


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv by a two-edge path through a fresh vertex."""
    dropped = Edge.of(u, v)
    edges = [(e.u, e.v) for e in g.edges() if e != dropped]
    w = g.vertex_count
    edges += [(u, w), (v, w)]
    return Graph(g.vertex_count + 1, edges)


def petersen_subdivided() -> Graph:
    """The Petersen graph with one edge subdivided; minimum degree two."""
    return subdivide_edge(petersen_graph(), 0, 1)


# ---------------------------------------------------------------------------
# seeded samplers


def random_connected_graph(rng: random.Random, n: int, extra_edges: int = 0) -> Graph:
    """Random spanning tree plus a few random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {Edge.of(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    rest = [
        Edge.of(u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if Edge.of(u, v) not in edges
    ]
    rng.shuffle(rest)
    edges.update(rest[:extra_edges])
    return Graph(n, edges)


def sparse_graph(seed: int, n: int, extra: int, min_deg: int) -> Graph:
    """Connected random graph: a random tree, ``extra`` more edges, then
    edges from every vertex of degree below ``min_deg``.  The recipe of the
    benchmark's ``sparse`` instances, so the same parameters give the same
    graph."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for v in range(n):
        while degree[v] < min_deg:
            w = rng.randrange(n)
            e = (min(v, w), max(v, w))
            if w != v and e not in edges:
                edges.add(e)
                degree[v] += 1
                degree[w] += 1
    return Graph(n, sorted(edges))


#: ``sparse_graph`` parameters (seed, n, extra, min_deg) of the benchmark's
#: exact-solve pool: 22..30 vertices, minimum degree asked 0, 2 or 3.
BENCH_SCALE_SPARSE = (
    (0, 26, 10, 0), (0, 28, 12, 2), (0, 24, 0, 3), (1, 28, 12, 2),
    (2, 22, 8, 0), (2, 26, 0, 3), (3, 26, 10, 0), (3, 28, 12, 2),
    (4, 24, 0, 3), (5, 24, 0, 3), (6, 26, 10, 0), (7, 26, 0, 3),
    (5, 28, 0, 3), (2, 30, 12, 2), (3, 30, 12, 2),
)

#: Recipe bounds of the benchmark's leafless tight graphs (100 to 350 vertices).
BENCH_SCALE_LEAFLESS_PARAMS = TightGraphParams(
    max_k2=40, max_a=20, mark_probability=0.0, extra_edge_probability=0.2, max_vertices=350
)

#: The benchmark's recognize-leafless pool: ``tight:<seed>`` under the
#: bounds above, a named family with its size, or a ``union:`` of
#: ``+``-joined specs.
BENCH_SCALE_LEAFLESS = (
    "tight:14", "tight:37", "tight:1", "tight:18", "tight:4", "tight:13", "tight:36", "tight:11",
    "grid:10", "grid:15", "grid:25", "grid:40", "grid:60",
    "cycle:60", "cycle:75", "cycle:85", "cycle:100", "cycle:140", "cycle:150",
    "book:1000", "book:2000", "book:3000", "book:4000", "book:5000",
    "union:tight:1+grid:15+book:500",
    "union:grid:12+cycle:60",
    "union:cycle:6+grid:25+tight:14",
    "union:book:50+grid:8+cycle:7",
)


def bench_scale_leafless_graph(spec: str) -> Graph:
    """The graph a spec of :data:`BENCH_SCALE_LEAFLESS` names, with the
    benchmark's ids: a union shifts each part above the parts before it."""
    kind, _, rest = spec.partition(":")
    if kind == "union":
        return functools.reduce(disjoint_union, map(bench_scale_leafless_graph, rest.split("+")))
    if kind == "tight":
        return random_tight_graph(int(rest), BENCH_SCALE_LEAFLESS_PARAMS)[0]
    family = {"grid": subdivided_grid, "cycle": cycle, "book": triangle_book}[kind]
    return family(int(rest))


def _patched_to_min_degree_two(rng: random.Random, g: Graph) -> Graph:
    """Add edges at degree-deficient vertices until every degree is >= 2."""
    n = g.vertex_count
    adjacency = {v: set(g.neighbors(v)) for v in g.vertices()}
    edges = set(g.edges())
    for v in range(n):
        while len(adjacency[v]) < 2:
            options = [w for w in range(n) if w != v and w not in adjacency[v]]
            w = rng.choice(options)
            adjacency[v].add(w)
            adjacency[w].add(v)
            edges.add(Edge.of(v, w))
    return Graph(n, edges)


def random_min_degree_two_graph(rng: random.Random, lo: int = 6, hi: int = 13) -> Graph:
    """Connected graph with minimum degree exactly two.

    Mixes two shapes so the sample is not all Hamiltonian: a cycle with a few
    chords, and a patched-up random tree.  Rejection keeps the degree exact.
    """
    while True:
        n = rng.randint(lo, hi)
        if rng.random() < 0.5:
            order = list(range(n))
            rng.shuffle(order)
            ring = {Edge.of(order[i - 1], order[i]) for i in range(1, n)}
            ring.add(Edge.of(order[0], order[-1]))
            chords = [
                Edge.of(u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if Edge.of(u, v) not in ring
            ]
            rng.shuffle(chords)
            ring.update(chords[: rng.randint(0, max(1, n // 4))])
            g = Graph(n, ring)
        else:
            g = random_connected_graph(rng, n, rng.randint(0, n // 2))
            g = _patched_to_min_degree_two(rng, g)
        if len(connected_components(g)) == 1 and min_degree(g) == 2:
            return g


def random_low_degree_graph(rng: random.Random, lo: int = 4, hi: int = 11) -> Graph:
    """Connected graph with minimum degree one or two (mostly one)."""
    while True:
        n = rng.randint(lo, hi)
        g = random_connected_graph(rng, n, rng.randint(0, n // 2))
        if min_degree(g) in (1, 2):
            return g
