"""Constructors for the graph families used throughout the package.

Deterministic builders for the named fixture families (spiders, subdivided
grids, triangle books, cycles, paths, the high-minimum-degree extremal
graphs) and the recipe-driven family of matching-certified graphs, with a
seeded random sampler over recipes.  Every generator labels its vertices so
emitted edge lists read like the construction, and refuses a size above its
vertex limit before it allocates anything.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError
from .graph import Graph
from .oracles import Matching

#: Vertex ceiling of the named-family builders, checked before anything is
#: allocated.
MAX_FAMILY_VERTICES = 100_000


def _family_size(vertex_count: int) -> int:
    """``vertex_count``, refused above :data:`MAX_FAMILY_VERTICES`."""
    if vertex_count > MAX_FAMILY_VERTICES:
        raise ResourceLimitError(
            f"{vertex_count} vertices exceeds the generator limit of {MAX_FAMILY_VERTICES}"
        )
    return vertex_count


def _finish(vertex_count: int, pairs: Iterable[tuple[int, int]], labels: list[str]) -> Graph:
    """The graph on ``pairs`` a builder here drew: distinct ids in range and
    unique, format-safe labels, so nothing is checked again."""
    adjacency: list[set[int]] = [set() for _ in range(vertex_count)]
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return Graph._from_checked(adjacency, tuple(labels))


def spider(n: int) -> Graph:
    """``n`` legs of three edges hanging from one center vertex.

    Vertices: center ``c`` plus ``x_i, y_i, z_i`` per leg, 3n+1 in total.
    Minimum degree 1 for every n.
    """
    if n < 1:
        raise DomainError("spider needs at least one leg")
    count = _family_size(3 * n + 1)
    labels = ["c"]
    edges: list[tuple[int, int]] = []
    for i in range(n):
        x, y, z = 3 * i + 1, 3 * i + 2, 3 * i + 3
        labels += [f"x{i + 1}", f"y{i + 1}", f"z{i + 1}"]
        edges += [(0, x), (x, y), (y, z)]
    return _finish(count, edges, labels)


def subdivided_grid(n: int) -> Graph:
    """Two-row grid ladder with every row edge subdivided once.

    Rows ``u_0..u_n`` and ``v_0..v_n`` joined by n+1 rungs; the row edges
    are replaced by paths through ``a_i`` (top) and ``b_i`` (bottom).
    4n+2 vertices, minimum degree 2; n=1 yields the six-cycle.
    """
    if n < 1:
        raise DomainError("subdivided grid needs at least one column")
    count = _family_size(4 * n + 2)
    top = list(range(n + 1))
    bottom = [n + 1 + i for i in range(n + 1)]
    mid_top = [2 * n + 2 + i for i in range(n)]
    mid_bottom = [3 * n + 2 + i for i in range(n)]
    labels = (
        [f"u{i}" for i in range(n + 1)]
        + [f"v{i}" for i in range(n + 1)]
        + [f"a{i}" for i in range(n)]
        + [f"b{i}" for i in range(n)]
    )
    edges = [(top[i], bottom[i]) for i in range(n + 1)]
    for i in range(n):
        edges += [(top[i], mid_top[i]), (mid_top[i], top[i + 1])]
        edges += [(bottom[i], mid_bottom[i]), (mid_bottom[i], bottom[i + 1])]
    return _finish(count, edges, labels)


def triangle_book(n: int) -> Graph:
    """``n`` triangles sharing one common edge ``uv``."""
    if n < 1:
        raise DomainError("triangle book needs at least one page")
    count = _family_size(n + 2)
    labels = ["u", "v"] + [f"w{i + 1}" for i in range(n)]
    edges = [(0, 1)]
    for i in range(n):
        edges += [(0, 2 + i), (1, 2 + i)]
    return _finish(count, edges, labels)


def cycle(n: int) -> Graph:
    """Cycle on ``n`` ≥ 3 vertices."""
    if n < 3:
        raise DomainError("cycle needs at least three vertices")
    _family_size(n)
    labels = [f"v{i}" for i in range(n)]
    return _finish(n, [(i, (i + 1) % n) for i in range(n)], labels)


def path(n: int) -> Graph:
    """Path on ``n`` ≥ 2 vertices."""
    if n < 2:
        raise DomainError("path needs at least two vertices")
    _family_size(n)
    labels = [f"v{i}" for i in range(n)]
    return _finish(n, [(i, i + 1) for i in range(n - 1)], labels)


def high_degree_extremal(n: int, delta: int, *, max_vertices: int = 4096) -> Graph:
    """Extremal graph meeting the bound 2μ* − δ + 2 with minimum degree δ ≥ 3.

    ``n`` disjoint base edges, plus one apex vertex per δ-subset of the 2n
    base vertices, adjacent to exactly that subset.  Apexes have degree δ;
    base vertices have degree 1 + C(2n−1, δ−1), which is larger whenever the
    size precondition 2n ≥ δ + 1 holds, so the minimum degree is δ.
    """
    if delta < 3:
        raise DomainError("minimum degree parameter must be at least 3")
    if 2 * n < delta + 1:
        raise DomainError(f"need 2n >= delta + 1, got n={n}, delta={delta}")
    base = 2 * n
    # 3 <= δ < 2n gives C(2n, δ) >= 2n: refuse on that floor of 4n vertices
    # before computing a binomial that may be far too large
    if 2 * base > max_vertices:
        raise ResourceLimitError(
            f"at least {2 * base} vertices exceeds the generator limit of {max_vertices}"
        )
    total = base + comb(base, delta)
    if total > max_vertices:
        raise ResourceLimitError(
            f"{total} vertices exceeds the generator limit of {max_vertices}"
        )
    labels = [f"m{i}" for i in range(base)]
    edges = [(2 * i, 2 * i + 1) for i in range(n)]
    for j, subset in enumerate(combinations(range(base), delta)):
        apex = base + j
        labels.append(f"s{j}")
        edges += [(apex, v) for v in subset]
    return _finish(total, edges, labels)


class TightRecipe(NamedTuple):
    """Build plan for a graph certified tight by its embedded matching.

    The matching is ``k2_count`` disjoint edges on vertices 0..2k−1 (vertex
    2i pairs with 2i+1).  ``a_count`` attachment vertices follow, with ids
    2k..2k+a−1; ``a_edges`` lists each one's matched neighbors (at least
    two).  ``marked`` names the matched vertices destined to become support
    vertices.  ``leaf_edges`` joins still-unattached matched vertices with
    unmarked partners to attachment vertices; ``extra_edges`` run between
    matched vertices whose partners are marked.  ``pendant_counts`` gives
    per marked vertex the number of leaves to hang in the final step.

    Fields are kept as given.  The build ignores the order and repeats of
    every field's entries, except that ``a_edges`` group j is attachment j.
    """

    k2_count: int
    a_count: int = 0
    marked: tuple[int, ...] = ()
    a_edges: tuple[tuple[int, ...], ...] = ()
    leaf_edges: tuple[tuple[int, int], ...] = ()
    extra_edges: tuple[tuple[int, int], ...] = ()
    pendant_counts: tuple[tuple[int, int], ...] = ()


def build_tight_graph(
    recipe: TightRecipe, *, max_vertices: int = 512
) -> tuple[Graph, Matching]:
    """Materialize a recipe and return the graph with its embedded matching.

    After the recipe's explicit edges are drawn, witness vertices are added
    until closure: any two matched-with-unmarked-partner vertices that share
    a neighbor (or, when both are unmarked, whose partners do) receive a
    degree-two vertex pinned to the relevant partner pair, unless one
    already exists.  Finally each marked vertex gets its pendant leaves;
    a marked vertex that would end up leafless and without a pendant is a
    recipe error.  Every edge of the result touches a matched vertex, so
    the embedded matching is maximal by construction.
    """
    k2 = recipe.k2_count
    if k2 < 1:
        raise DomainError("recipe needs at least one matched edge")
    if recipe.a_count < 0:
        raise DomainError("attachment vertex count cannot be negative")
    if len(recipe.a_edges) != recipe.a_count:
        raise DomainError(
            f"{recipe.a_count} attachment vertices but {len(recipe.a_edges)}"
            " neighbor groups"
        )
    base = 2 * k2
    marked = set(recipe.marked)
    for v in sorted(marked):
        if not 0 <= v < base:
            raise DomainError(f"marked vertex {v} is not a matched vertex")
    unmarked_partner = [v for v in range(base) if (v ^ 1) not in marked]

    adjacency: list[set[int]] = [set() for _ in range(base + recipe.a_count)]

    def add_edge(u: int, v: int) -> None:
        if u == v:
            raise DomainError(f"self-loop at {u}")
        adjacency[u].add(v)
        adjacency[v].add(u)

    def add_vertex(neighbors: Iterable[int], what: str) -> None:
        if len(adjacency) >= max_vertices:
            raise ResourceLimitError(f"{what} exceeded the vertex limit of {max_vertices}")
        v = len(adjacency)
        adjacency.append(set())
        for t in neighbors:
            add_edge(v, t)

    for i in range(k2):
        add_edge(2 * i, 2 * i + 1)
    for j, group in enumerate(recipe.a_edges):
        group = sorted(set(group))
        if len(group) < 2:
            raise DomainError(f"attachment vertex a{j} needs at least two neighbors")
        for v in group:
            if not 0 <= v < base:
                raise DomainError(f"attachment neighbor {v} is not a matched vertex")
            add_edge(base + j, v)

    # Step-4 edges may only leave vertices that are still bare after the
    # attachment round, and only when their partner is unmarked.
    bare = {v for v in range(base) if len(adjacency[v]) == 1}
    for v, a in sorted({(v, a) for v, a in recipe.leaf_edges}):
        if not base <= a < base + recipe.a_count:
            raise DomainError(f"{a} is not an attachment vertex id")
        if v not in bare:
            raise DomainError(f"vertex {v} is not a bare matched vertex")
        if (v ^ 1) in marked:
            raise DomainError(f"vertex {v} has a marked partner")
        add_edge(v, a)

    for u, v in sorted({(min(u, v), max(u, v)) for u, v in recipe.extra_edges}):
        for w in (u, v):
            if not 0 <= w < base:
                raise DomainError(f"extra edge endpoint {w} is not a matched vertex")
            if (w ^ 1) not in marked:
                raise DomainError(f"extra edge endpoint {w} has an unmarked partner")
        add_edge(u, v)

    # Only matched vertices gain edges from here on, and none of them can
    # have a pair as its neighborhood: every vertex of a pair is unmarked,
    # so a matched vertex whose partner lies in the pair has no extra edge
    # and sees one matched vertex, while a pair holds two.  So the
    # neighborhoods a witness could already have are the attachment
    # vertices' and the witnesses' own, fixed once drawn.
    neighborhoods = {frozenset(adjacency[a]) for a in range(base, base + recipe.a_count)}

    def ensure_witness(pair: frozenset[int]) -> bool:
        if pair in neighborhoods:
            return False
        add_vertex(pair, "witness closure")
        neighborhoods.add(pair)
        return True

    changed = True
    while changed:
        changed = False
        for u, v in combinations(unmarked_partner, 2):
            if u in marked or v in marked:
                if adjacency[u] & adjacency[v]:
                    changed |= ensure_witness(frozenset((u ^ 1, v ^ 1)))
            elif (adjacency[u] & adjacency[v]) or (adjacency[u ^ 1] & adjacency[v ^ 1]):
                # For a matched pair both sets coincide: one witness only.
                changed |= ensure_witness(frozenset((u, v)))
                changed |= ensure_witness(frozenset((u ^ 1, v ^ 1)))
    witness_end = len(adjacency)

    requested: dict[int, int] = {}
    for v, count in sorted(set(recipe.pendant_counts)):
        if v in requested:
            raise DomainError(f"duplicate pendant count for vertex {v}")
        if v not in marked:
            raise DomainError(f"pendant leaves are only allowed on marked vertices, not {v}")
        if count < 0:
            raise DomainError(f"negative pendant count for vertex {v}")
        requested[v] = count
    # Support status is judged once, before any pendant is added, so the
    # outcome does not depend on the order marked vertices are processed.
    supported = {v for v in marked if any(len(adjacency[w]) == 1 for w in adjacency[v])}
    for v in sorted(marked):
        count = requested.get(v, 0)
        if count == 0 and v not in supported:
            raise DomainError(f"marked vertex {v} needs at least one pendant leaf")
        for _ in range(count):
            add_vertex((v,), "pendant leaves")

    labels = (
        [f"m{i}" for i in range(base)]
        + [f"a{i}" for i in range(recipe.a_count)]
        + [f"w{i}" for i in range(witness_end - base - recipe.a_count)]
        + [f"p{i}" for i in range(len(adjacency) - witness_end)]
    )
    graph = Graph._from_checked(adjacency, tuple(labels))
    matching = Matching((2 * i, 2 * i + 1) for i in range(k2))
    return graph, matching


class TightGraphParams(NamedTuple):
    """Bounds for the random recipe sampler."""

    max_k2: int = 4
    max_a: int = 2
    mark_probability: float = 0.25
    extra_edge_probability: float = 0.2
    max_vertices: int = 16


def random_tight_graph(
    seed: int, params: TightGraphParams = TightGraphParams()
) -> tuple[Graph, Matching]:
    """Seeded random recipe, built; identical seeds give identical output.

    Recipes always use at least one attachment vertex, and every bare
    matched vertex with an unmarked partner is wired to an attachment
    vertex, so mark-free draws come out with minimum degree two.  Draws are
    repeated until the built graph fits ``params.max_vertices``.
    """
    if params.max_k2 < 1 or params.max_a < 1:
        raise DomainError("sampler needs positive size bounds")
    if not 0.0 <= params.mark_probability <= 1.0:
        raise DomainError("mark probability must lie in [0, 1]")
    if not 0.0 <= params.extra_edge_probability <= 1.0:
        raise DomainError("extra edge probability must lie in [0, 1]")
    if params.max_vertices < 4:
        raise DomainError("vertex budget below any buildable recipe")
    rng = random.Random(seed)
    build_cap = max(64, 4 * params.max_vertices)
    for _ in range(1000):
        k2 = rng.randint(1, params.max_k2)
        a_count = rng.randint(1, params.max_a)
        base = 2 * k2
        marked = tuple(v for v in range(base) if rng.random() < params.mark_probability)
        groups = []
        for _ in range(a_count):
            size = rng.randint(2, min(4, base)) if base > 2 else 2
            groups.append(tuple(rng.sample(range(base), size)))
        touched = {v for group in groups for v in group}
        unmarked_partner = {v for v in range(base) if (v ^ 1) not in set(marked)}
        leaf_edges = tuple(
            (v, base + rng.randrange(a_count))
            for v in sorted(unmarked_partner - touched)
        )
        anchored = sorted(set(range(base)) - unmarked_partner)
        extra_edges = tuple(
            (u, v)
            for u, v in combinations(anchored, 2)
            if rng.random() < params.extra_edge_probability
        )
        pendant_counts = tuple((v, rng.randint(1, 2)) for v in marked)
        recipe = TightRecipe(
            k2, a_count, marked, tuple(groups), leaf_edges, extra_edges, pendant_counts
        )
        try:
            graph, matching = build_tight_graph(recipe, max_vertices=build_cap)
        except ResourceLimitError:
            continue
        if graph.vertex_count <= params.max_vertices:
            return graph, matching
    raise ResourceLimitError(
        f"no recipe fit {params.max_vertices} vertices within 1000 draws"
    )

