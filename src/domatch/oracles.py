"""Exact, exponential-time solvers and validators.

These are the ground-truth routines the fast recognizer is judged against:
brute-force computation of the total domination number and the minimum
maximal matching number, the predicates behind them, and the degree-aware
upper-bound report.  All searches are deterministic.  The two solvers'
results carry witnesses, the lexicographically least optima under sorted
vertex and edge order; :func:`check_matching_bound` and
:func:`is_tight_graph` need only the values and stop before any witness
is chosen.

Both invariants add over connected components.  One loop,
:func:`_by_component`, hands each component with an edge to a search in
place, as a sorted vertex list over the input's adjacency, and sums the
picks (ids of the input) and nodes; no subgraph is built.
:func:`_optima` reads both values in one such pass.  One driver,
:func:`_deepening_search`, serves every search: it deepens the solution
size, searches on explicit stacks (so depth is not bounded by the
recursion limit) and counts nodes.  Each solver brings only
its masks, open neighborhoods for γ_t and edge kill sets for μ* (bit i is
the component's i-th vertex or edge), and its bound: one pass over what is
still undominated that counts a greedy packing (the domination solver
tries an O(1) count bound first) and finds the element with the fewest
settlers still allowed.  The pass visits elements in an order fixed once
per component, fewest possible settlers first (degree for γ_t, kill-set
size for μ*) and ties by index, so the packing meets its tightest elements
first; an element with no allowed settler cuts the branch.  The packed
elements' allowed settlers are pairwise disjoint, so a pick settles at
most one of them; when the packing fills every free slot, each pick of a
cover settles a different one, and the pass also returns the union of
their settlers, within which every pick must lie.

The driver runs two searches in two phases.  Most of the work is showing
that the sizes below the optimum are empty, and there pick order does not
matter: a
proof branches on the settlers of the element with the fewest (Knuth's
Algorithm X rule), each later sibling excluding the settlers tried before
it, and looks for a cover by exactly the free slots' worth of picks,
taking them only within a tight packing's settlers.  It
records each node it refutes and cuts a later node with the same
undominated elements, no other allowed picks and the same free slots.
Phase 1 proves each size whole, from the bound up: a size whose proof
fails is empty, and the first proof that finds a cover settles the
optimum, since that cover has exactly as many picks as the size.  The
bound checks stop there, with both values from one pass over the
components.  Phase 2, the ordered walk, starts from that cover and lists
the solutions of each size in lexicographic order: it branches on the
least allowed pick, taking it or leaving it out, follows a proven cover
down the branch it belongs to and enters the other only once a proof
covers it, so its first hit is the least optimum.  The cuts lose no
solution, so witnesses are those of the unpruned ordered search.  μ* is
the first hit of :func:`_maximal_matchings`,
which also lists every maximal matching for
:func:`~domatch.characterization.iter_maximal_matchings`; the certificate
search prunes by the certificate conditions and needs no μ*.

The γ_t search of a bipartite component runs the driver once per colour
class: a vertex is dominated only from the other class, so the open
neighborhoods split into two independent covering problems, and the
optimum, the nodes and the least witness combine over the two like over
components.  μ* has no such split: its kill sets keep a component whole.

Intended for desk-scale instances.  A hard vertex limit (default
:data:`DEFAULT_MAX_VERTICES`) turns oversized inputs into a loud
:class:`~domatch.errors.ResourceLimitError` instead of an open-ended run.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .graph import Edge, Graph, _sorted_edges, connected_components, min_degree

#: Hard ceiling on instance size for the exact solvers.
DEFAULT_MAX_VERTICES = 24


class Matching(tuple):
    """An immutable set of pairwise disjoint edges: the sorted tuple of them.

    Construction validates disjointness; use :func:`is_matching` to test
    arbitrary edge sets without raising.
    """

    def __new__(cls, edges: Iterable[Edge | tuple[int, int]]) -> Matching:
        canonical = sorted({Edge.of(a, b) for a, b in edges})
        partner: dict[int, int] = {}
        for e in canonical:
            if e.u in partner or e.v in partner:
                raise DomainError(f"edges are not disjoint at {e}")
            partner[e.u] = e.v
            partner[e.v] = e.u
        self = super().__new__(cls, canonical)
        self._partner = partner
        return self

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self)

    @property
    def covered(self) -> frozenset[int]:
        """Vertices saturated by the matching."""
        return frozenset(self._partner)

    def partner(self, v: int) -> int:
        """The vertex matched with ``v``."""
        try:
            return self._partner[v]
        except KeyError:
            raise DomainError(f"vertex {v} is not covered by the matching") from None

    def covers(self, v: int) -> bool:
        return v in self._partner

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.u}-{e.v}" for e in self)
        return f"Matching({inner})"


class SearchStats(NamedTuple):
    """Size of the search that produced a result.

    ``nodes`` is reproducible run to run and sums every search the result
    took: each component's, and for γ_t both colour classes' of a
    bipartite one.  ``seconds`` is wall-clock time and is informational
    only.
    """

    nodes: int
    seconds: float


class SolverResult(NamedTuple):
    """Optimum value plus one optimal witness and search statistics."""

    value: int
    witness: frozenset[int] | Matching
    stats: SearchStats


class BoundReport(NamedTuple):
    """How the degree-aware matching upper bound relates to the optimum.

    For minimum degree at most two the bound is ``2 * mu_star``; for larger
    minimum degree it tightens to ``2 * mu_star - min_degree + 2``.
    """

    min_degree: int
    gamma_t: int
    mu_star: int
    bound: int
    slack: int
    holds: bool


def _require_no_isolated(g: Graph) -> None:
    if g.vertex_count == 0:
        raise DomainError("empty graph: gamma_t undefined")
    if min_degree(g) == 0:
        raise DomainError("isolated vertex: gamma_t undefined")


def _check_size(g: Graph, max_vertices: int | None) -> None:
    limit = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    if limit < 1:
        raise DomainError(f"solver vertex limit {limit} is below 1")
    if g.vertex_count > limit:
        raise ResourceLimitError(f"{g.vertex_count} vertices exceeds the solver limit of {limit}")


def is_total_dominating(g: Graph, candidate: Iterable[int]) -> bool:
    """True iff every vertex of ``g`` has a neighbor in ``candidate``.

    Membership of the candidate's own vertices counts only through
    adjacency, never through identity.  Raises when ``g`` has an isolated
    vertex (no set can dominate it totally) or when ``candidate`` mentions
    unknown ids.
    """
    _require_no_isolated(g)
    chosen = set(candidate)
    for v in chosen:
        g._check_vertex(v)
    return all(g.neighbors(v) & chosen for v in g.vertices())


def _validated_edges(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> set[Edge]:
    """Canonical form of ``edges``; raises if one is not an edge of ``g``."""
    canonical: set[Edge] = set()
    for a, b in edges:
        e = Edge.of(a, b)
        if not g.has_edge(e.u, e.v):
            raise DomainError(f"edge {e.u}-{e.v} is not an edge of the graph")
        canonical.add(e)
    return canonical


def _as_matching(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> Matching | None:
    """``edges`` as a Matching, or None if two meet; raises on a non-edge of ``g``."""
    canonical = _validated_edges(g, edges)
    try:
        return Matching(canonical)
    except DomainError:
        return None


def is_matching(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> bool:
    """True iff ``edges`` are pairwise disjoint edges of ``g``."""
    return _as_matching(g, edges) is not None


def _extending_edge(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int], covered: AbstractSet[int]
) -> Edge | None:
    """Least edge among sorted ``vertices`` with neither end in ``covered``."""
    for u in vertices:
        if u not in covered:
            free = [v for v in adjacency[u] if v > u and v not in covered]
            if free:
                return Edge(u, min(free))
    return None


def is_maximal_matching(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> bool:
    """True iff ``edges`` form a matching no edge of ``g`` can extend."""
    m = _as_matching(g, edges)
    return m is not None and _extending_edge(g._adjacency, g.vertices(), m.covered) is None


def _deepening_search(
    cover: Sequence[int],
    reusable: int,
    bounds: Callable[[int, int, int], tuple[int, int, int]],
    budget: int | None = None,
    start: tuple[int, int] | None = None,
) -> tuple[int, int, Iterator[tuple[tuple[int, ...], int]]]:
    """The fewest picks whose ``cover`` masks together cover
    ``range(len(cover))``, the search nodes it took to prove that, and an
    iterator over each sorted tuple of picks that covers, with the search
    nodes explored so far.  Some set of picks must cover.  ``start``, a
    pair of masks (undominated elements, untried picks), narrows the root
    to covering those elements with those picks; by default both are all
    ones.

    The iterator's sizes run from the fewest to the first empty size after
    it; within a size, picks come in lexicographic order.
    Above its last pick a node may pick an undominated element or one of
    ``reusable``.  ``bounds(allowed, undominated, slots)`` counts the picks
    still needed (``slots + 1`` if an undominated element has no allowed
    settler), names the allowed settlers of the undominated element with
    the fewest of them, and gives a mask every pick of a cover by exactly
    ``slots`` picks lies in; a need above the free slots cuts the branch.
    The mask is all ones unless the greedy packing, whose elements' allowed
    settlers are pairwise disjoint, has ``slots`` elements: then each pick
    settles a different packed element, so the mask is the union of their
    allowed settlers.

    Two phases share one proof, one refutation table and one node count.
    A proof ignores pick order: it looks for a cover of
    the undominated elements by exactly the free slots' worth of allowed
    picks (not at most: a maximal matching cannot be padded), branches on
    the fewest settlers in ascending order, and each later sibling excludes
    the settlers tried before it, so no pick set is reached twice; the
    settlers it branches on and the picks it passes down are cut to the
    mask ``bounds`` gives, which drops only branches without a cover.  A
    node whose children all run out goes into a refutation table, local to
    this call and keyed by the undominated elements and free slots, and the
    proof cuts a later node with the same key and allowed picks among
    recorded ones.  Phase 1, run by this call, proves the root of each size
    from the least one ``bounds`` allows; a size whose root proof fails is
    empty, and the first whose proof finds a cover is the optimum, since
    that cover has exactly that many picks.  Phase 2, the iterator, is an
    ordered walk that lists the hits of each size from the optimum on,
    starting from phase 1's cover instead of proving the root again.  Each
    entry branches on its least allowed pick, taking it or leaving it out,
    and carries a proven cover of what is left, or None; the branch the
    cover belongs to follows it, and the other is entered only once a proof
    covers it.  The include branch pops first, so hits come in
    lexicographic order, and the first costs one proof per allowed pick
    tried below the known cover's next pick.  Only proof nodes count, a cut
    one too; every walk step runs a proof or follows a known cover, so
    crossing ``budget`` nodes, which raises
    :class:`~domatch.errors.ResourceLimitError`, still bounds the work.
    Both phases run on explicit stacks, so depth is not bounded by the
    recursion limit.
    """
    n = len(cover)
    root_undominated, root_untried = start or ((1 << n) - 1,) * 2
    keep = [~c for c in cover]
    # (undominated elements, free slots) -> [allowed picks, ...] refuted
    refuted: dict[tuple[int, int], list[int]] = {}

    def prove(undominated: int, untried: int, slots: int, nodes: int) -> tuple[int | None, int]:
        # A cover of `undominated` by exactly `slots` allowed picks among
        # `untried` as a mask (None if none), and the nodes counted so far.
        # Entries are (undominated, untried, free slots, picks so far); one
        # with slots -1 closes a node, as (undominated, allowed, -1, slots).
        stack = [(undominated, untried, slots, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            undominated, untried, slots, picked = pop()
            if slots < 0:
                refuted.setdefault((undominated, picked), []).append(untried)
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise ResourceLimitError(f"maximal matching enumeration exceeded {budget} nodes")
            if slots == 0:
                if undominated == 0:
                    return picked, nodes
                continue
            allowed = (undominated | reusable) & untried
            known = refuted.get((undominated, slots))
            if known and any(allowed & ~a == 0 for a in known):
                continue
            need, fewest, within = bounds(allowed, undominated, slots)
            if need > slots:
                continue
            push((undominated, allowed, -1, slots))
            slots -= 1
            fewest &= within
            untried &= within
            while fewest:
                i = fewest.bit_length() - 1
                fewest ^= 1 << i
                push((undominated & keep[i], untried & ~fewest, slots, picked | 1 << i))
        return None, nodes

    def walk(optimum: int, rest: int | None, nodes: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # `rest` is phase 1's cover of the whole at size `optimum`
        for size in range(optimum, n + 1):
            hit = False
            # (undominated, untried, free slots, picks so far, proven cover
            # of the rest or None)
            stack: list[tuple[int, int, int, tuple[int, ...], int | None]] = [
                (root_undominated, root_untried, size, (), rest)
            ]
            pop, push = stack.pop, stack.append
            while stack:
                undominated, untried, slots, picks, rest = pop()
                if rest is None:
                    rest, nodes = prove(undominated, untried, slots, nodes)
                    if rest is None:
                        continue
                if slots == 0:
                    hit = True
                    yield picks, nodes
                    continue
                allowed = (undominated | reusable) & untried
                i = (allowed & -allowed).bit_length() - 1
                untried = allowed ^ 1 << i
                # the known cover goes where it belongs; the other branch
                # waits for a proof, and the include branch pops first
                if rest >> i & 1:
                    skip, rest = None, rest ^ 1 << i
                else:
                    skip, rest = rest, None
                push((undominated, untried, slots, picks, skip))
                push((undominated & keep[i], untried, slots - 1, picks + (i,), rest))
            if not hit:
                return
            rest = None

    nodes = 0
    for size in range(bounds(root_untried, root_undominated, n)[0], n + 1):
        rest, nodes = prove(root_undominated, root_untried, size, nodes)
        if rest is not None:
            return size, nodes, walk(size, rest, nodes)
    raise DomainError("no set of picks covers every element")


#: What a search gives: the item each pick index names
#: (a vertex or an edge), then the optimum, the nodes that proved it and
#: the ordered walk, as :func:`_deepening_search` returns them (for γ_t on
#: a bipartite component, a walk to the first hit only).
_Search = tuple[Sequence, int, int, Iterator[tuple[tuple[int, ...], int]]]


def _total_domination_search(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int]
) -> _Search:
    """The search for the smallest total dominating sets of the component
    on sorted ``vertices`` (bit i is ``vertices[i]``), which has an edge.

    Any vertex may be picked, and dominates its open neighborhood.  An
    undominated vertex with no allowed neighbor cuts the branch.
    Undominated vertices with pairwise disjoint neighborhoods among the
    allowed ones need a pick each; the greedy packing takes them lowest
    degree first, ties by index.  The O(1) count bound (a pick dominates at
    most ``max_cover`` vertices) is tried before that packing, and on the
    whole component the larger bound is the first size.

    A component with an odd cycle is one search.  A bipartite one, found
    by 2-colouring breadth-first layers, is two: each colour class is
    dominated only from the other, so one search covers each class with
    picks from the other, and the optima are exactly the unions of one
    optimum per class.  Optimum and nodes are the two searches' sums, and
    the walk yields only the first hit, the sorted union of the two first
    hits: among optima of equal size the lesser holds the least element
    where they differ, and that element lies in one class, where the
    least optimum holds it, so the union is the least optimum.
    """
    position = {v: i for i, v in enumerate(vertices)}
    nbr = [sum(1 << position[w] for w in adjacency[v]) for v in vertices]
    n = len(nbr)
    max_cover = max(m.bit_count() for m in nbr)
    # (bit, neighborhood) per vertex, fewest dominators first, ties by index
    order = sorted(range(n), key=lambda u: nbr[u].bit_count())
    packing = [(1 << u, nbr[u]) for u in order]

    def bounds(allowed: int, undominated: int, slots: int) -> tuple[int, int, int]:
        # (picks still needed, fewest allowed dominators of an undominated
        # vertex, the packed vertices' dominators if they fill the slots or
        # else all ones), stopping once need > slots
        least = -(-undominated.bit_count() // max_cover)
        if least > slots:
            return least, 0, 0
        need = 0
        used = 0
        fewest = 0
        choices = n + 1
        for bit, dominators in packing:
            if undominated & bit:
                reach = dominators & allowed
                if not reach:
                    return slots + 1, 0, 0
                if choices > 1 and reach.bit_count() < choices:
                    fewest = reach
                    choices = reach.bit_count()
                if reach & used == 0:
                    used |= reach
                    need += 1
                    if need > slots:
                        break
        return max(need, least), fewest, used if need == slots else -1

    full = (1 << n) - 1
    # 2-colour by breadth-first layers; an edge inside a layer closes an odd cycle
    near = far = 0
    layer = seen = 1
    while layer:
        near, far = far, near | layer
        reach, rest = 0, layer
        while rest:
            low = rest & -rest
            rest ^= low
            reach |= nbr[low.bit_length() - 1]
        if reach & layer:
            return (vertices, *_deepening_search(nbr, full, bounds))
        layer = reach & ~seen
        seen |= layer
    # each class is dominated by picks from the other alone
    (size, nodes, hits), (more, extra, more_hits) = (
        _deepening_search(nbr, full, bounds, start=pair) for pair in ((near, far), (far, near))
    )
    first = ((tuple(sorted(a + b)), i + j) for (a, i), (b, j) in islice(zip(hits, more_hits), 1))
    return vertices, size + more, nodes + extra, first


def _edge_masks(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int]
) -> tuple[tuple[Edge, ...], list[int], list[int], list[int]]:
    """The sorted edges at sorted ``vertices``, a union of components, with
    bit masks over their indices: the edges at each vertex, the edges
    sharing an endpoint with each edge (itself included), and each edge's
    two endpoints as a vertex mask.  Vertex i (index or bit) is ``vertices[i]``."""
    edges = _sorted_edges(adjacency, vertices)
    position = {v: i for i, v in enumerate(vertices)}
    pairs = [(position[u], position[v]) for u, v in edges]
    incident = [0] * len(vertices)
    for i, (u, v) in enumerate(pairs):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    kill = [incident[u] | incident[v] for u, v in pairs]
    ends = [(1 << u) | (1 << v) for u, v in pairs]
    return edges, incident, kill, ends


def _maximal_matching_search(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int], budget: int | None = None
) -> _Search:
    """The search for the maximal matchings on sorted ``vertices``, a union
    of components, whose items are the sorted edges.  Their sizes form an
    interval, so the walk may stop at an empty size.

    A maximal edge set leaves no edge with both ends uncovered
    ("undominated").  Only undominated edges are picked, and a pick
    dominates the edges it kills, so picks stay a matching.  An undominated
    edge with no allowed killer cuts the branch.  A pick settles at most
    two of a set of vertex-disjoint undominated edges, and at most one of a
    set whose kill sets within the allowed edges are pairwise disjoint;
    both greedy packings take edges with the smallest kill sets first, ties
    by index, and the larger count is the picks still needed.
    """
    edges, _, kill, ends = _edge_masks(adjacency, vertices)
    m = len(kill)
    # (bit, kill set, ends) per edge, fewest killers first, ties by index
    order = sorted(range(m), key=lambda i: kill[i].bit_count())
    packing = [(1 << i, kill[i], ends[i]) for i in order]

    def bounds(allowed: int, undominated: int, slots: int) -> tuple[int, int, int]:
        # (picks still needed, fewest allowed killers of an undominated
        # edge, the packed edges' killers if they fill the slots or else all
        # ones), stopping once need > slots
        disjoint = packed = 0
        covered = killed = 0
        limit = 2 * slots
        fewest = 0
        choices = m + 1
        for bit, killers, pair in packing:
            if undominated & bit:
                reach = killers & allowed
                if not reach:
                    return slots + 1, 0, 0
                if choices > 1 and reach.bit_count() < choices:
                    fewest = reach
                    choices = reach.bit_count()
                if pair & covered == 0:
                    covered |= pair
                    disjoint += 1
                    if disjoint > limit:
                        break
                if reach & killed == 0:
                    killed |= reach
                    packed += 1
                    if packed > slots:
                        break
        return max(packed, -(-disjoint // 2)), fewest, killed if packed == slots else -1

    return (edges, *_deepening_search(kill, 0, bounds, budget))


def _maximal_matchings(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int], budget: int | None = None
) -> Iterator[tuple[list[Edge], int]]:
    """The maximal matchings on sorted ``vertices``, a union of components,
    smallest first, as sorted edge lists, each with the search nodes
    explored so far."""
    edges, _, _, hits = _maximal_matching_search(adjacency, vertices, budget)
    return (([edges[i] for i in picks], nodes) for picks, nodes in hits)


def _by_component(g: Graph, search: Callable[..., _Search]) -> tuple[list, SearchStats]:
    """The items of the first hit of ``search(adjacency, sorted component)``'s
    walk, its least optimum, over the components of ``g`` with an edge, and
    the search they took together."""
    started = perf_counter()
    picks: list = []
    nodes = 0
    for component in connected_components(g):
        if len(component) > 1:
            items, _, _, hits = search(g._adjacency, sorted(component))
            local, explored = next(hits)
            picks += [items[i] for i in local]
            nodes += explored
    return picks, SearchStats(nodes, perf_counter() - started)


def _optima(g: Graph, max_vertices: int | None) -> list[list[int]]:
    """``[γ_t, nodes]`` and ``[μ*, nodes]`` of ``g``, which must have no
    isolated vertex, over one pass through its components.  Each search
    runs phase 1 only: the first size whose root proof finds a cover is the
    optimum, and no least witness is walked to."""
    _require_no_isolated(g)
    _check_size(g, max_vertices)
    totals = [[0, 0], [0, 0]]
    for component in connected_components(g):
        vertices = sorted(component)
        for total, search in zip(totals, (_total_domination_search, _maximal_matching_search)):
            _, size, nodes, _ = search(g._adjacency, vertices)
            total[0] += size
            total[1] += nodes
    return totals


def total_domination_number(g: Graph, *, max_vertices: int | None = None) -> SolverResult:
    """Exact total domination number with a lexicographically least witness.

    The graph must have no isolated vertices.  Values and witnesses combine
    over connected components, which are solved independently.
    """
    _require_no_isolated(g)
    _check_size(g, max_vertices)
    picks, stats = _by_component(g, _total_domination_search)
    return SolverResult(len(picks), frozenset(picks), stats)


def minimum_maximal_matching(g: Graph, *, max_vertices: int | None = None) -> SolverResult:
    """Exact minimum maximal matching with a lexicographically least witness.

    The graph needs at least one edge.  Isolated vertices are irrelevant to
    matchings and are tolerated; components are solved independently, and
    the first maximal matching of each is its least optimum.
    """
    if g.edge_count == 0:
        raise DomainError("graph has no edges: mu_star undefined")
    _check_size(g, max_vertices)
    picks, stats = _by_component(g, _maximal_matching_search)
    return SolverResult(len(picks), Matching(picks), stats)


def is_tight_graph(g: Graph, *, max_vertices: int | None = None) -> bool:
    """Brute-force test: total domination number equals twice the minimum
    maximal matching number.

    The vertices of a maximal matching totally dominate each component, so
    γ_t ≤ 2μ* component by component, and the sums are equal exactly when
    every component is tight.  Like :func:`check_matching_bound` it reads
    both values off the root proofs and walks to no witness.
    """
    (gamma_t, _), (mu_star, _) = _optima(g, max_vertices)
    return gamma_t == 2 * mu_star


def check_matching_bound(g: Graph, *, max_vertices: int | None = None) -> BoundReport:
    """Evaluate the degree-aware upper bound on the total domination number.

    Both values are those of :func:`total_domination_number` and
    :func:`minimum_maximal_matching`, read off the first size whose root
    proof finds a cover, with no walk to a least witness.
    """
    (gamma_t, _), (mu_star, _) = _optima(g, max_vertices)
    delta = min_degree(g)
    bound = 2 * mu_star if delta <= 2 else 2 * mu_star - delta + 2
    return BoundReport(
        min_degree=delta,
        gamma_t=gamma_t,
        mu_star=mu_star,
        bound=bound,
        slack=bound - gamma_t,
        holds=gamma_t <= bound,
    )
