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
recursion limit) and counts nodes.  Each solver brings only its masks,
open neighborhoods for γ_t and edge kill sets for μ* (bit i is the
component's i-th vertex or edge; the kill sets come from
:func:`_edge_masks`, the edge index the certificate search reads too), and
its bound: one pass over what is still undominated that counts a greedy
packing (the domination solver tries an O(1) count bound first) and finds
the element with the fewest settlers still allowed.  The pass visits
elements in an order fixed once per component, fewest possible settlers
first (degree for γ_t, kill-set size for μ*) and ties by index; an
element with no allowed settler cuts the branch.  γ_t packs in that
order.  μ* packs the undominated edges by their allowed killers, fewest
first and ties in the fixed order, so the packing meets the edges the
branch has made tightest first.  The packed elements' allowed settlers are
pairwise disjoint, so a pick settles at most one of them; when the packing
fills every free slot, each pick of a cover settles a different one, and
the pass also returns the union of their settlers, within which every pick
must lie.

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
components.  Phase 2, the ordered walk, starts from that cover and walks
the optimum size alone in lexicographic order: it branches on the least
allowed pick, taking it or leaving it out, follows a proven cover down
the branch it belongs to and enters the other only once a proof covers
it, and stops at its first hit, the least optimum.  The cuts lose no
solution, so witnesses are those of the unpruned ordered search.  The
certificate search prunes by the certificate conditions and needs no μ*.

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

from time import perf_counter
from typing import AbstractSet, Callable, Iterable, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .graph import Edge, Graph, connected_components, min_degree

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


def _solver_limit(max_vertices: int | None) -> int:
    """The solver vertex limit ``max_vertices``, or the default for None;
    a limit below 1 is refused."""
    limit = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    if limit < 1:
        raise DomainError(f"solver vertex limit {limit} is below 1")
    return limit


def _check_size(g: Graph, max_vertices: int | None) -> None:
    limit = _solver_limit(max_vertices)
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
    start: tuple[int, int] | None = None,
) -> tuple[int, int, Callable[[], tuple[tuple[int, ...], int]]]:
    """The fewest picks whose ``cover`` masks together cover
    ``range(len(cover))``, the search nodes it took to prove that, and
    ``least()``, which returns the lexicographically least sorted tuple of
    that many picks that covers, with the search nodes explored up to it.
    Some set of picks must cover.  ``start``, a pair of masks (undominated
    elements, untried picks), narrows the root to covering those elements
    with those picks; by default both are all ones.

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
    that cover has exactly that many picks.  Phase 2, ``least``, is an
    ordered walk of the optimum size alone, starting from phase 1's cover
    instead of proving the root again.  Each entry branches on its least
    allowed pick, taking it or leaving it out, and carries a proven cover
    of what is left, or None; the branch the cover belongs to follows it,
    and the other is entered only once a proof covers it.  The include
    branch pops first, so the first hit is the least, and it costs one
    proof per allowed pick tried below the known cover's next pick.  Only
    proof nodes count, a cut one too.  Both phases run on explicit stacks,
    so depth is not bounded by the recursion limit.
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

    nodes = 0
    for size in range(bounds(root_untried, root_undominated, n)[0], n + 1):
        found, nodes = prove(root_undominated, root_untried, size, nodes)
        if found is not None:
            break
    else:
        raise DomainError("no set of picks covers every element")

    def least() -> tuple[tuple[int, ...], int]:
        # phase 2 from phase 1's cover of the whole; one branch always
        # holds a proven cover, so the walk ends at a hit
        count = nodes
        # (undominated, untried, free slots, picks so far, proven cover of
        # the rest or None)
        stack: list[tuple[int, int, int, tuple[int, ...], int | None]] = [
            (root_undominated, root_untried, size, (), found)
        ]
        pop, push = stack.pop, stack.append
        while True:
            undominated, untried, slots, picks, rest = pop()
            if rest is None:
                rest, count = prove(undominated, untried, slots, count)
                if rest is None:
                    continue
            if slots == 0:
                return picks, count
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

    return size, nodes, least


#: What a search gives: the item each pick index names
#: (a vertex or an edge), then the optimum, the nodes that proved it and
#: the walk to the least optimum, as :func:`_deepening_search` returns them.
_Search = tuple[Sequence, int, int, Callable[[], tuple[tuple[int, ...], int]]]


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
    the least optimum is the sorted union of the two least ones: among
    optima of equal size the lesser holds the least element where they
    differ, and that element lies in one class, where the least optimum
    holds it, so the union is the least optimum.
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
    (size, nodes, least), (more, extra, more_least) = (
        _deepening_search(nbr, full, bounds, start=pair) for pair in ((near, far), (far, near))
    )

    def both() -> tuple[tuple[int, ...], int]:
        (a, i), (b, j) = least(), more_least()
        return tuple(sorted(a + b)), i + j

    return vertices, size + more, nodes + extra, both


def _edge_masks(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int] | dict[int, int], list[int]]:
    """The edge index of sorted ``vertices``, a union of components: its
    sorted edges as plain ``(u, v)`` id pairs, edge bit i for the i-th, the
    mask of each vertex's edges keyed by vertex id, and each edge's kill
    set, the edges sharing an end with it (itself included).  Both the μ*
    search and the certificate search read their edges off it.  The masks
    are a list indexed by id when ``vertices`` is the whole graph, as for
    the certificate search, and else a dict over ``vertices``, so the μ*
    search of each component costs that component's size alone."""
    pairs = [(u, v) for u in vertices for v in sorted(adjacency[u]) if v > u]
    whole = len(vertices) == len(adjacency)
    incident = [0] * len(adjacency) if whole else dict.fromkeys(vertices, 0)
    for i, (u, v) in enumerate(pairs):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    kill = [incident[u] | incident[v] for u, v in pairs]
    return pairs, incident, kill


def _maximal_matching_search(
    adjacency: Sequence[frozenset[int]], vertices: Sequence[int]
) -> _Search:
    """The search for the smallest maximal matchings on sorted
    ``vertices``, a union of components, whose items are the sorted edges
    as ``(u, v)`` id pairs.

    A maximal edge set leaves no edge with both ends uncovered
    ("undominated").  Only undominated edges are picked, and a pick
    dominates the edges it kills, so picks stay a matching.  An undominated
    edge with no allowed killer cuts the branch.  A pick settles at most
    two of a set of vertex-disjoint undominated edges, and at most one of a
    set whose kill sets within the allowed edges are pairwise disjoint;
    the larger of the two greedy packings' counts is the picks still
    needed.  The vertex-disjoint packing takes edges in a fixed order,
    smallest kill sets first, ties by index, and cuts the branch as soon as
    it holds more than two per free slot.  An edge shares an end with a
    packed edge exactly when it lies in that edge's kill set, so it grows
    the union of the packed edges' kill sets and takes an edge outside it.
    The killer packing takes the undominated edges by the number of
    killers the branch still allows them, fewest first, ties in the fixed
    order (a stable sort by that count); it meets the edges the branch has
    tightened first, so it fills the free slots sooner and the union it
    returns, within which every pick of a cover lies, is narrower.  The
    first edge of that order names the fewest allowed killers.
    """
    pairs, _, kill = _edge_masks(adjacency, vertices)
    # (bit, kill set) per edge, fewest killers first, ties by index
    order = sorted(range(len(kill)), key=lambda i: kill[i].bit_count())
    packing = [(1 << i, kill[i]) for i in order]

    def bounds(allowed: int, undominated: int, slots: int) -> tuple[int, int, int]:
        # (picks still needed, fewest allowed killers of an undominated
        # edge, the packed edges' killers if they fill the slots or else all
        # ones), stopping once need > slots
        disjoint = touched = 0
        limit = 2 * slots
        reaches = []
        for bit, killers in packing:
            if undominated & bit:
                reach = killers & allowed
                if not reach:
                    return slots + 1, 0, 0
                reaches.append(reach)
                if bit & touched == 0:
                    touched |= killers
                    disjoint += 1
                    if disjoint > limit:
                        return slots + 1, 0, 0
        # fewest allowed killers first, ties in the fixed order
        reaches.sort(key=int.bit_count)
        packed = killed = 0
        for reach in reaches:
            if reach & killed == 0:
                killed |= reach
                packed += 1
                if packed > slots:
                    break
        fewest = reaches[0] if reaches else 0
        return max(packed, -(-disjoint // 2)), fewest, killed if packed == slots else -1

    return (pairs, *_deepening_search(kill, 0, bounds))


def _by_component(g: Graph, search: Callable[..., _Search]) -> tuple[list, SearchStats]:
    """The items of the least optimum of ``search(adjacency, sorted
    component)`` over the components of ``g`` with an edge, and the search
    they took together."""
    started = perf_counter()
    picks: list = []
    nodes = 0
    for component in connected_components(g):
        if len(component) > 1:
            items, _, _, least = search(g._adjacency, sorted(component))
            local, explored = least()
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
    the walk of each stops at its least optimum.
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
