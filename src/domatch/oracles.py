"""Exact, exponential-time solvers and validators.

These are the ground-truth routines the fast recognizer is judged against:
brute-force computation of the total domination number and the minimum
maximal matching number, the predicates behind them, and the degree-aware
upper-bound report.  All searches are deterministic; witnesses are the
lexicographically least optima under sorted vertex and edge order.

Both searches deepen the solution size on an explicit stack, so depth is
not bounded by the recursion limit, and prune with a cap on the next pick
and a packing bound found in one pass over what is still undominated (the
domination solver tries an O(1) count bound first).  The cuts lose no
solution, so witnesses are those of the unpruned search.  μ* is the first
hit of :func:`_maximal_matchings`, which also lists every maximal matching
for :func:`~domatch.characterization.iter_maximal_matchings`; the
certificate search prunes by the certificate conditions and needs no μ*.

Intended for desk-scale instances.  A hard vertex limit (default
:data:`DEFAULT_MAX_VERTICES`) turns oversized inputs into a loud
:class:`~domatch.errors.ResourceLimitError` instead of an open-ended run.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .graph import Edge, Graph, connected_components, induced_subgraph, min_degree

#: Hard ceiling on instance size for the exact solvers.
DEFAULT_MAX_VERTICES = 24


class Matching(object):
    """An immutable set of pairwise disjoint edges.

    Construction validates disjointness; use :func:`is_matching` to test
    arbitrary edge sets without raising.
    """

    __slots__ = ("_edges", "_partner")

    def __init__(self, edges: Iterable[Edge | tuple[int, int]]) -> None:
        canonical = sorted({Edge.of(a, b) for a, b in edges})
        partner: dict[int, int] = {}
        for e in canonical:
            if e.u in partner or e.v in partner:
                raise DomainError(f"edges are not disjoint at {e}")
            partner[e.u] = e.v
            partner[e.v] = e.u
        self._edges: tuple[Edge, ...] = tuple(canonical)
        self._partner = partner

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

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

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __contains__(self, e: object) -> bool:
        return e in self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.u}-{e.v}" for e in self._edges)
        return f"Matching({inner})"


@dataclass(frozen=True)
class SearchStats:
    """Size of the search that produced a result.

    ``nodes`` is reproducible run to run; ``seconds`` is wall-clock time and
    is informational only.
    """

    nodes: int
    seconds: float


@dataclass(frozen=True)
class SolverResult:
    """Optimum value plus one optimal witness and search statistics."""

    value: int
    witness: frozenset[int] | Matching
    stats: SearchStats


@dataclass(frozen=True)
class BoundReport:
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
    for v in g.vertices():
        if g.degree(v) == 0:
            raise DomainError("isolated vertex: gamma_t undefined")


def _resolve_limit(max_vertices: int | None) -> int:
    return DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices


def _check_size(g: Graph, max_vertices: int | None) -> None:
    limit = _resolve_limit(max_vertices)
    if g.vertex_count > limit:
        raise ResourceLimitError(
            f"{g.vertex_count} vertices exceeds the solver limit of {limit}"
        )


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


def _covered_if_matching(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> set[int] | None:
    """Vertices covered by ``edges``, or None when two of them share an endpoint."""
    covered: set[int] = set()
    for e in _validated_edges(g, edges):
        if e.u in covered or e.v in covered:
            return None
        covered.add(e.u)
        covered.add(e.v)
    return covered


def is_matching(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> bool:
    """True iff ``edges`` are pairwise disjoint edges of ``g``."""
    return _covered_if_matching(g, edges) is not None


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
    covered = _covered_if_matching(g, edges)
    return covered is not None and _extending_edge(g._adjacency, g.vertices(), covered) is None


def _solve_total_domination(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """Smallest total dominating set of a graph without isolated vertices.

    Iterative deepening on the solution size; within one size the subsets
    are explored in lexicographic order, so the first hit is the
    lexicographically least optimal witness.  Picks only grow, so the next
    one is at most the smallest largest-neighbor of an undominated vertex
    (a cap below the first allowed id leaves a vertex undominatable).
    Undominated vertices whose neighborhoods within the allowed ids are
    pairwise disjoint each need a pick of their own, so a greedy packing
    of them larger than the free slots prunes.  The O(1) count bound (a
    pick dominates at most ``max_cover`` vertices) is tried before that
    walk.  On the whole graph the larger bound is the first size tried.
    Neither cut loses a solution, so the witness is that of the unpruned
    search.
    """
    n = g.vertex_count
    nbr = [sum(1 << w for w in g.neighbors(v)) for v in g.vertices()]
    full = (1 << n) - 1
    max_dominator = [m.bit_length() - 1 for m in nbr]
    max_cover = max(m.bit_count() for m in nbr)
    nodes = 0

    def bounds(start: int, undominated: int, slots: int) -> tuple[int, int]:
        # (cap on the next pick, picks still needed), stopping once need > slots
        cap = n - 1
        least = -(-undominated.bit_count() // max_cover)
        if least > slots:
            return cap, least
        need = 0
        used = 0
        allowed = full >> start << start
        while undominated:
            low = undominated & -undominated
            u = low.bit_length() - 1
            undominated ^= low
            if max_dominator[u] < cap:
                cap = max_dominator[u]
            reach = nbr[u] & allowed
            if reach & used == 0:
                used |= reach
                need += 1
                if need > slots:
                    break
        return cap, max(need, least)

    for k in range(max(1, bounds(0, full, n)[1]), n + 1):
        # (next allowed id, dominated vertices, free slots, picks so far);
        # children are pushed largest first so they pop in ascending order
        stack = [(0, 0, k, ())]
        while stack:
            start, dominated, slots, chosen = stack.pop()
            nodes += 1
            if slots == 0:
                if dominated == full:
                    return k, chosen, nodes
                continue
            cap, need = bounds(start, full & ~dominated, slots)
            if cap < start or need > slots:
                continue
            for v in range(min(cap, n - slots), start - 1, -1):
                stack.append((v + 1, dominated | nbr[v], slots - 1, chosen + (v,)))
    raise AssertionError("unreachable: the full vertex set is total dominating")


def _maximal_matchings(
    g: Graph, budget: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The maximal matchings of ``g`` as sorted tuples of indices into
    ``g.edges()``, each with the number of search nodes explored so far.

    Sizes are tried from the whole graph's packing bound up, and within one
    size matchings come in lexicographic order.  The sizes of the maximal
    matchings of a graph form an interval, so the search ends at the first
    empty size after a nonempty one.

    An edge set is maximal exactly when no edge has both endpoints
    uncovered ("undominated"); those edges are the branching candidates.
    The next pick is at most the smallest ``max_killer`` of an undominated
    edge.  A pick settles at most two of a set of vertex-disjoint
    undominated edges, and at most one of a set whose kill sets, restricted
    to undominated edges of allowed index, are pairwise disjoint; greedy
    sets of either kind too large for the free slots prune.  Neither cut
    loses a matching.  Crossing ``budget`` nodes, counted over all sizes,
    raises :class:`~domatch.errors.ResourceLimitError`.
    """
    edges = g.edges()
    m = len(edges)
    incident = [0] * g.vertex_count
    for i, e in enumerate(edges):
        incident[e.u] |= 1 << i
        incident[e.v] |= 1 << i
    # per edge: edges sharing an endpoint (itself included), their top index
    kill = [incident[e.u] | incident[e.v] for e in edges]
    max_killer = [k.bit_length() - 1 for k in kill]
    vmask = [(1 << e.u) | (1 << e.v) for e in edges]
    full = (1 << m) - 1

    def bounds(start: int, undominated: int, slots: int) -> tuple[int, int]:
        # (cap on the next pick, picks still needed), stopping once need > slots
        cap = m - 1
        disjoint = packed = 0
        covered = killed = 0
        allowed = undominated >> start << start
        limit = 2 * slots
        while undominated:
            low = undominated & -undominated
            i = low.bit_length() - 1
            undominated ^= low
            if max_killer[i] < cap:
                cap = max_killer[i]
            if vmask[i] & covered == 0:
                covered |= vmask[i]
                disjoint += 1
                if disjoint > limit:
                    break
            reach = kill[i] & allowed
            if reach & killed == 0:
                killed |= reach
                packed += 1
                if packed > slots:
                    break
        return cap, max(packed, -(-disjoint // 2))

    nodes = 0
    found = False
    for size in range(bounds(0, full, m)[1], m + 1):
        hit = False
        # (next allowed index, undominated edges, free slots, picks so far);
        # children are pushed largest first so they pop in ascending order
        stack = [(0, full, size, ())]
        while stack:
            start, undominated, slots, chosen = stack.pop()
            nodes += 1
            if budget is not None and nodes > budget:
                raise ResourceLimitError(f"maximal matching enumeration exceeded {budget} nodes")
            if slots == 0:
                if undominated == 0:
                    hit = True
                    yield chosen, nodes
                continue
            cap, need = bounds(start, undominated, slots)
            if cap < start or need > slots:
                continue
            candidates = (undominated & ((2 << cap) - 1)) >> start << start
            while candidates:
                i = candidates.bit_length() - 1
                candidates ^= 1 << i
                stack.append((i + 1, undominated & ~kill[i], slots - 1, chosen + (i,)))
        if found and not hit:
            return
        found = hit


def _solve_minimum_maximal_matching(g: Graph) -> tuple[int, tuple[Edge, ...], int]:
    """Smallest maximal matching: the first hit of :func:`_maximal_matchings`
    over growing sizes, hence the lexicographically least optimum."""
    edges = g.edges()
    chosen, nodes = next(_maximal_matchings(g))
    return len(chosen), tuple(edges[i] for i in chosen), nodes


def total_domination_number(g: Graph, *, max_vertices: int | None = None) -> SolverResult:
    """Exact total domination number with a lexicographically least witness.

    The graph must have no isolated vertices.  Values and witnesses combine
    over connected components, which are solved independently.
    """
    _require_no_isolated(g)
    _check_size(g, max_vertices)
    started = perf_counter()
    value = 0
    witness: set[int] = set()
    nodes = 0
    for component in connected_components(g):
        sub, original = induced_subgraph(g, component)
        size, local, explored = _solve_total_domination(sub)
        value += size
        witness.update(original[v] for v in local)
        nodes += explored
    return SolverResult(value, frozenset(witness), SearchStats(nodes, perf_counter() - started))


def minimum_maximal_matching(g: Graph, *, max_vertices: int | None = None) -> SolverResult:
    """Exact minimum maximal matching with a lexicographically least witness.

    The graph needs at least one edge.  Isolated vertices are irrelevant to
    matchings and are tolerated; components are solved independently.
    """
    if g.edge_count == 0:
        raise DomainError("graph has no edges: mu_star undefined")
    _check_size(g, max_vertices)
    started = perf_counter()
    value = 0
    picked: list[Edge] = []
    nodes = 0
    for component in connected_components(g):
        if len(component) == 1:
            continue
        sub, original = induced_subgraph(g, component)
        size, local, explored = _solve_minimum_maximal_matching(sub)
        value += size
        picked.extend(Edge.of(original[e.u], original[e.v]) for e in local)
        nodes += explored
    return SolverResult(value, Matching(picked), SearchStats(nodes, perf_counter() - started))


def is_tight_graph(g: Graph, *, max_vertices: int | None = None) -> bool:
    """Brute-force test: total domination number equals twice the minimum
    maximal matching number.

    Both quantities add up over connected components, and the domination
    number never exceeds the doubled matching number on a component, so the
    equality is checked component by component with early exit.
    """
    _require_no_isolated(g)
    _check_size(g, max_vertices)
    for component in connected_components(g):
        sub, _ = induced_subgraph(g, component)
        gamma_t, _, _ = _solve_total_domination(sub)
        mu_star, _, _ = _solve_minimum_maximal_matching(sub)
        if gamma_t != 2 * mu_star:
            return False
    return True


def check_matching_bound(g: Graph, *, max_vertices: int | None = None) -> BoundReport:
    """Evaluate the degree-aware upper bound on the total domination number."""
    _require_no_isolated(g)
    delta = min_degree(g)
    gamma_t = total_domination_number(g, max_vertices=max_vertices).value
    mu_star = minimum_maximal_matching(g, max_vertices=max_vertices).value
    bound = 2 * mu_star if delta <= 2 else 2 * mu_star - delta + 2
    return BoundReport(
        min_degree=delta,
        gamma_t=gamma_t,
        mu_star=mu_star,
        bound=bound,
        slack=bound - gamma_t,
        holds=gamma_t <= bound,
    )
