"""Exact, exponential-time solvers and validators.

These are the ground-truth routines the fast recognizer is judged against:
brute-force computation of the total domination number and the minimum
maximal matching number, the predicates behind them, and the degree-aware
upper-bound report.  All searches are deterministic; witnesses are the
lexicographically least optima under sorted vertex and edge order.

Intended for desk-scale instances.  A hard vertex limit (default
:data:`DEFAULT_MAX_VERTICES`) turns oversized inputs into a loud
:class:`~domatch.errors.ResourceLimitError` instead of an open-ended run.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator

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
        return e in set(self._edges)

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


def is_maximal_matching(g: Graph, edges: Iterable[Edge | tuple[int, int]]) -> bool:
    """True iff ``edges`` form a matching no edge of ``g`` can extend."""
    covered = _covered_if_matching(g, edges)
    return covered is not None and all(e.u in covered or e.v in covered for e in g.edges())


def _edge_masks(g: Graph) -> tuple[tuple[Edge, ...], list[int], list[int]]:
    """Sorted edges with, per edge index, the bitmask of edges sharing an
    endpoint with it (itself included) and the highest index in that mask."""
    edges = g.edges()
    incident = [0] * g.vertex_count
    for i, e in enumerate(edges):
        incident[e.u] |= 1 << i
        incident[e.v] |= 1 << i
    kill = [incident[e.u] | incident[e.v] for e in edges]
    return edges, kill, [k.bit_length() - 1 for k in kill]


def _neighbor_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.neighbors(v)) for v in g.vertices()]


def _solve_total_domination(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """Smallest total dominating set of a graph without isolated vertices.

    Iterative deepening on the solution size; within one size the subsets
    are explored in lexicographic order, so the first hit is the
    lexicographically least optimal witness.  Pruning discards branches in
    which some still-undominated vertex has no potential dominator left.
    """
    n = g.vertex_count
    if n == 0:
        return 0, (), 0
    nbr = _neighbor_masks(g)
    full = (1 << n) - 1
    max_cover = max(m.bit_count() for m in nbr)
    # Largest id of a potential dominator, for O(1) reachability pruning.
    max_dominator = [max(g.neighbors(v)) for v in g.vertices()]
    nodes = 0

    def dfs(start: int, dominated: int, slots: int, chosen: tuple[int, ...]):
        nonlocal nodes
        nodes += 1
        if slots == 0:
            return chosen if dominated == full else None
        undominated = full & ~dominated
        if undominated.bit_count() > slots * max_cover:
            return None
        probe = undominated
        while probe:
            low = probe & -probe
            if max_dominator[low.bit_length() - 1] < start:
                return None
            probe ^= low
        for v in range(start, n - slots + 1):
            found = dfs(v + 1, dominated | nbr[v], slots - 1, chosen + (v,))
            if found is not None:
                return found
        return None

    least_size = -(-n // max_cover)  # every pick dominates at most max_cover vertices
    for k in range(max(1, least_size), n + 1):
        witness = dfs(0, 0, k, ())
        if witness is not None:
            return k, witness, nodes
    raise AssertionError("unreachable: the full vertex set is total dominating")


def _solve_minimum_maximal_matching(g: Graph) -> tuple[int, tuple[Edge, ...], int]:
    """Smallest maximal matching of a graph with at least one edge.

    Same iterative-deepening scheme as the domination solver, over sorted
    edges.  An edge set is maximal exactly when no edge has both endpoints
    uncovered, which doubles as the branching candidate set.
    """
    edges, kill, max_killer = _edge_masks(g)
    m = len(edges)
    if m == 0:
        return 0, (), 0
    vmask = [(1 << e.u) | (1 << e.v) for e in edges]
    full = (1 << m) - 1
    nodes = 0

    def disjoint_in(undominated: int, cap: int) -> int:
        # Greedy count of pairwise vertex-disjoint edges, stopping past cap.
        count = 0
        used = 0
        probe = undominated
        while probe and count <= cap:
            low = probe & -probe
            i = low.bit_length() - 1
            probe ^= low
            if vmask[i] & used == 0:
                used |= vmask[i]
                count += 1
        return count

    def dfs(start: int, undominated: int, slots: int, chosen: tuple[int, ...]):
        nonlocal nodes
        nodes += 1
        if slots == 0:
            return chosen if undominated == 0 else None
        if undominated == 0:
            return None  # no extendable edge remains, yet slots are unfilled
        first = (undominated & -undominated).bit_length() - 1
        if max_killer[first] < start:
            return None  # the least undominated edge can no longer be covered
        if disjoint_in(undominated, 2 * slots) > 2 * slots:
            return None  # each further pick settles at most two disjoint edges
        candidates = undominated >> start
        offset = start
        while candidates:
            low = candidates & -candidates
            i = offset + low.bit_length() - 1
            candidates ^= low
            found = dfs(i + 1, undominated & ~kill[i], slots - 1, chosen + (i,))
            if found is not None:
                return found
        return None

    least_size = -(-disjoint_in(full, m) // 2)
    for k in range(max(1, least_size), m + 1):
        witness = dfs(0, full, k, ())
        if witness is not None:
            return k, tuple(edges[i] for i in witness), nodes
    raise AssertionError("unreachable: greedy extension yields a maximal matching")


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
