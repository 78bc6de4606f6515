"""Certificates for equality between γ_t and twice the matching number.

For graphs of minimum degree one or two, equality of the total domination
number with twice the minimum maximal matching number is witnessed by a
single maximal matching satisfying four local conditions.  This module
splits a matching by the support status of edge endpoints, evaluates the
four conditions with explicit violation witnesses, searches the maximal
matchings for a certificate, and builds the small total dominating set
that a maximal matching yields when the minimum degree is three or more.

Every check reads one stream of :class:`Violation` objects in report
order (maximality, (i)/(ii), (iii)/(iv)); a condition holds when no
violation names it.  A maximal matching covers every support, as the
edge to each leaf is covered, and matches no ``S⁻`` vertex to a support,
so (i) and (ii) fail together, exactly when an ``S⁺`` vertex is matched
outside the support.  Without leaves (iii)/(iv) over the matched vertices
are the recognizer's degree-two conditions (i)/(ii).  A certificate M
forces γ_t = 2|M| ≤ 2μ* ≤ 2|M|, so every certificate of a graph has the
same size and the search never computes μ*.  It reads its edges off the
edge index of μ*'s search, built once over the whole graph, and runs once
per connected component, a connected graph included, with that
component's supports and edges, over all sizes; all four conditions
decide while it picks which edges may be taken and which vertices must
stay unmatched.  Each node branches on the undominated edge with the
fewest live killers, the "fewest rows first" rule of Knuth's Dancing
Links, which also removes at each pick the rows that conflict with it,
so the cost follows the graph, not the order of its ids.  A conflict
under (iii) or (iv) involves one pick or two and is symmetric, so ruling
it out at the root or at the earlier pick covers every pair: every leaf
is maximal, as it dominates every edge, and a certificate, and the
search checks nothing there.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .graph import (
    Edge,
    Graph,
    SupportClassification,
    connected_components,
    min_degree,
    support_classification,
)
from .oracles import Matching, _edge_masks, _extending_edge, _validated_edges, is_maximal_matching

#: Node budget of :func:`find_certifying_matching`, shared by all the
#: components it searches.
DEFAULT_SEARCH_BUDGET = 10**6

#: Condition identifiers, in report order.
CONDITION_IDS = ("i", "ii", "iii", "iv")


class MatchingPartition(NamedTuple):
    """A maximal matching split by the support status of edge endpoints.

    ``m_plus`` holds the edges with both endpoints adjacent to a leaf,
    ``m_minus`` those with exactly one such endpoint, ``m_star`` the rest.
    """

    m_plus: tuple[Edge, ...]
    m_minus: tuple[Edge, ...]
    m_star: tuple[Edge, ...]


class Violation(NamedTuple):
    """One concrete witness against a certificate condition."""

    condition: str
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    message: str


class ConditionReport(NamedTuple):
    """Per-condition verdicts with a witness for every failure."""

    verdicts: Mapping[str, bool]
    violations: tuple[Violation, ...]

    @property
    def holds(self) -> bool:
        return all(self.verdicts.values())


class CertifyingMatchingResult(NamedTuple):
    """A maximal matching passing all four conditions, with the evidence."""

    matching: Matching
    partition: MatchingPartition
    report: ConditionReport


def partition_matching(g: Graph, m: Matching) -> MatchingPartition:
    """Classify each matching edge by how many endpoints are support vertices.

    Two endpoints in the support go to ``m_plus``, one to ``m_minus``, zero
    to ``m_star``.
    """
    _validated_edges(g, m)
    return _partition(m, support_classification(g))


def _partition(m: Matching, support: SupportClassification) -> MatchingPartition:
    # the edges by their number of support ends; two support ends are
    # adjacent supports, so both lie in S⁺
    by_count: tuple[list[Edge], ...] = ([], [], [])
    for e in m:
        by_count[(e.u in support.sup) + (e.v in support.sup)].append(e)
    star, minus, plus = map(tuple, by_count)
    return MatchingPartition(plus, minus, star)


def _pinned_pairs(
    adjacency: Sequence[frozenset[int]], vertices: Iterable[int]
) -> dict[int, set[int]]:
    """For each vertex a, the vertices b such that some degree-two vertex
    among ``vertices`` has neighborhood exactly {a, b}."""
    pinned: dict[int, set[int]] = {}
    for y in vertices:
        if len(adjacency[y]) == 2:
            a, b = adjacency[y]
            pinned.setdefault(a, set()).add(b)
            pinned.setdefault(b, set()).add(a)
    return pinned


def _report(ids: Sequence[str], violations: Iterable[Violation]) -> ConditionReport:
    """The report of a violation stream: condition c holds when no violation
    names it."""
    found = tuple(violations)
    failed = {v.condition for v in found}
    return ConditionReport({c: c not in failed for c in ids}, found)


def _certificate_violations(
    adjacency: Sequence[frozenset[int]],
    vertices: Sequence[int],
    support: SupportClassification,
    pinned: Mapping[int, set[int]],
    m: Matching,
    local_ids: tuple[str, str] = ("iii", "iv"),
) -> Iterator[Violation]:
    """Violations of the certificate conditions by ``m`` on the sorted
    ``vertices``, in report order.

    First ``maximal``: the least edge that could extend ``m``.  The rest
    reads partners, which a maximal matching has for every support, so
    with supports only a first ``maximal`` item may be read.  Then (i)/(ii)
    from one scan of ``S⁺``: its vertices matched outside the support, and
    their edges.  Last, under ``local_ids``, the local conditions over the
    sorted pool ``S⁻ ∪ V(M*)``, which is ``V(M)`` without supports: each
    pool vertex sees exactly one matched vertex, its partner; then, in
    sorted (u, v) order, pool vertices u, v sharing a neighbor need some
    vertex with neighborhood exactly {p(u), p(v)}, looked up in ``pinned``
    (see :func:`_pinned_pairs`).  Such pairs are found by walking the
    pool's neighbors, so no pair without a common neighbor is looked at.
    Each condition's message is one fixed text: the ids it concerns are in
    the violation's ``vertices`` and ``edges``, so a caller shows them in
    its own labels.  :func:`find_certifying_matching` does not read this
    stream; it rules out, pick by pick, what the stream would name.
    """
    covered = m.covered
    extending = _extending_edge(adjacency, vertices, covered)
    if extending is not None:
        yield Violation("maximal", (), (extending,), "this edge could extend the matching")

    partner = m._partner
    sup = support.sup
    stray = [v for v in sorted(support.s_plus) if partner[v] not in sup]
    if stray:
        yield Violation(
            "i",
            tuple(stray),
            (),
            "adjacent-support vertices left unmatched by double-support edges",
        )
        yield Violation(
            "ii",
            (),
            tuple(sorted(Edge.of(v, partner[v]) for v in stray)),
            "single-support edges must join an isolated support to a"
            " non-support vertex",
        )

    exact_id, witness_id = local_ids
    # V(M*) is V(M) without the supports and their partners
    partners = map(partner.__getitem__, sup)
    pool = sorted(covered.difference(sup, partners) | support.s_minus if sup else covered)
    for v in pool:
        seen = adjacency[v] & covered
        if len(seen) != 1 or partner[v] not in seen:
            yield Violation(
                exact_id,
                (v, *sorted(seen)),
                (),
                "the first vertex must see exactly its partner among matched"
                " vertices; it sees the rest",
            )

    in_pool = frozenset(pool)
    for u in pool:
        witnessed = pinned.get(partner[u], ())
        two_steps = set().union(*(adjacency[w] for w in adjacency[u]))
        for v in sorted(v for v in two_steps.intersection(in_pool) if v > u):
            if partner[v] not in witnessed:
                yield Violation(
                    witness_id,
                    (u, v),
                    (),
                    "these two share a neighbor, but no vertex has neighborhood"
                    " exactly their partners",
                )


def _require_low_degree(g: Graph) -> int:
    """The minimum degree of ``g``, which must be one or two."""
    delta = min_degree(g)
    if delta not in (1, 2):
        raise DomainError(f"minimum degree {delta} is outside {{1, 2}}")
    return delta


def _require_degree_two(g: Graph) -> None:
    """Refuse ``g`` unless its minimum degree is exactly two."""
    delta = min_degree(g)
    if delta != 2:
        raise DomainError(f"minimum degree {delta}, expected exactly 2")


def _certificate_evidence(
    g: Graph, m: Matching
) -> tuple[MatchingPartition, ConditionReport] | None:
    """The partition of ``m`` and its four-condition report, or None when
    ``m`` is not a maximal matching of ``g``.

    Supports are classified once; the caller has checked the minimum
    degree and that the edges of ``m`` are edges of ``g``.
    """
    adjacency = g._adjacency
    vertices = g.vertices()
    support = support_classification(g)
    violations = _certificate_violations(
        adjacency, vertices, support, _pinned_pairs(adjacency, vertices), m
    )
    first = next(violations, None)
    if first is not None and first.condition == "maximal":
        return None
    found = () if first is None else (first, *violations)
    return _partition(m, support), _report(CONDITION_IDS, found)


def check_certificate_conditions(g: Graph, m: Matching) -> ConditionReport:
    """Evaluate the four certificate conditions for a maximal matching.

    The graph must have minimum degree one or two.  Writing ``S⁺`` for the
    support vertices adjacent to another support, ``S⁻`` for the remaining
    support vertices and ``p(v)`` for the matching partner:

    (i)   the double-support edges perfectly match ``S⁺``;
    (ii)  every ``S⁻`` vertex is matched, along a single-support edge whose
          other endpoint is no support vertex;
    (iii) every vertex in ``S⁻`` or covered by a no-support edge sees
          exactly one matched vertex, its partner;
    (iv)  whenever two such vertices u, v share a neighbor, some vertex has
          neighborhood exactly {p(u), p(v)}.

    Together these force the matching to be minimum and the total
    domination number to equal twice its size.
    """
    _require_low_degree(g)
    _validated_edges(g, m)
    evidence = _certificate_evidence(g, m)
    if evidence is None:
        raise DomainError("matching is not maximal")
    return evidence[1]


def find_certifying_matching(
    g: Graph, *, budget: int = DEFAULT_SEARCH_BUDGET
) -> CertifyingMatchingResult | None:
    """A maximal matching satisfying all four certificate conditions.

    A certificate forces γ_t = 2|M| ≤ 2μ* ≤ 2|M|, so all certificates have
    size μ*.  The conditions are local to a component, so each component
    is searched alone, with its own supports and edges, in order of its
    least vertex, and a connected graph is one such component; the first
    without a certificate makes the answer None, and a component of
    minimum degree three or more has none.  The edges, the edges at each
    vertex and the kill sets are those of the μ* search's edge index over
    the whole graph.  One depth-first search per component runs over all
    sizes, pruned by the conditions:

    - (i)/(ii) allow an edge only if both ends are supports, one end is in
      ``S⁻`` or no end is a support; every other edge must be dominated
      but is never picked;
    - (iii): once a vertex of ``S⁻`` or an end of a no-support edge is
      matched, its other neighbors must stay unmatched ("blocked"), so
      after a pick no edge touching a blocked vertex is live, and neither
      is one whose ``S⁻`` or no-support ends see a matched vertex;
    - (iv): once such a vertex x is matched to p, an edge that would put
      in the pool a vertex z ≠ x sharing a neighbor with x is live only
      if some vertex has neighborhood exactly {p, q}, where q is the
      edge's other end, z's partner; and a no-support edge whose ends
      share a neighbor is never picked unless some vertex has
      neighborhood exactly its ends;
    - every undominated edge needs a live killer, an allowed edge at one
      of its ends that no pick has ruled out.  Each node branches on the
      undominated edge with the fewest live killers, the first in index
      order among equals: none ends the branch, and the scan stops at
      one.  The killers are tried in ascending index, and each tried
      killer leaves the live edges of its later siblings, so every
      maximal matching is reached at most once.

    Each of these rule-outs concerns two picks, or one, and holds either
    way round, so no two picks of a branch break a condition.  A leaf,
    where no edge is left undominated, is then maximal, as it dominates
    every edge, and meets all four conditions, so the first leaf is the
    component's certificate.  The result is deterministic, but
    which certificate it is, when a graph has several, is not promised:
    the tests check that it is the first minimum maximal matching meeting
    the conditions in lexicographic order of sorted edge-index tuples
    (``minimum_certifying_matching`` in ``tests/helpers.py``) on every graph
    they list.  None means the pruned search of some component was
    exhausted: no maximal matching meets the conditions, which for graphs
    of minimum degree one or two means γ_t < 2μ*.  All components share
    one ``budget`` of search nodes; crossing it raises
    :class:`~domatch.errors.ResourceLimitError`.
    """
    _require_low_degree(g)
    adjacency = g._adjacency
    support = support_classification(g)
    pinned = _pinned_pairs(adjacency, g.vertices())
    # the whole graph's edge index, edge bit i for the i-th sorted pair
    pairs, incident, kill = _edge_masks(adjacency, g.vertices())
    # per vertex, the edges that put it in the pool of (iii)/(iv): every
    # edge at an S⁻ vertex, and at a non-support its edges to non-supports
    at_sup = barred = 0
    for x in support.sup:
        at_sup |= incident[x]
    pooled = [edges & ~at_sup for edges in incident]
    for x in support.s_minus:
        pooled[x] = incident[x]
    # never picked: by (i)/(ii) an edge with a single end in S⁺, whose other
    # end is no support, and by (iv) a no-support edge whose ends share a
    # neighbor while no vertex has neighborhood exactly its ends
    for x in support.s_plus:
        barred ^= incident[x]
    for i, (u, v) in enumerate(pairs):
        if not at_sup >> i & 1 and adjacency[u] & adjacency[v] and v not in pinned.get(u, ()):
            barred |= 1 << i

    nodes = 0
    picked: list[tuple[int, int]] = []
    for component in connected_components(g):
        own = 0
        for v in component:
            own |= incident[v]
        # (undominated edges, live edges, picks so far); a live edge is not
        # barred, touches no matched or blocked vertex and conflicts with no
        # pick under (iii) or (iv)
        stack = [(own, own & ~barred, ())]
        while stack:
            undominated, live, chosen = stack.pop()
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(f"certificate search exceeded {budget} nodes")
            if not undominated:
                picked += (pairs[i] for i in chosen)
                break
            fewest = len(pairs) + 1
            rest = undominated
            while rest:
                low = rest & -rest
                rest ^= low
                killers = kill[low.bit_length() - 1] & live
                count = killers.bit_count()
                if count < fewest:
                    best, fewest = killers, count
                    if count < 2:
                        break
            # the killers from the highest index down, so the lowest is
            # tried first; each child leaves out the killers below its own
            while best:
                i = best.bit_length() - 1
                best ^= 1 << i
                # the pick rules out the edges at its ends and, per end x
                # with partner p: if it puts x in the pool, every edge at a
                # neighbor of x, which (iii) keeps unmatched, and every edge
                # that would pool a vertex z sharing a neighbor with x, but
                # for those whose other end ``pinned`` pairs with p, as (iv)
                # asks; else every edge that would pool a neighbor of x,
                # which would see x matched
                out = kill[i]
                u, v = pairs[i]
                for x, p in (u, v), (v, u):
                    if pooled[x] >> i & 1:
                        witnessed = pinned.get(p, frozenset())
                        for y in adjacency[x]:
                            out |= incident[y]
                            for z in adjacency[y]:
                                near = pooled[z]
                                for q in adjacency[z] & witnessed:
                                    near &= ~incident[q]
                                out |= near
                    else:
                        for y in adjacency[x]:
                            out |= pooled[y]
                stack.append((undominated & ~kill[i], live & ~out & ~best, chosen + (i,)))
        else:
            return None
    matching = Matching(picked)
    return CertifyingMatchingResult(
        matching, _partition(matching, support), _report(CONDITION_IDS, ())
    )


def total_dominating_set_from_matching(g: Graph, m: Matching) -> frozenset[int]:
    """Total dominating set of size at most 2|m| − δ + 2 for δ ≥ 3.

    Follows the constructive bound argument: when some vertex x is left
    uncovered, all its neighbors are matched, and dropping the partners of
    δ − 1 of them in favor of x keeps every vertex dominated.  When the
    matching covers the whole graph, any δ − 1 vertices may be dropped.
    Least-id choices make the output deterministic.
    """
    delta = min_degree(g)
    if delta < 3:
        raise DomainError(f"minimum degree {delta} is below 3")
    if not is_maximal_matching(g, m.edges):
        raise DomainError("matching is not maximal")
    covered = m.covered
    uncovered = [v for v in g.vertices() if v not in covered]
    if uncovered:
        x = min(uncovered)
        chosen_neighbors = sorted(g.neighbors(x))[: delta - 1]
        dropped = {m.partner(a) for a in chosen_neighbors}
        return frozenset(covered - dropped) | {x}
    dropped = set(sorted(g.vertices(), reverse=True)[: delta - 1])
    return frozenset(v for v in g.vertices() if v not in dropped)
