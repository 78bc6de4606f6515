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
same size and the search never computes μ*.  It runs once per connected
component, over all sizes, and conditions (i)–(iii) decide while it picks
which edges may be taken and which vertices must stay unmatched.  Each
node branches on the undominated edge with the fewest live killers, the
"fewest rows first" rule of Knuth's Dancing Links, so the cost follows
the graph, not the order of its ids.  Each maximal matching it reaches
gets the full check.
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
from .oracles import Matching, _extending_edge, _validated_edges, is_maximal_matching

#: Node budget of one certificate search, shared by all its components.
DEFAULT_ENUMERATION_BUDGET = 10**6

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
    plus: list[Edge] = []
    minus: list[Edge] = []
    star: list[Edge] = []
    for e in m:
        in_sup = (e.u in support.sup) + (e.v in support.sup)
        if in_sup == 2:
            # Two support ends are adjacent supports, so both lie in S⁺.
            plus.append(e)
        elif in_sup == 1:
            minus.append(e)
        else:
            star.append(e)
    return MatchingPartition(tuple(plus), tuple(minus), tuple(star))


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
    its own labels.
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
    g: Graph, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CertifyingMatchingResult | None:
    """A maximal matching satisfying all four certificate conditions.

    A certificate forces γ_t = 2|M| ≤ 2μ* ≤ 2|M|, so all certificates have
    size μ*.  The conditions are local to a component, so each component
    is searched alone, with its own supports, in order of its least
    vertex; the first without a certificate makes the answer None, and a
    component of minimum degree three or more has none.  One depth-first
    search per component runs over all sizes, pruned by the conditions:

    - (i)/(ii) allow an edge only if both ends are supports, one end is in
      ``S⁻`` or no end is a support; every other edge must be dominated
      but is never picked;
    - (iii): once a vertex of ``S⁻`` or an end of a no-support edge is
      matched, its other neighbors must stay unmatched ("blocked"), so
      after a pick no edge touching a blocked vertex is live, and neither
      is one whose ``S⁻`` or no-support ends see a matched vertex;
    - every undominated edge needs a live killer, an allowed edge at one
      of its ends that no pick has ruled out.  Each node branches on the
      undominated edge with the fewest live killers, the first in index
      order among equals: none ends the branch, and the scan stops at
      one.  The killers are tried in ascending index, and each tried
      killer leaves the live edges of its later siblings, so every
      maximal matching is reached at most once.

    Each maximal matching reached gets the full check, and the first to
    pass is the component's certificate.  The result is deterministic, but
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
    sup, s_minus = support.sup, support.s_minus
    # one pass over the whole graph's sorted pairs, edge bit i for the i-th:
    # the edges at each vertex, the edges that (i)/(ii) allow, and per vertex
    # the allowed edges that would put it in the pool of (iii), as an S⁻ end
    # or an end of a no-support edge
    pairs = [(u, v) for u in g.vertices() for v in sorted(adjacency[u]) if v > u]
    incident = [0] * len(adjacency)
    pooled = [0] * len(adjacency)
    allowed = 0
    for i, (u, v) in enumerate(pairs):
        bit = 1 << i
        incident[u] |= bit
        incident[v] |= bit
        if u in s_minus or v in s_minus:
            pooled[u if u in s_minus else v] |= bit
        elif u not in sup and v not in sup:
            pooled[u] |= bit
            pooled[v] |= bit
        elif u not in sup or v not in sup:
            continue  # one end in S⁺ and one outside the support breaks (ii)
        allowed |= bit
    # per vertex x: the edges at its neighbors, blocked once x is matched
    # into the pool, and the allowed edges pooling a neighbor, which (iii)
    # rules out once x is matched
    around = [0] * len(adjacency)
    seen = [0] * len(adjacency)
    for u, v in pairs:
        around[u] |= incident[v]
        around[v] |= incident[u]
        seen[u] |= pooled[v]
        seen[v] |= pooled[u]
    kill = [incident[u] | incident[v] for u, v in pairs]
    # per edge, what a pick rules out: the edges at its ends, those at a
    # vertex it blocks, and those pooling a neighbor of its ends
    shut = [
        kill[i] | seen[u] | seen[v]
        | (around[u] if pooled[u] >> i & 1 else 0)
        | (around[v] if pooled[v] >> i & 1 else 0)
        for i, (u, v) in enumerate(pairs)
    ]

    nodes = 0
    pinned = None
    picked: list[Edge] = []
    components = connected_components(g)
    for component in components:
        # a connected graph is its own component, with no split to build
        if len(components) == 1:
            vertices: Sequence[int] = g.vertices()
            part, own = support, (1 << len(pairs)) - 1
        else:
            vertices, own = sorted(component), 0
            for v in vertices:
                own |= incident[v]
            part = SupportClassification(*(side & component for side in support))
        # (undominated edges, live edges, picks so far); a live edge is
        # allowed, touches no matched or blocked vertex and pools no
        # neighbor of a matched vertex, as ``shut`` rules out per pick
        stack = [(own, allowed & own, ())]
        while stack:
            undominated, live, chosen = stack.pop()
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(f"certificate search exceeded {budget} nodes")
            if not undominated:
                if pinned is None:
                    pinned = _pinned_pairs(adjacency, g.vertices())
                matching = Matching(pairs[i] for i in chosen)
                violations = _certificate_violations(adjacency, vertices, part, pinned, matching)
                if next(violations, None) is None:
                    picked += matching
                    break
                continue
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
            children = []
            while best:
                low = best & -best
                best ^= low
                i = low.bit_length() - 1
                children.append((undominated & ~kill[i], live & ~shut[i], chosen + (i,)))
                live ^= low
            stack += reversed(children)
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
