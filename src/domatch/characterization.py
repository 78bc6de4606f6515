"""Certificates for equality between γ_t and twice the matching number.

For graphs of minimum degree one or two, equality of the total domination
number with twice the minimum maximal matching number is witnessed by a
single maximal matching satisfying four local conditions.  This module
splits a matching by the support status of edge endpoints, evaluates the
four conditions with explicit violation witnesses, enumerates maximal
matchings, searches for a certificate, and builds the small total
dominating set that a maximal matching yields when the minimum degree is
three or more.

Each checker is one stream of :class:`Violation` objects in report order;
a condition holds when no violation names it.  A certificate M forces
γ_t = 2|M| ≤ 2μ* ≤ 2|M|, so every certificate of a graph has the same
size and the search never computes μ*: it picks edges in ascending index
order over all sizes, and conditions (i)–(iii) decide while it picks
which edges may be taken and which vertices must stay unmatched.  Each
maximal matching it reaches gets the full check.  Conditions (iii)/(iv)
are local checks over a vertex pool.  Without leaves that pool is the set
of matched vertices, and the same checks are the recognizer's degree-two
conditions (i)/(ii); both run one engine here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .graph import (
    Edge,
    Graph,
    SupportClassification,
    min_degree,
    support_classification,
)
from .oracles import (
    Matching,
    _edge_masks,
    _maximal_matchings,
    _validated_edges,
    is_maximal_matching,
)

#: Node budget of one maximal-matching enumeration, shared by all its
#: sizes, and of one certificate search.
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


def _covered_by(edges: tuple[Edge, ...]) -> set[int]:
    vertices: set[int] = set()
    for e in edges:
        vertices.add(e.u)
        vertices.add(e.v)
    return vertices


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


def _local_violations(
    adjacency: Sequence[frozenset[int]],
    pinned: Mapping[int, set[int]],
    m: Matching,
    pool: list[int],
    exact_id: str,
    witness_id: str,
) -> Iterator[Violation]:
    """The two local certificate conditions over the sorted vertex ``pool``.

    ``exact_id``: every pool vertex sees exactly one matched vertex, its
    partner.  ``witness_id``: whenever two pool vertices u, v share a
    neighbor, some vertex has neighborhood exactly {p(u), p(v)}, looked up
    in ``pinned`` (see :func:`_pinned_pairs`).  Yields a :class:`Violation`
    per failure, every ``exact_id`` one first, then pairs in sorted (u, v)
    order.  These are conditions (iii)/(iv) over ``S⁻ ∪ V(M*)``; on a
    leafless graph the pool is ``V(M)`` and they are the degree-two
    conditions (i)/(ii).  Pairs sharing a neighbor are found by walking the
    pool's neighbors, so no pair without a common neighbor is ever looked at.
    """
    partner = m._partner
    matched = m.covered
    for v in pool:
        seen = adjacency[v] & matched
        if len(seen) != 1 or partner[v] not in seen:
            yield Violation(
                exact_id,
                (v, *sorted(seen)),
                (),
                f"vertex {v} must see exactly its partner {partner[v]} among"
                " matched vertices",
            )

    in_pool = frozenset(pool)
    for u in pool:
        pu = partner[u]
        witnessed = pinned.get(pu, ())
        two_steps = set().union(*(adjacency[w] for w in adjacency[u]))
        for v in sorted(v for v in two_steps.intersection(in_pool) if v > u):
            if partner[v] not in witnessed:
                yield Violation(
                    witness_id,
                    (u, v),
                    (),
                    f"no vertex has neighborhood exactly {sorted((pu, partner[v]))}",
                )


def _certificate_violations(
    adjacency: Sequence[frozenset[int]],
    support: SupportClassification,
    pinned: Mapping[int, set[int]],
    m: Matching,
) -> Iterator[Violation]:
    """Violations of the four conditions by the maximal matching ``m``, in
    report order: (i), (ii), then (iii)/(iv)."""
    partition = _partition(m, support)
    plus_covered = _covered_by(partition.m_plus)
    unmatched_plus = sorted(support.s_plus - plus_covered)
    if unmatched_plus:
        yield Violation(
            "i",
            tuple(unmatched_plus),
            (),
            "adjacent-support vertices left unmatched by double-support edges",
        )
    stray_plus = sorted(plus_covered - support.s_plus)
    if stray_plus:
        yield Violation(
            "i",
            tuple(stray_plus),
            (),
            "double-support edges reach outside the adjacent-support set",
        )

    unmatched_minus = sorted(support.s_minus - _covered_by(partition.m_minus))
    if unmatched_minus:
        yield Violation(
            "ii",
            tuple(unmatched_minus),
            (),
            "isolated-support vertices not covered by single-support edges",
        )
    bad_minus_edges = [
        e
        for e in partition.m_minus
        if not (
            (e.u in support.s_minus and e.v not in support.sup)
            or (e.v in support.s_minus and e.u not in support.sup)
        )
    ]
    if bad_minus_edges:
        yield Violation(
            "ii",
            (),
            tuple(bad_minus_edges),
            "single-support edges must join an isolated support to a"
            " non-support vertex",
        )

    pool = sorted(support.s_minus | _covered_by(partition.m_star))
    yield from _local_violations(adjacency, pinned, m, pool, "iii", "iv")


def _require_low_degree(g: Graph) -> int:
    """The minimum degree of ``g``, which must be one or two."""
    delta = min_degree(g)
    if delta not in (1, 2):
        raise DomainError(f"minimum degree {delta} is outside {{1, 2}}")
    return delta


def _certificate_evidence(
    g: Graph, m: Matching
) -> tuple[MatchingPartition, ConditionReport] | None:
    """The partition of ``m`` and its four-condition report, or None when
    ``m`` is not a maximal matching of ``g``.

    Edges and maximality are checked once and supports classified once;
    the caller has checked the minimum degree.
    """
    if not is_maximal_matching(g, m.edges):
        return None
    adjacency = g._adjacency
    support = support_classification(g)
    violations = _certificate_violations(
        adjacency, support, _pinned_pairs(adjacency, g.vertices()), m
    )
    return _partition(m, support), _report(CONDITION_IDS, violations)


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
    evidence = _certificate_evidence(g, m)
    if evidence is None:
        raise DomainError("matching is not maximal")
    return evidence[1]


def iter_maximal_matchings(
    g: Graph, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[Matching]:
    """Yield every maximal matching of ``g`` exactly once.

    Matchings arrive by size, smallest first, and within one size in
    ascending lexicographic order of their sorted edge-index tuples.  Search
    effort over all sizes is metered; crossing ``budget`` nodes raises
    :class:`~domatch.errors.ResourceLimitError`.
    """
    for chosen, _ in _maximal_matchings(g._adjacency, g.vertices(), budget):
        yield Matching(chosen)


def find_certifying_matching(
    g: Graph, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CertifyingMatchingResult | None:
    """First maximal matching satisfying all four certificate conditions.

    A certificate forces γ_t = 2|M| ≤ 2μ* ≤ 2|M|, so all certificates have
    size μ*, and the first one in lexicographic order of sorted edge-index
    tuples is the first in the order of :func:`iter_maximal_matchings`; the
    result is deterministic.  One depth-first search picks edges in
    ascending index order over all sizes, pruned by the conditions:

    - (i)/(ii) allow an edge only if both ends are supports, one end is in
      ``S⁻`` or no end is a support; every other edge must be dominated
      but is never picked;
    - (iii): once a vertex of ``S⁻`` or an end of a no-support edge is
      matched, its other neighbors must stay unmatched ("blocked"), so a
      pick touching a blocked vertex is cut, and so is one whose ``S⁻`` or
      no-support ends already see a matched vertex;
    - every undominated edge needs a later allowed pick touching no matched
      or blocked vertex, so the next pick is at most the smallest of their
      largest such killers, and an edge with none ends the branch.

    A maximal matching reached that covers every support vertex gets the
    full check, and the first to pass is returned.  None means the pruned
    search was exhausted: no maximal matching meets the conditions, which
    for graphs of minimum degree one or two means γ_t < 2μ*.  The
    conditions are local to a component, so this covers disconnected
    graphs too, and a component of minimum degree three or more has no
    certificate.  Crossing ``budget`` search nodes raises
    :class:`~domatch.errors.ResourceLimitError`.
    """
    _require_low_degree(g)
    adjacency = g._adjacency
    support = support_classification(g)
    pinned = _pinned_pairs(adjacency, g.vertices())
    sup, s_minus = support.sup, support.s_minus
    edges, incident, kill, ends = _edge_masks(adjacency, g.vertices())
    # per allowed edge: the edges a pick rules out (those touching its ends
    # or a vertex it blocks), and the vertices that must not be matched
    # already (the neighbors of its S⁻ and no-support ends)
    allowed = 0
    shut = kill[:]
    near = [0] * len(edges)
    for i, (u, v) in enumerate(edges):
        if u in sup and v in sup:
            pool: tuple[int, ...] = ()
        elif u in s_minus or v in s_minus:
            pool = (u,) if u in s_minus else (v,)
        elif u in sup or v in sup:
            continue  # one end in S⁺ and one outside the support breaks (ii)
        else:
            pool = (u, v)
        allowed |= 1 << i
        for p in pool:
            for w in adjacency[p]:
                shut[i] |= incident[w]
                near[i] |= 1 << w
    supports = sum(1 << v for v in sup)

    nodes = 0
    # (next allowed index, undominated edges, live edges, matched vertices,
    # picks so far); a live edge is allowed and touches no matched or
    # blocked vertex.  Children are pushed largest first so they pop in
    # ascending order.
    stack = [(0, (1 << len(edges)) - 1, allowed, 0, ())]
    while stack:
        start, undominated, live, matched, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(f"certificate search exceeded {budget} nodes")
        if not undominated:
            if supports & ~matched == 0:
                matching = Matching(edges[i] for i in chosen)
                violations = _certificate_violations(adjacency, support, pinned, matching)
                if next(violations, None) is None:
                    return CertifyingMatchingResult(
                        matching, _partition(matching, support), _report(CONDITION_IDS, ())
                    )
            continue
        later = live >> start << start
        cap = len(edges)
        rest = undominated
        while rest:
            low = rest & -rest
            rest ^= low
            killers = kill[low.bit_length() - 1] & later
            if not killers:
                break
            top = killers.bit_length() - 1
            if top < cap:
                cap = top
        else:
            candidates = later & ((2 << cap) - 1)
            while candidates:
                i = candidates.bit_length() - 1
                candidates ^= 1 << i
                if not near[i] & matched:
                    child = (undominated & ~kill[i], live & ~shut[i], matched | ends[i])
                    stack.append((i + 1, *child, chosen + (i,)))
    return None


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
