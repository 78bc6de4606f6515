"""Polynomial-time recognition for minimum degree two.

Leafless graphs with total domination number equal to twice the minimum
maximal matching number are exactly the triangle books, the six-cycle, and
the graphs whose induced-six-cycle middle edges form a maximal matching
satisfying two local conditions.  The recognizer detects the exceptional
graphs directly, builds the candidate matching from the induced six-cycles
x–a–a′–y–b′–b through degree-two vertices x and y, and reports a checkable
certificate or a reasoned refutation.

The six-cycles are found by a local walk over the index of degree-two
neighborhoods: from each indexed pair {a, b} over a′ ∈ N(a), with b′ drawn
from the neighbors of b whose pair with a′ is indexed too.  A six-cycle
has two such pairs, {a, b} and {a′, b′}, and is found only from the one
holding the least of the four vertices.  That costs at most
O(Σ deg(a)·deg(b)) over the indexed pairs, so bounded-degree inputs are
decided in about linear time.  Each component is handled as a sorted vertex
subset of the input graph, read through its adjacency directly: no
:class:`~domatch.graph.Graph` is built, and every id in a certificate or
refutation is an id of the input graph.

A leafless graph has no support vertices, so its two conditions are the
leafy conditions (iii)/(iv) of :mod:`domatch.characterization` taken over
the matched vertices.  Both checkers read the one condition stream there,
with no supports: maximality, then (i), then (ii).  The public checker
reports all of it, and a refutation is its first item, so ``recognize``
stops at the first failure.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import AbstractSet, Mapping, NamedTuple, Sequence, Union

from .characterization import (
    ConditionReport,
    _certificate_violations,
    _pinned_pairs,
    _report,
    _require_degree_two,
)
from .graph import (
    Edge,
    Graph,
    SupportClassification,
    _book_pages,
    connected_components,
)
from .oracles import Matching, _validated_edges

#: Refutation reason codes, stable CLI vocabulary.
REASON_NOT_MATCHING = "m-not-matching"
REASON_NOT_MAXIMAL = "m-not-maximal"
REASON_CONDITION_I = "condition-i-violated"
REASON_CONDITION_II = "condition-ii-violated"
#: Extension for disconnected inputs: a component may have minimum degree
#: three or more even though the whole graph sits at two; no such component
#: can reach equality, so it is refuted outright.
REASON_MIN_DEGREE = "min-degree-above-two"


class ExceptionalBook(NamedTuple):
    """Triangle book: ``pages`` triangles sharing one common edge."""

    pages: int


class ExceptionalSixCycle(NamedTuple):
    """The six-cycle, certified by shape alone."""


class CertifyingMatching(NamedTuple):
    """Candidate matching that passed the degree-two conditions."""

    matching: Matching
    report: ConditionReport


class Refutation(NamedTuple):
    """Why a component fails, as the first unsatisfied check."""

    reason: str
    vertices: tuple[int, ...] = ()
    detail: str = ""


Certificate = Union[ExceptionalBook, ExceptionalSixCycle, CertifyingMatching, Refutation]


class ComponentOutcome(NamedTuple):
    """Verdict and certificate for one connected component."""

    vertices: tuple[int, ...]
    verdict: bool
    certificate: Certificate


class RecognitionOutcome(NamedTuple):
    """Conjunction of per-component verdicts with their certificates."""

    verdict: bool
    components: tuple[ComponentOutcome, ...] = ()

    @property
    def certificates(self) -> tuple[Certificate, ...]:
        return tuple(c.certificate for c in self.components)


def _candidate_edges(
    adjacency: Sequence[AbstractSet[int]], pinned: Mapping[int, set[int]]
) -> tuple[Edge, ...]:
    """Middle edges a–a′ and b–b′ of the induced six-cycles x–a–a′–y–b′–b.

    ``pinned`` indexes the degree-two neighborhoods {a, b} of x (see
    :func:`~domatch.characterization._pinned_pairs`); the walk goes from
    each indexed pair a < b over a′ ∈ N(a) to the b′ ∈ N(b) pinned with a′.
    The six vertices induce a six-cycle exactly when none of a–b, a–b′,
    a′–b, a′–b′ is an edge; the other non-edges follow from x and y having
    degree two, and x ∈ N(a) ∩ N(b) is kept off a′ ∉ N(b) and b′ ∉ N(a).
    Asking a′ > a and b′ > a finds each six-cycle once, from its pair with
    the least end; each pair costs at most deg(a)·deg(b).
    The deduplicated, sorted union is returned; it need not be a matching.
    """
    found: set[tuple[int, int]] = set()
    for a, partners in pinned.items():
        near_a = adjacency[a]
        for b in partners:
            if b < a or b in near_a:
                continue
            near_b = adjacency[b]
            for a2 in near_a:
                if a2 < a or a2 in near_b or a2 not in pinned:
                    continue
                near_a2 = adjacency[a2]
                for b2 in pinned[a2] & near_b:
                    if b2 > a and b2 not in near_a and b2 not in near_a2:
                        found.add((a, a2))
                        found.add((b, b2) if b < b2 else (b2, b))
    return tuple(map(tuple.__new__, repeat(Edge), sorted(found)))


#: Condition identifiers of the degree-two checker, in report order.
_DEGREE_TWO_IDS = ("maximal", "i", "ii")

#: A leafless graph has no support vertices.
_NO_SUPPORT = SupportClassification(frozenset(), frozenset(), frozenset())


def check_degree_two_certificate(g: Graph, m: Matching) -> ConditionReport:
    """Evaluate the leafless-graph certificate conditions for a matching.

    Verdicts: ``maximal`` (no graph edge extends m), ``i`` (every matched
    vertex sees exactly its partner among matched vertices), ``ii`` (matched
    vertices u, v sharing a neighbor admit some vertex whose neighborhood is
    exactly the partner pair).  ``i``/``ii`` are the leafy conditions
    (iii)/(iv) evaluated over the matched vertices.  Requires minimum
    degree two.
    """
    _require_degree_two(g)
    _validated_edges(g, m)
    adjacency = g._adjacency
    vertices = g.vertices()
    pinned = _pinned_pairs(adjacency, vertices)
    violations = _certificate_violations(adjacency, vertices, _NO_SUPPORT, pinned, m, ("i", "ii"))
    return _report(_DEGREE_TWO_IDS, violations)


def _component_certificate(
    adjacency: Sequence[AbstractSet[int]], vertices: Sequence[int]
) -> Certificate:
    """Certificate for one connected component, given as sorted ``vertices``."""
    degrees = list(map(len, map(adjacency.__getitem__, vertices)))
    if min(degrees) != 2:
        return Refutation(REASON_MIN_DEGREE, (), "component has minimum degree above two")
    pages = _book_pages(degrees)
    if pages is not None:
        return ExceptionalBook(pages)
    if len(vertices) == 6 and max(degrees) == 2:
        return ExceptionalSixCycle()
    pinned = _pinned_pairs(adjacency, vertices)
    candidate = _candidate_edges(adjacency, pinned)
    uses = Counter(w for e in candidate for w in e)
    shared = sorted(v for v, count in uses.items() if count > 1)
    if shared:
        return Refutation(REASON_NOT_MATCHING, tuple(shared), "candidate edges share endpoints")
    m = Matching(candidate)
    violations = _certificate_violations(adjacency, vertices, _NO_SUPPORT, pinned, m, ("i", "ii"))
    first = next(violations, None)
    if first is None:
        return CertifyingMatching(m, _report(_DEGREE_TWO_IDS, ()))
    if first.condition == "maximal":
        return Refutation(
            REASON_NOT_MAXIMAL, (), f"candidate matching of {len(m)} edges is not maximal"
        )
    reason = REASON_CONDITION_I if first.condition == "i" else REASON_CONDITION_II
    return Refutation(reason, first.vertices, first.message)


def recognize(g: Graph) -> RecognitionOutcome:
    """Decide a minimum-degree-two graph component by component.

    The verdict is the conjunction over components; equality of the two
    invariants is additive across components, so one failing component
    sinks the whole graph.  Components whose own minimum degree exceeds two
    are refuted directly (no leafless graph of minimum degree three or more
    reaches equality).  Within a component the checks run in order: triangle
    book, six-cycle, then the candidate matching with its two conditions;
    refutations name the first failed check.  Every check reads only the
    component's own vertices and their adjacency in ``g``.
    """
    _require_degree_two(g)
    adjacency = g._adjacency
    outcomes: list[ComponentOutcome] = []
    for component in connected_components(g):
        vertices = tuple(sorted(component))
        certificate = _component_certificate(adjacency, vertices)
        verdict = not isinstance(certificate, Refutation)
        outcomes.append(ComponentOutcome(vertices, verdict, certificate))
    return RecognitionOutcome(all(o.verdict for o in outcomes), tuple(outcomes))
