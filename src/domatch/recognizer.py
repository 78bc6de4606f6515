"""Polynomial-time recognition for minimum degree two.

Leafless graphs with total domination number equal to twice the minimum
maximal matching number are exactly the triangle books, the six-cycle, and
the graphs whose induced-six-cycle middle edges form a maximal matching
satisfying two local conditions.  The recognizer detects the exceptional
graphs directly, builds the candidate matching from degree-two vertex
pairs, and reports a checkable certificate or a reasoned refutation.

A leafless graph has no support vertices, so its two conditions are the
leafy conditions (iii)/(iv) of :mod:`domatch.characterization` taken over
the matched vertices; both checkers run the same condition engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .characterization import ConditionReport, Violation, _check_local_conditions
from .errors import DomainError
from .graph import (
    Edge,
    Graph,
    connected_components,
    degree_two_vertices,
    induced_subgraph,
    is_connected,
    is_cycle_of_length,
    min_degree,
    triangle_book_parameter,
)
from .oracles import Matching, _validated_edges, is_matching, is_maximal_matching

#: Refutation reason codes, stable CLI vocabulary.
REASON_NOT_MATCHING = "m-not-matching"
REASON_NOT_MAXIMAL = "m-not-maximal"
REASON_CONDITION_I = "condition-i-violated"
REASON_CONDITION_II = "condition-ii-violated"
#: Extension for disconnected inputs: a component may have minimum degree
#: three or more even though the whole graph sits at two; no such component
#: can reach equality, so it is refuted outright.
REASON_MIN_DEGREE = "min-degree-above-two"


@dataclass(frozen=True)
class ExceptionalBook:
    """Triangle book: ``pages`` triangles sharing one common edge."""

    pages: int


@dataclass(frozen=True)
class ExceptionalSixCycle:
    """The six-cycle, certified by shape alone."""


@dataclass(frozen=True)
class CertifyingMatching:
    """Candidate matching that passed the degree-two conditions."""

    matching: Matching
    report: ConditionReport


@dataclass(frozen=True)
class Refutation:
    """Why a component fails, as the first unsatisfied check."""

    reason: str
    vertices: tuple[int, ...] = ()
    detail: str = ""


Certificate = Union[ExceptionalBook, ExceptionalSixCycle, CertifyingMatching, Refutation]


@dataclass(frozen=True)
class ComponentOutcome:
    """Verdict and certificate for one connected component."""

    vertices: tuple[int, ...]
    verdict: bool
    certificate: Certificate


@dataclass(frozen=True)
class RecognitionOutcome:
    """Conjunction of per-component verdicts with their certificates."""

    verdict: bool
    components: tuple[ComponentOutcome, ...] = field(default=())

    @property
    def certificates(self) -> tuple[Certificate, ...]:
        return tuple(c.certificate for c in self.components)


def build_candidate_matching(g: Graph) -> tuple[Edge, ...]:
    """Middle edges of induced six-cycles through degree-two vertex pairs.

    For every pair of degree-two vertices x, y whose closed neighborhoods
    union to six vertices inducing a six-cycle, x and y sit antipodally and
    the two cycle edges touching neither are collected.  The deduplicated,
    sorted union is returned; it need not be a matching.

    The graph must be connected and neither a triangle book nor the
    six-cycle (on those the construction is degenerate).
    """
    if not is_connected(g):
        raise DomainError("graph is not connected")
    if triangle_book_parameter(g) is not None:
        raise DomainError("triangle books are excluded from the candidate scan")
    if is_cycle_of_length(g, 6):
        raise DomainError("the six-cycle is excluded from the candidate scan")
    found: set[Edge] = set()
    d2 = sorted(degree_two_vertices(g))
    for i in range(len(d2)):
        for j in range(i + 1, len(d2)):
            x, y = d2[i], d2[j]
            around = g.neighbors(x) | g.neighbors(y) | {x, y}
            if len(around) != 6:
                continue
            sub, original = induced_subgraph(g, around)
            if not is_cycle_of_length(sub, 6):
                continue
            middle = [
                Edge.of(original[e.u], original[e.v])
                for e in sub.edges()
                if x not in (original[e.u], original[e.v])
                and y not in (original[e.u], original[e.v])
            ]
            assert len(middle) == 2, "antipodal pair must leave exactly two edges"
            found.update(middle)
    return tuple(sorted(found))


def check_degree_two_certificate(g: Graph, m: Matching) -> ConditionReport:
    """Evaluate the leafless-graph certificate conditions for a matching.

    Verdicts: ``maximal`` (no graph edge extends m), ``i`` (every matched
    vertex sees exactly its partner among matched vertices), ``ii`` (matched
    vertices u, v sharing a neighbor admit some vertex whose neighborhood is
    exactly the partner pair).  ``i``/``ii`` are the leafy conditions
    (iii)/(iv) evaluated over the matched vertices.  Requires minimum
    degree two.
    """
    delta = min_degree(g)
    if delta != 2:
        raise DomainError(f"minimum degree {delta}, expected exactly 2")
    _validated_edges(g, m)
    violations: list[Violation] = []

    verdict_maximal = True
    covered = m.covered
    for e in g.edges():
        if e.u not in covered and e.v not in covered:
            verdict_maximal = False
            violations.append(
                Violation(
                    "maximal",
                    (e.u, e.v),
                    (e,),
                    f"edge {e.u}-{e.v} could extend the matching",
                )
            )
            break

    verdict_i, verdict_ii = _check_local_conditions(
        g, m, sorted(covered), "i", "ii", violations
    )
    verdicts = {"maximal": verdict_maximal, "i": verdict_i, "ii": verdict_ii}
    return ConditionReport(verdicts, tuple(violations))


def _component_outcome(g: Graph) -> ComponentOutcome:
    """Recognition for one connected, minimum-degree-two graph."""
    vertices = tuple(g.vertices())
    pages = triangle_book_parameter(g)
    if pages is not None:
        return ComponentOutcome(vertices, True, ExceptionalBook(pages))
    if is_cycle_of_length(g, 6):
        return ComponentOutcome(vertices, True, ExceptionalSixCycle())
    candidate = build_candidate_matching(g)
    if not is_matching(g, candidate):
        shared = sorted(
            v for v in {w for e in candidate for w in e}
            if sum(v in e for e in candidate) > 1
        )
        return ComponentOutcome(
            vertices,
            False,
            Refutation(
                REASON_NOT_MATCHING,
                tuple(shared),
                "candidate edges share endpoints",
            ),
        )
    m = Matching(candidate)
    if not is_maximal_matching(g, m.edges):
        return ComponentOutcome(
            vertices,
            False,
            Refutation(
                REASON_NOT_MAXIMAL,
                (),
                f"candidate matching of {len(m)} edges is not maximal",
            ),
        )
    report = check_degree_two_certificate(g, m)
    for condition, reason in (("i", REASON_CONDITION_I), ("ii", REASON_CONDITION_II)):
        if not report.verdicts[condition]:
            first = next(v for v in report.violations if v.condition == condition)
            return ComponentOutcome(
                vertices, False, Refutation(reason, first.vertices, first.message)
            )
    return ComponentOutcome(vertices, True, CertifyingMatching(m, report))


def _remap_certificate(cert: Certificate, original: tuple[int, ...]) -> Certificate:
    if isinstance(cert, CertifyingMatching):
        edges = [Edge.of(original[e.u], original[e.v]) for e in cert.matching]
        return CertifyingMatching(Matching(edges), cert.report)
    if isinstance(cert, Refutation):
        return Refutation(
            cert.reason, tuple(original[v] for v in cert.vertices), cert.detail
        )
    return cert


def recognize(g: Graph) -> RecognitionOutcome:
    """Decide a minimum-degree-two graph component by component.

    The verdict is the conjunction over components; equality of the two
    invariants is additive across components, so one failing component
    sinks the whole graph.  Components whose own minimum degree exceeds two
    are refuted directly (no leafless graph of minimum degree three or more
    reaches equality).  Within a component the checks run in order: triangle
    book, six-cycle, then the candidate matching with its two conditions;
    refutations name the first failed check.
    """
    delta = min_degree(g)
    if delta != 2:
        raise DomainError(f"minimum degree {delta}, expected exactly 2")
    outcomes: list[ComponentOutcome] = []
    for component in connected_components(g):
        sub, original = induced_subgraph(g, component)
        ids = tuple(original)
        if min_degree(sub) != 2:
            outcomes.append(
                ComponentOutcome(
                    ids,
                    False,
                    Refutation(
                        REASON_MIN_DEGREE,
                        (),
                        "component has minimum degree above two",
                    ),
                )
            )
            continue
        local = _component_outcome(sub)
        outcomes.append(
            ComponentOutcome(ids, local.verdict, _remap_certificate(local.certificate, ids))
        )
    return RecognitionOutcome(all(o.verdict for o in outcomes), tuple(outcomes))

