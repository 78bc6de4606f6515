import random
import re

import pytest

from domatch import (
    DomainError,
    check_certificate_conditions,
    Edge,
    Graph,
    Matching,
    TightGraphParams,
    check_degree_two_certificate,
    find_certifying_matching,
    connected_components,
    is_maximal_matching,
    is_tight_graph,
    iter_maximal_matchings,
    min_degree,
    minimum_maximal_matching,
    random_tight_graph,
    recognize,
    total_domination_number,
)
from domatch import characterization, recognizer
from domatch.generators import cycle, path, spider, subdivided_grid, triangle_book
from domatch.recognizer import (
    REASON_CONDITION_I,
    REASON_CONDITION_II,
    REASON_MIN_DEGREE,
    REASON_NOT_MATCHING,
    REASON_NOT_MAXIMAL,
    CertifyingMatching,
    ExceptionalBook,
    ExceptionalSixCycle,
    Refutation,
)

import helpers
from catalogs import connected_catalog


def candidate_edges(g):
    """The candidate scan that ``recognize`` runs, over the whole of ``g``."""
    adjacency, vertices = g._adjacency, g.vertices()
    found = recognizer._candidate_edges(
        adjacency, vertices, characterization._pinned_pairs(adjacency, vertices)
    )
    assert all(type(e) is Edge and e.u < e.v for e in found)
    assert list(found) == sorted(set(found))
    return found


def complete_graph(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def theta_graph():
    """Two degree-3 hubs joined by three paths of length three."""
    return Graph(
        8,
        [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)],
    )


def grid_with_chord():
    # a chord between adjacent rung tops; its hexagon pair drops out of the
    # scan but the neighboring hexagons still contribute all four rungs
    g = subdivided_grid(3)
    u1, u2 = g.vertex_with_label("u1"), g.vertex_with_label("u2")
    return Graph(g.vertex_count, list(g.edges()) + [(u1, u2)], labels=g.labels)


def cycle_ten_with_chords():
    # the candidate matching is maximal, but matched vertex 4 also sees the
    # matched vertex 8 across the chord 4-8
    ring = [(i, (i + 1) % 10) for i in range(10)]
    return Graph(10, ring + [(1, 6), (4, 8)])


#: Leafless draws of about a hundred to a few hundred vertices.
LEAFLESS = TightGraphParams(
    max_k2=40, max_a=20, mark_probability=0.0, extra_edge_probability=0.2, max_vertices=350
)


def grid_with_spoiled_witness():
    # an extra edge on b1 grows its neighborhood past {v1, v2}, which is the
    # only witness the matched pair (u1, u2) could have had
    g = subdivided_grid(3)
    b1, u3 = g.vertex_with_label("b1"), g.vertex_with_label("u3")
    return Graph(g.vertex_count, list(g.edges()) + [(b1, u3)], labels=g.labels)


# ---------------------------------------------------------------------------
# candidate matching construction


def test_candidate_matching_of_grids_is_the_rungs():
    assert candidate_edges(subdivided_grid(2)) == (
        Edge(0, 3),
        Edge(1, 4),
        Edge(2, 5),
    )
    assert candidate_edges(subdivided_grid(3)) == (
        Edge(0, 4),
        Edge(1, 5),
        Edge(2, 6),
        Edge(3, 7),
    )


def test_candidate_matching_empty_when_no_hexagons():
    assert candidate_edges(cycle(7)) == ()
    assert candidate_edges(cycle(8)) == ()
    assert candidate_edges(helpers.petersen_graph()) == ()


def test_candidate_matching_shares_endpoints_on_theta():
    candidate = candidate_edges(theta_graph())
    assert len(candidate) == 6
    endpoints = [w for e in candidate for w in e]
    assert len(set(endpoints)) < len(endpoints)


def test_candidate_matching_relabeling_invariance():
    base = subdivided_grid(2)
    expected = set(candidate_edges(base))
    rng = random.Random(99)
    for _ in range(8):
        perm = list(base.vertices())
        rng.shuffle(perm)
        permuted = helpers.relabel(base, perm)
        got = candidate_edges(permuted)
        mapped = {Edge.of(perm[e.u], perm[e.v]) for e in expected}
        assert set(got) == mapped


def test_candidate_matching_is_the_pairwise_definition_on_catalog():
    checked = 0
    for n in range(3, 9):
        for g in connected_catalog(n):
            if min_degree(g) != 2:
                continue
            assert candidate_edges(g) == helpers.pairwise_candidate_matching(g)
            checked += 1
    assert checked == 5263  # triangle books and the six-cycle included


def test_candidate_matching_is_the_pairwise_definition_on_tight_graphs():
    rng = random.Random(4242)
    checked = hits = 0
    leafless = TightGraphParams(
        max_k2=20, max_a=10, mark_probability=0.0, extra_edge_probability=0.2, max_vertices=120
    )
    for params in (leafless, TightGraphParams(max_k2=12, max_a=6, max_vertices=60)):
        for seed in range(12):
            g, _ = random_tight_graph(seed, params)
            perm = list(g.vertices())
            rng.shuffle(perm)
            for h in (g, helpers.relabel(g, perm)):
                got = candidate_edges(h)
                assert got == helpers.pairwise_candidate_matching(h)
                checked += 1
                hits += bool(got)
    assert checked >= 30 and hits >= 20


# ---------------------------------------------------------------------------
# the leafless certificate checker


def test_degree_two_certificate_holds_for_grid_rungs():
    g = subdivided_grid(2)
    report = check_degree_two_certificate(g, Matching([(0, 3), (1, 4), (2, 5)]))
    assert report.holds
    assert report.verdicts == {"maximal": True, "i": True, "ii": True}


def test_degree_two_certificate_holds_for_hexagon_pair():
    report = check_degree_two_certificate(cycle(6), Matching([(0, 1), (3, 4)]))
    assert report.holds


def test_degree_two_certificate_flags_non_maximal():
    report = check_degree_two_certificate(cycle(6), Matching([(0, 1)]))
    assert not report.holds
    assert not report.verdicts["maximal"]
    violation = report.violations[0]
    assert violation.condition == "maximal"
    assert violation.edges == (Edge(2, 3),)


def test_degree_two_certificate_flags_second_matched_neighbor():
    report = check_degree_two_certificate(cycle(4), Matching([(0, 1), (2, 3)]))
    assert report.verdicts["maximal"]
    assert not report.verdicts["i"]
    assert any(v.condition == "i" and v.vertices[0] == 0 for v in report.violations)


def test_degree_two_certificate_flags_missing_witness():
    g = grid_with_spoiled_witness()
    rungs = Matching([(0, 4), (1, 5), (2, 6), (3, 7)])
    assert is_maximal_matching(g, rungs.edges)
    report = check_degree_two_certificate(g, rungs)
    assert report.verdicts["maximal"] and report.verdicts["i"]
    assert not report.verdicts["ii"]
    u1, u2 = g.vertex_with_label("u1"), g.vertex_with_label("u2")
    assert any(v.vertices == (u1, u2) for v in report.violations)


def test_degree_two_conditions_are_the_leafy_conditions_without_leaves():
    # With no support vertices the leafy pool S⁻ ∪ V(M*) is V(M), so (iii)/(iv)
    # must agree with the degree-two (i)/(ii) witness for witness.
    graphs = matchings = 0
    for n in range(3, 8):
        for g in connected_catalog(n):
            if min_degree(g) != 2:
                continue
            graphs += 1
            for m in iter_maximal_matchings(g):
                matchings += 1
                leafless = check_degree_two_certificate(g, m)
                leafy = check_certificate_conditions(g, m)
                for report in (leafless, leafy):
                    named = {v.condition for v in report.violations}
                    assert {c for c, ok in report.verdicts.items() if not ok} == named
                assert leafy.verdicts["i"] and leafy.verdicts["ii"]
                for short, long in (("i", "iii"), ("ii", "iv")):
                    assert leafless.verdicts[short] == leafy.verdicts[long]
                    assert [
                        (v.vertices, v.message)
                        for v in leafless.violations
                        if v.condition == short
                    ] == [
                        (v.vertices, v.message)
                        for v in leafy.violations
                        if v.condition == long
                    ]
    assert (graphs, matchings) == (410, 7299)


def test_degree_two_certificate_preconditions():
    with pytest.raises(DomainError, match="minimum degree 3, expected exactly 2"):
        check_degree_two_certificate(complete_graph(4), Matching([(0, 1), (2, 3)]))
    with pytest.raises(DomainError, match="is not an edge"):
        check_degree_two_certificate(cycle(6), Matching([(0, 2)]))


# ---------------------------------------------------------------------------
# single-component recognition


def test_recognize_component_six_cycle():
    outcome = recognize(cycle(6))
    assert outcome.verdict
    assert outcome.certificates == (ExceptionalSixCycle(),)


def test_recognize_component_books():
    for n in (1, 2, 3):
        outcome = recognize(triangle_book(n))
        assert outcome.verdict
        assert outcome.certificates == (ExceptionalBook(pages=n),)


def test_recognize_component_grids():
    for n in (2, 3):
        outcome = recognize(subdivided_grid(n))
        (certificate,) = outcome.certificates
        assert outcome.verdict
        assert isinstance(certificate, CertifyingMatching)
        assert certificate.matching == Matching(
            (i, n + 1 + i) for i in range(n + 1)
        )
        assert certificate.report.holds


def test_recognize_component_refutes_empty_candidate():
    outcome = recognize(cycle(7))
    (refutation,) = outcome.certificates
    assert not outcome.verdict
    assert refutation.reason == REASON_NOT_MAXIMAL
    assert refutation.detail == "candidate matching of 0 edges is not maximal"
    for n in (4, 5, 8, 9, 10):
        assert recognize(cycle(n)).certificates[0].reason == REASON_NOT_MAXIMAL


def test_recognize_component_refutes_overlapping_candidate():
    outcome = recognize(theta_graph())
    (refutation,) = outcome.certificates
    assert not outcome.verdict
    assert refutation.reason == REASON_NOT_MATCHING
    assert refutation.vertices == (0, 1)
    assert not is_tight_graph(theta_graph())


def test_recognize_component_refutes_condition_i():
    g = grid_with_chord()
    outcome = recognize(g)
    (refutation,) = outcome.certificates
    assert not outcome.verdict
    assert refutation.reason == REASON_CONDITION_I
    u1 = g.vertex_with_label("u1")
    assert u1 in refutation.vertices
    assert not is_tight_graph(g)


def test_recognize_component_refutes_condition_ii():
    g = grid_with_spoiled_witness()
    outcome = recognize(g)
    (refutation,) = outcome.certificates
    assert not outcome.verdict
    assert refutation.reason == REASON_CONDITION_II
    assert "neighborhood exactly" in refutation.detail
    assert not is_tight_graph(g)


def test_recognize_component_preconditions():
    with pytest.raises(DomainError):
        recognize(complete_graph(4))
    with pytest.raises(DomainError):
        recognize(spider(2))


# ---------------------------------------------------------------------------
# whole-graph recognition


def test_recognize_splits_components():
    g = helpers.disjoint_union(cycle(6), subdivided_grid(2))
    outcome = recognize(g)
    assert outcome.verdict
    assert len(outcome.components) == 2
    first, second = outcome.components
    assert first.certificate == ExceptionalSixCycle()
    assert first.vertices == tuple(range(6))
    assert isinstance(second.certificate, CertifyingMatching)
    # certificate edges are reported in whole-graph ids
    assert second.certificate.matching == Matching([(6, 9), (7, 10), (8, 11)])
    assert second.vertices == tuple(range(6, 16))


def test_recognize_splits_two_triangles_into_two_books():
    outcome = recognize(helpers.disjoint_union(cycle(3), cycle(3)))
    assert outcome.verdict
    assert outcome.certificates == (ExceptionalBook(1), ExceptionalBook(1))
    assert [c.vertices for c in outcome.components] == [(0, 1, 2), (3, 4, 5)]


def test_recognize_negative_component_wins():
    outcome = recognize(helpers.disjoint_union(cycle(6), cycle(4)))
    assert not outcome.verdict
    assert outcome.components[0].verdict
    assert not outcome.components[1].verdict


def test_recognize_single_triangle():
    outcome = recognize(cycle(3))
    assert outcome.verdict
    assert outcome.certificates == (ExceptionalBook(pages=1),)


def test_recognize_requires_global_min_degree_two():
    with pytest.raises(DomainError):
        recognize(spider(2))
    with pytest.raises(DomainError):
        recognize(complete_graph(4))


def test_recognize_refutes_high_degree_component():
    g = helpers.disjoint_union(cycle(6), complete_graph(4))
    outcome = recognize(g)
    assert not outcome.verdict
    refutation = outcome.components[1].certificate
    assert isinstance(refutation, Refutation)
    assert refutation.reason == REASON_MIN_DEGREE


# ---------------------------------------------------------------------------
# supporting checks


def test_girth_bound_check():
    assert helpers.girth_bound_check(triangle_book(2))
    assert helpers.girth_bound_check(cycle(6))
    assert helpers.girth_bound_check(subdivided_grid(3))
    assert not helpers.girth_bound_check(cycle(7))
    assert not helpers.girth_bound_check(path(5))


def test_certifying_matching_is_unique_on_grid():
    g = subdivided_grid(2)
    passing = [
        m
        for m in iter_maximal_matchings(g)
        if check_degree_two_certificate(g, m).holds
    ]
    assert passing == [Matching([(0, 3), (1, 4), (2, 5)])]


def test_certifying_matching_is_minimum():
    for n in (2, 3):
        g = subdivided_grid(n)
        (certificate,) = recognize(g).certificates
        assert len(certificate.matching) == minimum_maximal_matching(g).value
        assert 2 * len(certificate.matching) == total_domination_number(g).value


def test_recognizer_agrees_with_oracle_on_small_catalog():
    checked = 0
    refuted = {"i": 0, "ii": 0}
    for n in range(3, 9):
        for g in connected_catalog(n):
            if min_degree(g) != 2:
                continue
            checked += 1
            found = find_certifying_matching(g) is not None
            outcome = recognize(g)
            assert outcome.verdict == is_tight_graph(g) == found
            refutation = outcome.certificates[0]
            condition = {REASON_CONDITION_I: "i", REASON_CONDITION_II: "ii"}.get(
                refutation.reason if isinstance(refutation, Refutation) else None
            )
            if condition is not None:
                # the refutation is the first violation of the failed condition
                report = check_degree_two_certificate(g, Matching(candidate_edges(g)))
                first = next(v for v in report.violations if v.condition == condition)
                assert (refutation.vertices, refutation.detail) == (first.vertices, first.message)
                refuted[condition] += 1
    assert checked == 5263
    assert refuted == {"i": 0, "ii": 19}


def test_recognizer_agrees_with_oracle_on_subdivided_petersen():
    # one degree-two vertex only, so the candidate scan comes up empty
    g = helpers.petersen_subdivided()
    outcome = recognize(g)
    assert outcome.certificates[0].reason == REASON_NOT_MAXIMAL
    assert outcome.verdict == is_tight_graph(g) == False  # noqa: E712


# ---------------------------------------------------------------------------
# ids in refutations of later components


def _shifted_numbers(text, shift):
    return re.sub(r"\d+", lambda hit: str(int(hit.group()) + shift), text)


def test_refutation_detail_names_input_ids():
    g = helpers.disjoint_union(cycle(6), cycle_ten_with_chords())
    first, second = recognize(g).components
    assert first.certificate == ExceptionalSixCycle()
    refutation = second.certificate
    assert refutation.reason == REASON_CONDITION_I
    assert refutation.vertices == (10, 9, 14)
    assert refutation.detail == (
        "vertex 10 must see exactly its partner 9 among matched vertices"
    )
    named = {int(token) for token in re.findall(r"\d+", refutation.detail)}
    assert named <= set(refutation.vertices)


def test_refutations_of_later_components_shift_with_their_ids():
    for alone in (cycle_ten_with_chords(), grid_with_spoiled_witness(), theta_graph()):
        (expected,) = recognize(alone).certificates
        shifted = recognize(helpers.disjoint_union(cycle(6), alone)).certificates[1]
        assert shifted == Refutation(
            expected.reason,
            tuple(v + 6 for v in expected.vertices),
            _shifted_numbers(expected.detail, 6),
        )


# ---------------------------------------------------------------------------
# scale: no graph is built while recognizing


def recognize_building_no_graph(g, monkeypatch):
    """``recognize(g)``, asserting that it constructs no :class:`Graph`."""
    built = []
    original = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Graph, "__init__", counting)
        outcome = recognize(g)
    assert built == []
    return outcome


def test_large_grid_is_accepted_with_its_rungs(monkeypatch):
    n = 5000
    g = subdivided_grid(n)
    assert g.vertex_count == 20002
    outcome = recognize_building_no_graph(g, monkeypatch)
    (certificate,) = outcome.certificates
    assert outcome.verdict
    assert certificate.matching == Matching((i, n + 1 + i) for i in range(n + 1))


def test_long_cycle_is_refuted_as_not_maximal(monkeypatch):
    outcome = recognize_building_no_graph(cycle(2000), monkeypatch)
    (refutation,) = outcome.certificates
    assert not outcome.verdict
    assert refutation.reason == REASON_NOT_MAXIMAL


def test_large_leafless_tight_graph_is_accepted(monkeypatch):
    g, embedded = random_tight_graph(4, LEAFLESS)
    assert g.vertex_count >= 150 and len(connected_components(g)) == 1
    outcome = recognize_building_no_graph(g, monkeypatch)
    (certificate,) = outcome.certificates
    assert outcome.verdict
    # the degree-two certificate is unique, so it is the embedded matching
    assert certificate.matching == embedded
    perm = list(g.vertices())
    random.Random(4).shuffle(perm)
    (moved,) = recognize(helpers.relabel(g, perm)).certificates
    assert moved.matching == Matching((perm[e.u], perm[e.v]) for e in embedded)


def test_large_union_is_the_and_of_its_parts(monkeypatch):
    tight, _ = random_tight_graph(4, LEAFLESS)
    parts = [subdivided_grid(5000), tight, cycle(2000)]
    for count in (2, 3):
        g = parts[0]
        for part in parts[1:count]:
            g = helpers.disjoint_union(g, part)
        outcome = recognize_building_no_graph(g, monkeypatch)
        verdicts = [recognize(part).verdict for part in parts[:count]]
        assert [c.verdict for c in outcome.components] == verdicts
        assert outcome.verdict == all(verdicts) == (count == 2)
