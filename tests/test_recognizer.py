import hashlib
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
    min_degree,
    minimum_maximal_matching,
    random_tight_graph,
    recognize,
    support_classification,
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
        adjacency, characterization._pinned_pairs(adjacency, vertices)
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
LEAFLESS = helpers.BENCH_SCALE_LEAFLESS_PARAMS


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
            for m in helpers.maximal_matchings_by_size(g):
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


def test_violation_messages_do_not_depend_on_vertex_ids():
    # Each condition has one fixed message: the ids a violation concerns are in
    # its vertices and edges, which callers show in their own labels.
    def messages(g, m):
        adjacency, vertices = g._adjacency, g.vertices()
        violations = characterization._certificate_violations(
            adjacency,
            vertices,
            support_classification(g),
            characterization._pinned_pairs(adjacency, vertices),
            m,
        )
        return sorted((v.condition, v.message) for v in violations)

    by_condition = {}
    matchings = 0
    for n in range(1, 7):
        for g in connected_catalog(n):
            reverse = list(range(n))[::-1]
            mirror = helpers.relabel(g, reverse)
            for m in helpers.maximal_matchings_by_size(g):
                matchings += 1
                found = messages(g, m)
                assert messages(mirror, Matching((reverse[u], reverse[v]) for u, v in m)) == found
                for condition, message in found:
                    by_condition.setdefault(condition, set()).add(message)
    assert matchings == 1166
    assert set(by_condition) == {"i", "ii", "iii", "iv"}
    assert all(len(texts) == 1 for texts in by_condition.values())


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
        for m in helpers.maximal_matchings_by_size(g)
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
        "the first vertex must see exactly its partner among matched vertices; it sees the rest"
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


def bench_scale_outcome_text(outcome):
    """Verdict, then per component its certificate kind and what it names:
    pages, certifying edges, or a refutation's reason and vertices."""
    lines = [str(outcome.verdict)]
    for component in outcome.components:
        cert = component.certificate
        if isinstance(cert, ExceptionalBook):
            body = str(cert.pages)
        elif isinstance(cert, CertifyingMatching):
            body = " ".join(f"{e.u}-{e.v}" for e in cert.matching)
        elif isinstance(cert, Refutation):
            body = f"{cert.reason} {list(cert.vertices)}"
        else:
            body = ""
        lines.append(f"{len(component.vertices)} {component.verdict} {type(cert).__name__} {body}")
    return "\n".join(lines)


def test_recognize_outcomes_at_bench_scale():
    # The benchmark's recognize-leafless pool, 42 to 5,002 vertices, with its
    # ids: the pairwise-definition tests stop at a few hundred vertices, and
    # these digests pin every verdict and certificate there.
    digests = {}
    kinds = set()
    for spec in helpers.BENCH_SCALE_LEAFLESS:
        outcome = recognize(helpers.bench_scale_leafless_graph(spec))
        text = bench_scale_outcome_text(outcome)
        digests[spec] = hashlib.sha256(text.encode()).hexdigest()
        kinds.update(type(cert).__name__ for cert in outcome.certificates)
    assert digests == {
        "tight:14": "840e292d19aa77f50cfcc02b752aba2be59d2dbe5634edc4e853848f10a8f459",
        "tight:37": "d0db7ba26536f6a9b718cf49ffef24554333d3116bfd0a39277d8136fd1027bb",
        "tight:1": "d8294baf2315b70a238b606e81700286d1a19a11abfc55037b50d1f885e1c73f",
        "tight:18": "70d72a203ca0d5286c7f335c82336a4ad5efcb9dbcd9507bd8bc2485f4876ee3",
        "tight:4": "897dc8cd922f4af8fab721442adf730630de76d354b2de32c567371391656900",
        "tight:13": "4c08748db8ce75fb520f569eb25f2ba0b04850106ff2406f26b941a0df8ff2b0",
        "tight:36": "3b03162b1c2b5043b542b8caf0b9419dff75cb29fe1561b2929f78774d9eb62f",
        "tight:11": "77434a96cffed263bc69108864167d8e12e7144cae07957397a1c6ae4c765cac",
        "grid:10": "01c1b0c20d708d1f013dd43fd8e2a4098dadd5982e918b5320278009a74476d7",
        "grid:15": "a8d3fd76d76791f4a990078391067e8be58f6981ce23832139e88d34599a16b0",
        "grid:25": "cc7810ccf17027de0bdaba892b05b81b09615a4cd5ddb8fc0110ad306aacd8ac",
        "grid:40": "792b940b3dd971a1d88bc978aae031d604823c85b47452ed8ed74d5cd1e4fa98",
        "grid:60": "ece3cb5d269f3866e14f16479130e0a464635cb854d3054b6ea066d93b206a48",
        "cycle:60": "8114b8dfb97d8f615a34977d643e0cdbeb5e8cfce381a072d19404b49bf33eb1",
        "cycle:75": "5c465a3582bcba4bfcf4cbc2472ef5d6d15f18dec220483468ee4a3274dc396e",
        "cycle:85": "3e335bd611f0abc7a22790dd0106056bf8ac065500ce2dd40e1d5d27d7bf706e",
        "cycle:100": "3aedeba99a4706e6864949c3d232a77ba5a5f2de005b7012c5483325979b1cf1",
        "cycle:140": "0b36270b8196f1e1364c5eb146034103dfbd4c24f326dfa4e223183da9ba2b5e",
        "cycle:150": "8ac59f1c5e304ec2d20bbef81b9b3ffe7e9723571524121d37192f136d50845e",
        "book:1000": "21b86a36c631efbbdd404c27fdb30408888b8abec411cab53cf8c8f02d523da0",
        "book:2000": "f6f5ceb64176858dc80f5795ca7241d78f9db335fc3f3356b46a54b02dc36057",
        "book:3000": "31b045e6eee81f05bf40e5768f304be0a25283ee8facd261a253a3c218577b8e",
        "book:4000": "983668020fbdb3f1dde7361b6d2e6c95d713ecf1fd5a8bee29d2104e85a5e921",
        "book:5000": "b8a5c3d9a136fcfbc9e7fe041183ec40beeb0f1b5dbb102a838951afab3705a9",
        "union:tight:1+grid:15+book:500": "08d08071cfdddaa0bd5c9c5e4e46e6dd6a47f3ca015beca17ebef822c0394245",
        "union:grid:12+cycle:60": "5c28ce1f2f738aa936569b836786006e570b91583934a887ca268994f2f590d8",
        "union:cycle:6+grid:25+tight:14": "d1495dfc83211e05620576c4e42ed0a952062f9102ab33955ab7221ae62657ff",
        "union:book:50+grid:8+cycle:7": "18d469cb756ab3f3174d3055ef2f39d6cfad0e2ce49546bb6896ab410d917ec1",
    }
    assert kinds == {"CertifyingMatching", "ExceptionalBook", "ExceptionalSixCycle", "Refutation"}
