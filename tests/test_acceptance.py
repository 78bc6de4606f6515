"""End-to-end checks for the guarantees the package ships with.

One test per guarantee, each readable as a single ``pytest -v`` line.  The
pools are seeded, so every run exercises the same graphs.
"""

import random
import time
from math import comb

import pytest

from domatch import (
    TightGraphParams,
    check_certificate_conditions,
    check_degree_two_certificate,
    check_matching_bound,
    connected_components,
    find_certifying_matching,
    is_tight_graph,
    min_degree,
    minimum_maximal_matching,
    random_tight_graph,
    recognize,
    serialize_edge_list,
    total_domination_number,
)
from domatch.cli import main
from domatch.generators import (
    cycle,
    high_degree_extremal,
    spider,
    subdivided_grid,
    triangle_book,
)
from domatch.recognizer import CertifyingMatching

import helpers
from catalogs import CONNECTED_COUNTS, connected_catalog


@pytest.fixture(scope="module")
def degree_two_pool():
    """Connected minimum-degree-two graphs: 520 random plus the fixtures."""
    rng = random.Random(20260819)
    pool = [
        (f"random-{i}", helpers.random_min_degree_two_graph(rng))
        for i in range(420)
    ]
    leafless = TightGraphParams(mark_probability=0.0)
    kept, seed = 0, 0
    while kept < 100:
        seed += 1
        assert seed < 2000, "sampler stopped producing usable draws"
        g, _ = random_tight_graph(seed, leafless)
        if len(connected_components(g)) == 1 and 6 <= g.vertex_count <= 13:
            pool.append((f"tight-{seed}", g))
            kept += 1
    pool += [(f"cycle-{n}", cycle(n)) for n in range(3, 11)]
    pool += [(f"book-{n}", triangle_book(n)) for n in range(1, 5)]
    pool += [(f"grid-{n}", subdivided_grid(n)) for n in range(1, 4)]
    pool.append(("petersen-subdivided", helpers.petersen_subdivided()))
    return pool


@pytest.fixture(scope="module")
def degree_two_results(degree_two_pool):
    start = time.perf_counter()
    results = [
        (name, g, recognize(g), is_tight_graph(g)) for name, g in degree_two_pool
    ]
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def family_draws():
    return [(seed, *random_tight_graph(seed)) for seed in range(1, 101)]


def test_criterion_1_figure_families_have_exact_values():
    start = time.perf_counter()
    for n in range(1, 6):
        g = spider(n)
        assert total_domination_number(g).value == 2 * n
        assert minimum_maximal_matching(g).value == n
    for n in range(1, 5):
        g = subdivided_grid(n)
        assert total_domination_number(g).value == 2 * n + 2
        assert minimum_maximal_matching(g).value == n + 1
    assert time.perf_counter() - start < 10.0


def test_criterion_2_bound_holds_on_every_small_connected_graph():
    checked, violations = 0, []
    for n in range(2, 9):
        graphs = connected_catalog(n)
        assert len(graphs) == CONNECTED_COUNTS[n]
        for g in graphs:
            report = check_matching_bound(g)
            low = report.min_degree <= 2
            assert report.bound == (
                2 * report.mu_star if low else 2 * report.mu_star - report.min_degree + 2
            )
            if not report.holds:
                violations.append((n, tuple(g.edges())))
            checked += 1
    assert checked == 12112
    assert violations == []


def test_criterion_3_extremal_graph_attains_the_bound():
    g = high_degree_extremal(2, 3)
    gamma_t = total_domination_number(g).value
    mu_star = minimum_maximal_matching(g).value
    delta = min_degree(g)
    assert (gamma_t, mu_star, delta) == (3, 2, 3)
    assert gamma_t == 2 * mu_star - delta + 2
    assert all(g.degree(v) == comb(3, 2) + 1 for v in range(4))
    assert all(g.degree(v) == 3 for v in range(4, 8))


def test_criterion_4_recognizer_agrees_with_solvers(degree_two_results):
    results, elapsed = degree_two_results
    random_count = sum(
        1 for name, *_ in results if name.startswith(("random-", "tight-"))
    )
    assert random_count >= 500
    disagreements = [
        name for name, _, outcome, oracle in results if outcome.verdict != oracle
    ]
    assert disagreements == []
    assert elapsed < 300.0


def test_criterion_5_certifying_matching_found_exactly_for_tight_graphs():
    rng = random.Random(8190826)
    pool = [helpers.random_low_degree_graph(rng) for _ in range(120)]
    pool += [helpers.random_min_degree_two_graph(rng, lo=6, hi=11) for _ in range(80)]
    small = TightGraphParams(max_vertices=11)
    kept, seed = 0, 0
    while kept < 40:
        seed += 1
        assert seed < 2000, "sampler stopped producing usable draws"
        g, _ = random_tight_graph(seed, small)
        if len(connected_components(g)) == 1:
            pool.append(g)
            kept += 1
    assert len(pool) >= 200
    for g in pool:
        found = find_certifying_matching(g)
        assert (found is not None) == is_tight_graph(g)
        if found is not None:
            assert len(found.matching) == minimum_maximal_matching(g).value
            assert found.report.holds
            assert check_certificate_conditions(g, found.matching).holds


def test_criterion_6_family_draws_are_certified_tight(family_draws):
    assert len(family_draws) == 100
    for seed, g, m in family_draws:
        assert g.vertex_count <= 16, seed
        assert check_certificate_conditions(g, m).holds, seed
        assert is_tight_graph(g), seed


def test_criterion_7_degree_two_certificate_is_unique(degree_two_results):
    results, _ = degree_two_results
    exercised = 0
    for name, g, outcome, _ in results:
        if not outcome.verdict:
            continue
        (component,) = outcome.components
        certificate = component.certificate
        if not isinstance(certificate, CertifyingMatching):
            continue
        passing = [
            m
            for m in helpers.maximal_matchings_by_size(g)
            if check_degree_two_certificate(g, m).holds
        ]
        assert passing == [certificate.matching], name
        exercised += 1
    assert exercised >= 40


def test_criterion_8_tight_degree_two_graphs_have_girth_at_most_six(
    degree_two_results, family_draws
):
    results, _ = degree_two_results
    checked = 0
    for name, g, outcome, _ in results:
        if outcome.verdict:
            assert helpers.girth_bound_check(g), name
            checked += 1
    for seed, g, _ in family_draws:
        if min_degree(g) == 2:
            assert helpers.girth_bound_check(g), seed
            checked += 1
    assert checked > 0


def test_criterion_9_cli_fixture_verdicts(tmp_path, capsys):
    def graph_file(g, name):
        target = tmp_path / name
        target.write_text(serialize_edge_list(g))
        return str(target)

    c4 = graph_file(cycle(4), "c4.txt")
    c6 = graph_file(cycle(6), "c6.txt")
    c7 = graph_file(cycle(7), "c7.txt")

    assert main(["recognize", c4]) == 1
    assert main(["recognize", c7]) == 1
    capsys.readouterr()
    assert main(["recognize", c6, "--machine"]) == 0
    assert "certificate: six-cycle" in capsys.readouterr().out

    for path, gamma_t, mu_star in ((c4, 2, 2), (c6, 4, 2), (c7, 4, 3)):
        assert main(["gamma-t", path]) == 0
        assert f"gamma_t = {gamma_t}" in capsys.readouterr().out
        assert main(["mu-star", path]) == 0
        assert f"mu_star = {mu_star}" in capsys.readouterr().out
