import contextlib
import hashlib
import io
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from domatch import Graph, parse_edge_list, serialize_edge_list
from domatch.cli import _FAMILIES, MAX_VERTICES_ENV, main
from domatch.generators import cycle, spider, subdivided_grid, triangle_book
from domatch.oracles import DEFAULT_MAX_VERTICES

import helpers


def write_graph(tmp_path, g, name="graph.txt"):
    target = tmp_path / name
    target.write_text(serialize_edge_list(g))
    return str(target)


def write_text(tmp_path, text, name):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def k4():
    return Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)],
                 labels=("a", "b", "c", "d"))


def matching_forest(pairs):
    return Graph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


# ---------------------------------------------------------------------------
# exact values


def test_gamma_t_reports_value_and_witness(tmp_path, capsys):
    rc = main(["gamma-t", write_graph(tmp_path, spider(3))])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "gamma_t = 6"
    assert out[1].startswith("witness: ") and len(out[1].split()) == 7


def test_mu_star_reports_value_and_witness(tmp_path, capsys):
    rc = main(["mu-star", write_graph(tmp_path, cycle(4))])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "mu_star = 2"
    assert out[1].count(",") == 1


def test_gamma_t_rejects_isolated_vertex(tmp_path, capsys):
    path = write_text(tmp_path, "vertices: a b c\na b\n", "isolated.txt")
    rc = main(["gamma-t", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "isolated vertex: gamma_t undefined" in captured.err


def test_non_utf8_graph_file_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff b\n")
    rc = main(["gamma-t", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "is not UTF-8 text" in captured.err


def test_non_utf8_matching_file_is_a_format_error(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    bad = tmp_path / "m.txt"
    bad.write_bytes(b"x1 y1\n\xfe\n")
    rc = main(["verify", graph, str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "is not UTF-8 text" in captured.err


@pytest.mark.parametrize("text", ["a b\nb c\nc a\n", "vertices: a b c\na b\nb c\nc a\n"])
def test_graph_file_with_byte_order_mark_reads_as_without(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    results = []
    for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
        path.write_bytes(data)
        rc = main(["gamma-t", str(path), "--machine"])
        results.append((rc, capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 0 and "vertices: 3\n" in results[0][1].out


def test_matching_file_with_byte_order_mark_verifies(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    matching = tmp_path / "m.txt"
    matching.write_bytes(b"\xef\xbb\xbfx1 y1\nx2 y2\n")
    assert main(["verify", graph, str(matching)]) == 0
    assert "verdict: certificate holds" in capsys.readouterr().out


def test_missing_graph_file(tmp_path, capsys):
    rc = main(["gamma-t", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gamma-t", "verify"])
def test_file_name_with_nul_is_an_error(tmp_path, capsys, command):
    # open() refuses a NUL in a file name with ValueError, not OSError: the
    # graph operand of gamma-t, the matching operand of verify
    argv = [command, "a\x00b"]
    if command == "verify":
        argv.insert(1, write_graph(tmp_path, spider(2)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'a\\x00b' is not a file name: embedded null byte\n"


# ---------------------------------------------------------------------------
# recognize


def test_recognize_accepts_grid(tmp_path, capsys):
    rc = main(["recognize", write_graph(tmp_path, subdivided_grid(2))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "component 1 (10 vertices): yes - certifying matching: u0 v0, u1 v1, u2 v2" in out
    assert "verdict: yes" in out


def test_recognize_rejects_seven_cycle(tmp_path, capsys):
    rc = main(["recognize", write_graph(tmp_path, cycle(7))])
    out = capsys.readouterr().out
    assert rc == 1
    assert "no - m-not-maximal" in out
    assert "verdict: no" in out


def test_recognize_accepts_triangle(tmp_path, capsys):
    rc = main(["recognize", write_graph(tmp_path, cycle(3))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "yes - triangle book (1 page)" in out


def test_recognize_rejects_min_degree_three(tmp_path, capsys):
    rc = main(["recognize", write_graph(tmp_path, helpers.petersen_graph())])
    captured = capsys.readouterr()
    assert rc == 2
    assert "minimum degree 3, expected exactly 2" in captured.err
    assert "gamma-t" in captured.err  # the hint names the exact solvers


#: The error line and hint ``recognize`` prints for a graph outside minimum degree two.
MIN_DEGREE_THREE_ERROR = (
    "error: minimum degree 3, expected exactly 2\n"
    "hint: recognition covers minimum degree two only; use gamma-t and mu-star for exact"
    " values, or verify with a candidate matching\n"
)


@pytest.mark.parametrize("flags", [[], ["--machine"]])
def test_recognize_min_degree_error_is_byte_stable(tmp_path, capsys, flags):
    rc = main(["recognize", write_graph(tmp_path, helpers.petersen_graph()), *flags])
    assert rc == 2
    assert capsys.readouterr() == ("", MIN_DEGREE_THREE_ERROR)


@pytest.mark.parametrize("flags", [[], ["--machine"]])
def test_recognize_oracle_disagreement_is_an_error(tmp_path, capsys, monkeypatch, flags):
    import domatch.cli as cli

    monkeypatch.setattr(cli, "is_tight_graph", lambda g, max_vertices=None: False)
    rc = main(["recognize", write_graph(tmp_path, subdivided_grid(2)), "--oracle", *flags])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: recognizer and oracle disagree\n")


def test_recognize_oracle_crosscheck(tmp_path, capsys):
    rc = main(["recognize", write_graph(tmp_path, subdivided_grid(2)), "--oracle"])
    assert rc == 0
    assert "oracle: agrees" in capsys.readouterr().out
    rc = main(["recognize", write_graph(tmp_path, cycle(7)), "--oracle"])
    assert rc == 1
    assert "oracle: agrees" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify


def test_verify_grid_rungs_holds(tmp_path, capsys):
    graph = write_graph(tmp_path, subdivided_grid(2))
    matching = write_text(tmp_path, "u0 v0\nu1 v1\nu2 v2\n", "m.txt")
    rc = main(["verify", graph, matching])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: certificate holds" in out
    assert "condition maximal: ok" in out


def test_verify_perfect_matching_fails(tmp_path, capsys):
    graph = write_graph(tmp_path, cycle(4))
    matching = write_text(tmp_path, "v0 v1\nv2 v3\n", "m.txt")
    rc = main(["verify", graph, matching])
    out = capsys.readouterr().out
    assert rc == 1
    assert "condition i: violated" in out
    assert "verdict: certificate fails" in out


def test_verify_spider_legs_holds(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    matching = write_text(tmp_path, "x1 y1\nx2 y2\n", "m.txt")
    rc = main(["verify", graph, matching])
    out = capsys.readouterr().out
    assert rc == 0
    assert "m_plus: none" in out
    assert "m_minus: x1 y1, x2 y2" in out
    assert "verdict: certificate holds" in out


def test_verify_skips_blank_and_comment_lines_of_a_matching_file(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    text = "# the two legs\n\nx1 y1\n   \n  # then the second\nx2 y2\n"
    matching = write_text(tmp_path, text, "m.txt")
    assert main(["verify", graph, matching]) == 0
    assert "verdict: certificate holds" in capsys.readouterr().out


def test_verify_rejects_a_matching_line_of_three_labels(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    matching = write_text(tmp_path, "x1 y1 z1\n", "m.txt")
    assert main(["verify", graph, matching]) == 2
    assert capsys.readouterr().err == "error: line 1: expected two labels, got 3\n"


def test_verify_rejects_non_edge(tmp_path, capsys):
    graph = write_graph(tmp_path, subdivided_grid(2))
    matching = write_text(tmp_path, "u0 v1\n", "m.txt")
    rc = main(["verify", graph, matching])
    assert rc == 2
    assert "is not an edge of the graph" in capsys.readouterr().err


def test_verify_names_the_line_of_an_unknown_label(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    matching = write_text(tmp_path, "x1 y1\nx2 nope\n", "m.txt")
    rc = main(["verify", graph, matching])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 2: unknown vertex label 'nope'\n"


def test_verify_flags_non_maximal(tmp_path, capsys):
    graph = write_graph(tmp_path, spider(2))
    matching = write_text(tmp_path, "x1 y1\n", "m.txt")
    rc = main(["verify", graph, matching])
    out = capsys.readouterr().out
    assert rc == 1
    assert "condition maximal: violated" in out
    assert "verdict: certificate fails" in out


def test_verify_names_the_extending_edge_once(tmp_path, capsys):
    graph = write_graph(tmp_path, cycle(4))
    matching = write_text(tmp_path, "v0 v1\n", "m.txt")
    assert main(["verify", graph, matching, "--machine"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("violation_")] == [
        "violation_maximal: v2 v3"
    ]


def test_verify_checks_maximality_and_classifies_supports_once(tmp_path, capsys, monkeypatch):
    import domatch.characterization as characterization
    import domatch.cli as cli

    calls = {"_extending_edge": 0, "support_classification": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (cli, characterization):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    graph = write_graph(tmp_path, spider(2))
    matching = write_text(tmp_path, "x1 y1\nx2 y2\n", "m.txt")
    assert main(["verify", graph, matching, "--machine"]) == 0
    assert "verdict: holds" in capsys.readouterr().out
    assert calls == {"_extending_edge": 1, "support_classification": 1}


def test_verify_flags_endpoint_overlap(tmp_path, capsys):
    graph = write_graph(tmp_path, subdivided_grid(2))
    matching = write_text(tmp_path, "u0 v0\nv0 b0\n", "m.txt")
    rc = main(["verify", graph, matching])
    out = capsys.readouterr().out
    assert rc == 1
    assert "matching: no (edges share an endpoint)" in out


# ---------------------------------------------------------------------------
# bounds


def test_bounds_on_k4(tmp_path, capsys):
    rc = main(["bounds", write_graph(tmp_path, k4())])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == [
        "min_degree = 3",
        "gamma_t = 2",
        "mu_star = 2",
        "bound = 3",
        "slack = 1",
        "holds: yes",
    ]


# ---------------------------------------------------------------------------
# generate


def test_generate_spider_round_trips(capsys):
    rc = main(["generate", "spider", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    g = parse_edge_list(out)
    assert g.vertex_count == 7 and g.edge_count == 6


def test_generate_extremal_family(capsys):
    rc = main(["generate", "prop2", "2", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    g = parse_edge_list(out)
    assert g.vertex_count == 8 and g.edge_count == 14


def test_generate_family_f_is_seeded(capsys):
    rc = main(["generate", "family-f", "--seed", "7"])
    first = capsys.readouterr().out
    assert rc == 0
    main(["generate", "family-f", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("# certifying matching:")
    assert parse_edge_list(first).vertex_count <= 16


def test_generate_rejects_misuse(capsys):
    assert main(["generate", "spider", "2", "--seed", "1"]) == 2
    assert "only applies to family-f" in capsys.readouterr().err
    assert main(["generate", "spider"]) == 2
    assert "exactly 1 parameter" in capsys.readouterr().err
    assert main(["generate", "family-f"]) == 2
    assert "requires --seed" in capsys.readouterr().err
    assert main(["generate", "nosuch", "1"]) == 2


def test_generate_refuses_past_the_vertex_limit(capsys):
    assert main(["generate", "cycle", "100000000"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: 100000000 vertices exceeds the generator limit of 100000\n",
    )


#: sha256 of ``generate`` stdout for one parameter set per family.
GENERATE_SHA256 = {
    "spider": (["2"], "19e0bd08a7d0ca50460f8c0f5e321c9f58c144a11d57c5a01e908c4a6c78162e"),
    "subdivided-grid": (["2"], "c9fdc920031f173486692defbe19d4f31bf9079dee54c4faf7631217d5e61f84"),
    "k-family": (["3"], "92624e6832e6f03a47ca86fe803f8eb53fb728cad6a7c2115b922f2f9de0866b"),
    "cycle": (["5"], "33084a259cf180f24dd1f4bacd29a18d31a5fe0aa0dedd117dbf14b4adff9dfe"),
    "path": (["4"], "d41d0500cd7d559c8fa48e9f946f3e24ef7feb308cbda265b865406b77749a17"),
    "prop2": (["2", "3"], "f6ecbd4f3fdc28f2f45e2c87e51ec5e9d8e7a432f5e6fd4b81b4b50e536fddda"),
    "family-f": (["--seed", "7"], "8e0ce49302fe199f221aeb680bd4284de2f88cc9a80333d40dcb90c20c14b9b1"),
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_generate_output_golden(capsys, family):
    args, expected = GENERATE_SHA256[family]
    assert main(["generate", family, *args]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == expected


# ---------------------------------------------------------------------------
# machine mode


def test_machine_output_is_stable(tmp_path, capsys):
    path = write_graph(tmp_path, spider(2))
    rc = main(["gamma-t", path, "--machine"])
    first = capsys.readouterr().out
    assert rc == 0
    main(["gamma-t", path, "--machine"])
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == f"command: gamma-t {path} --machine"
    assert "vertices: 7" in lines
    assert "min_degree: 1" in lines
    assert "girth: infinite" in lines
    assert "gamma_t: 4" in lines
    assert lines[-1] == "exit: 0"


@pytest.mark.parametrize("command", ["gamma-t", "mu-star", "bounds", "recognize", "verify"])
def test_machine_mode_refuses_the_empty_graph(tmp_path, capsys, command):
    # Every handler refuses the empty graph before it prints the machine header.
    argv = [command, write_text(tmp_path, "", "empty.txt")]
    if command == "verify":
        argv.append(write_text(tmp_path, "", "m.txt"))
    assert main(argv + ["--machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_machine_recognize_six_cycle(tmp_path, capsys):
    rc = main(["recognize", write_graph(tmp_path, cycle(6)), "--machine"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "certificate: six-cycle" in out
    assert "verdict: yes" in out
    assert out[-1] == "exit: 0"


def test_machine_mu_star_lists_each_witness_edge(tmp_path, capsys):
    assert main(["mu-star", write_graph(tmp_path, spider(2)), "--machine"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == ["mu_star: 2", "witness_edge: x1 y1", "witness_edge: x2 y2", "exit: 0"]


def test_machine_bounds_report(tmp_path, capsys):
    rc = main(["bounds", write_graph(tmp_path, k4()), "--machine"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "holds: yes" in out and "slack: 1" in out


# ---------------------------------------------------------------------------
# solver limit plumbing


def test_vertex_limit_resolution(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, matching_forest(13))
    monkeypatch.delenv(MAX_VERTICES_ENV, raising=False)
    rc = main(["gamma-t", path])
    assert rc == 2
    assert "exceeds the solver limit of 24" in capsys.readouterr().err

    monkeypatch.setenv(MAX_VERTICES_ENV, "30")
    rc = main(["gamma-t", path])
    assert rc == 0
    assert "gamma_t = 26" in capsys.readouterr().out

    # an explicit flag beats the environment
    monkeypatch.setenv(MAX_VERTICES_ENV, "10")
    rc = main(["gamma-t", path, "--max-vertices", "30"])
    assert rc == 0
    assert "gamma_t = 26" in capsys.readouterr().out

    monkeypatch.setenv(MAX_VERTICES_ENV, "ten")
    rc = main(["gamma-t", path])
    assert rc == 2
    assert "is not an integer" in capsys.readouterr().err


def test_vertex_limit_below_one_is_rejected_from_the_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(MAX_VERTICES_ENV, raising=False)
    rc = main(["gamma-t", write_graph(tmp_path, k4()), "--max-vertices", "-5"])
    assert rc == 2
    assert "error: solver vertex limit -5 is below 1" in capsys.readouterr().err


def test_vertex_limit_below_one_is_rejected_from_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(MAX_VERTICES_ENV, "0")
    rc = main(["mu-star", write_graph(tmp_path, k4())])
    assert rc == 2
    assert "error: solver vertex limit 0 is below 1" in capsys.readouterr().err


#: (flag, environment value, error line) for each bad solver limit.
BAD_LIMITS = [
    (["--max-vertices", "-5"], None, "error: solver vertex limit -5 is below 1\n"),
    ([], "ten", f"error: {MAX_VERTICES_ENV}='ten' is not an integer\n"),
]


@pytest.mark.parametrize("flags, env, error", BAD_LIMITS, ids=["flag", "environment"])
def test_recognize_rejects_a_bad_limit_without_the_oracle(
    tmp_path, capsys, monkeypatch, flags, env, error
):
    if env is None:
        monkeypatch.delenv(MAX_VERTICES_ENV, raising=False)
    else:
        monkeypatch.setenv(MAX_VERTICES_ENV, env)
    assert main(["recognize", write_graph(tmp_path, cycle(6)), *flags]) == 2
    assert capsys.readouterr() == ("", error)
    # the graph's minimum degree is checked first, as gamma-t checks its graph first
    assert main(["recognize", write_graph(tmp_path, helpers.petersen_graph()), *flags]) == 2
    assert capsys.readouterr() == ("", MIN_DEGREE_THREE_ERROR)


def test_max_vertices_help_names_the_default(capsys):
    assert main(["gamma-t", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default {DEFAULT_MAX_VERTICES}; env {MAX_VERTICES_ENV})" in help_text


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    path = write_graph(tmp_path, cycle(4))
    proc = subprocess.run(
        [sys.executable, "-m", "domatch", "gamma-t", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("gamma_t = 2")


# ---------------------------------------------------------------------------
# modules each subcommand loads

#: Prints the domatch modules loaded after running ``main`` on its arguments,
#: and ``dataclasses`` when the run loaded it beyond what a bare child has.
LOADED_MODULES = (
    "import sys\n"
    "bare = set(sys.modules)\n"
    "import contextlib, io\n"
    "from domatch.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('domatch')\n"
    "              or m == 'dataclasses' and m not in bare))\n"
)
CORE_MODULES = ["domatch", "domatch.cli", "domatch.errors", "domatch.graph", "domatch.oracles"]
CERTIFICATE_MODULES = sorted(CORE_MODULES + ["domatch.characterization", "domatch.recognizer"])
GENERATE_MODULES = sorted(CORE_MODULES + ["domatch.generators"])


def loaded_modules(code, argv=()):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_each_subcommand_loads_only_the_modules_it_uses(tmp_path):
    c6 = write_graph(tmp_path, cycle(6), "c6.txt")
    spider2 = write_graph(tmp_path, spider(2), "spider2.txt")
    legs = write_text(tmp_path, "x1 y1\nx2 y2\n", "legs.txt")
    expected = [
        (["gamma-t", c6, "--machine"], CORE_MODULES),
        (["mu-star", c6], CORE_MODULES),
        (["bounds", c6], CORE_MODULES),
        (["--help"], CORE_MODULES),
        (["generate", "family-f", "--seed", "3"], GENERATE_MODULES),
        (["generate", "cycle", "5"], GENERATE_MODULES),
        (["recognize", c6, "--machine"], CERTIFICATE_MODULES),
        (["verify", spider2, legs], CERTIFICATE_MODULES),
    ]
    for argv, modules in expected:
        assert loaded_modules(LOADED_MODULES, argv) == modules, argv


def test_bare_import_loads_no_submodule():
    code = "import sys, domatch\nprint(*sorted(m for m in sys.modules if m.startswith('domatch')))"
    assert loaded_modules(code) == ["domatch"]


# ---------------------------------------------------------------------------
# human output, byte for byte

GOLDEN_GRAPHS = {
    "spider3": lambda: spider(3),
    "spider2": lambda: spider(2),
    "c4": lambda: cycle(4),
    "k4": k4,
    "grid2": lambda: subdivided_grid(2),
    "c7": lambda: cycle(7),
    "c6+c4": lambda: helpers.disjoint_union(cycle(6), cycle(4)),
    "k3": lambda: triangle_book(3),
    "c6": lambda: cycle(6),
    # the candidate edges 0-6, 1-2, 2-4 and 3-6 share vertices 2 and 6
    "shared": lambda: Graph(7, [(0, 1), (0, 6), (1, 2), (2, 4), (2, 5), (3, 4), (3, 6), (5, 6)]),
}

#: The violation messages of (iii) and (iv), which ``verify`` shows before
#: the labels of the vertices they concern.
SEES_MORE = "the first vertex must see exactly its partner among matched vertices; it sees the rest"
NO_WITNESS = "these two share a neighbor, but no vertex has neighborhood exactly their partners"

#: (subcommand, graph, matching file text or None, exit code, full stdout)
HUMAN_GOLDEN = [
    ("gamma-t", "spider3", None, 0, "gamma_t = 6\nwitness: x1 y1 x2 y2 x3 y3\n"),
    ("mu-star", "c4", None, 0, "mu_star = 2\nwitness: v0 v1, v2 v3\n"),
    (
        "bounds",
        "k4",
        None,
        0,
        "min_degree = 3\ngamma_t = 2\nmu_star = 2\nbound = 3\nslack = 1\nholds: yes\n",
    ),
    (
        "recognize",
        "grid2",
        None,
        0,
        "component 1 (10 vertices): yes - certifying matching: u0 v0, u1 v1, u2 v2\n"
        "verdict: yes\n",
    ),
    (
        "recognize",
        "c7",
        None,
        1,
        "component 1 (7 vertices): no - m-not-maximal: candidate matching of 0 edges"
        " is not maximal\nverdict: no\n",
    ),
    (
        "recognize",
        "c6+c4",
        None,
        1,
        "component 1 (6 vertices): yes - six-cycle\n"
        "component 2 (4 vertices): no - m-not-maximal: candidate matching of 0 edges"
        " is not maximal\nverdict: no\n",
    ),
    (
        "verify",
        "spider2",
        "x1 y1\nx2 y2\n",
        0,
        "condition maximal: ok\nm_plus: none\nm_minus: x1 y1, x2 y2\nm_star: none\n"
        "condition i: ok\ncondition ii: ok\ncondition iii: ok\ncondition iv: ok\n"
        "verdict: certificate holds\n",
    ),
    (
        "verify",
        "spider2",
        "x1 y1\n",
        1,
        "condition maximal: violated\nverdict: certificate fails\n",
    ),
    (
        "verify",
        "spider2",
        "x1 y1\ny1 z1\n",
        1,
        "matching: no (edges share an endpoint)\nverdict: certificate fails\n",
    ),
    (
        "verify",
        "spider2",
        "c x1\ny1 z1\ny2 z2\n",
        1,
        "condition maximal: ok\nm_plus: none\nm_minus: y1 z1, y2 z2\nm_star: c x1\n"
        "condition i: ok\ncondition ii: ok\ncondition iii: violated\n"
        f"  {SEES_MORE} (vertices: x1 c y1)\n"
        f"  {SEES_MORE} (vertices: y1 x1 z1)\n"
        "condition iv: violated\n"
        f"  {NO_WITNESS} (vertices: c y2)\n"
        "verdict: certificate fails\n",
    ),
    (
        "verify",
        "c4",
        "v0 v1\nv2 v3\n",
        1,
        "condition maximal: ok\ncondition i: violated\n"
        f"  {SEES_MORE} (vertices: v0 v1 v3)\n"
        f"  {SEES_MORE} (vertices: v1 v0 v2)\n"
        f"  {SEES_MORE} (vertices: v2 v1 v3)\n"
        f"  {SEES_MORE} (vertices: v3 v0 v2)\n"
        "condition ii: ok\nverdict: certificate fails\n",
    ),
    (
        "verify",
        "c4",
        "v0 v1\n",
        1,
        "condition maximal: violated\n"
        "  this edge could extend the matching (vertices: v2 v3)\n"
        "condition i: ok\ncondition ii: ok\nverdict: certificate fails\n",
    ),
]


@pytest.mark.parametrize(
    "command, graph, matching, code, expected",
    HUMAN_GOLDEN,
    ids=[f"{row[0]}-{row[1]}-{i}" for i, row in enumerate(HUMAN_GOLDEN)],
)
def test_human_output_golden(tmp_path, capsys, command, graph, matching, code, expected):
    argv = [command, write_graph(tmp_path, GOLDEN_GRAPHS[graph]())]
    if matching is not None:
        argv.append(write_text(tmp_path, matching, "m.txt"))
    assert main(argv) == code
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# machine output, byte for byte

#: (subcommand, graph, matching file text or None, flags after ``--machine``, exit
#: code, full stdout with the file paths shown as ``<graph>`` and ``<matching>``)
MACHINE_GOLDEN = [
    (
        "gamma-t",
        "spider3",
        None,
        [],
        0,
        "command: gamma-t <graph> --machine\nvertices: 10\nedges: 9\nmin_degree: 1\n"
        "girth: infinite\ngamma_t: 6\nwitness_vertex: x1\nwitness_vertex: y1\n"
        "witness_vertex: x2\nwitness_vertex: y2\nwitness_vertex: x3\nwitness_vertex: y3\n"
        "exit: 0\n",
    ),
    (
        "mu-star",
        "c4",
        None,
        [],
        0,
        "command: mu-star <graph> --machine\nvertices: 4\nedges: 4\nmin_degree: 2\ngirth: 4\n"
        "mu_star: 2\nwitness_edge: v0 v1\nwitness_edge: v2 v3\nexit: 0\n",
    ),
    (
        "bounds",
        "k4",
        None,
        [],
        0,
        "command: bounds <graph> --machine\nvertices: 4\nedges: 6\nmin_degree: 3\ngirth: 3\n"
        "gamma_t: 2\nmu_star: 2\nbound: 3\nslack: 1\nholds: yes\nexit: 0\n",
    ),
    (
        "recognize",
        "k3",
        None,
        [],
        0,
        "command: recognize <graph> --machine\nvertices: 5\nedges: 7\nmin_degree: 2\n"
        "girth: 3\ncomponent: 1\ncomponent_verdict: yes\ncertificate: triangle-book\n"
        "book_pages: 3\nverdict: yes\nexit: 0\n",
    ),
    (
        "recognize",
        "c6",
        None,
        [],
        0,
        "command: recognize <graph> --machine\nvertices: 6\nedges: 6\nmin_degree: 2\n"
        "girth: 6\ncomponent: 1\ncomponent_verdict: yes\ncertificate: six-cycle\n"
        "verdict: yes\nexit: 0\n",
    ),
    (
        "recognize",
        "grid2",
        None,
        [],
        0,
        "command: recognize <graph> --machine\nvertices: 10\nedges: 11\nmin_degree: 2\n"
        "girth: 6\ncomponent: 1\ncomponent_verdict: yes\ncertificate: certifying-matching\n"
        "certificate_edge: u0 v0\ncertificate_edge: u1 v1\ncertificate_edge: u2 v2\n"
        "verdict: yes\nexit: 0\n",
    ),
    (
        "recognize",
        "shared",
        None,
        [],
        1,
        "command: recognize <graph> --machine\nvertices: 7\nedges: 8\nmin_degree: 2\n"
        "girth: 5\ncomponent: 1\ncomponent_verdict: no\ncertificate: refutation\n"
        "refutation_reason: m-not-matching\nrefutation_vertex: 2\nrefutation_vertex: 6\n"
        "refutation_detail: candidate edges share endpoints\nverdict: no\nexit: 1\n",
    ),
    (
        "recognize",
        "c6+c4",
        None,
        [],
        1,
        "command: recognize <graph> --machine\nvertices: 10\nedges: 10\nmin_degree: 2\n"
        "girth: 4\ncomponent: 1\ncomponent_verdict: yes\ncertificate: six-cycle\n"
        "component: 2\ncomponent_verdict: no\ncertificate: refutation\n"
        "refutation_reason: m-not-maximal\n"
        "refutation_detail: candidate matching of 0 edges is not maximal\nverdict: no\n"
        "exit: 1\n",
    ),
    (
        "recognize",
        "grid2",
        None,
        ["--oracle"],
        0,
        "command: recognize <graph> --machine --oracle\nvertices: 10\nedges: 11\n"
        "min_degree: 2\ngirth: 6\ncomponent: 1\ncomponent_verdict: yes\n"
        "certificate: certifying-matching\ncertificate_edge: u0 v0\ncertificate_edge: u1 v1\n"
        "certificate_edge: u2 v2\nverdict: yes\noracle: agrees\nexit: 0\n",
    ),
    (
        "verify",
        "spider2",
        "x1 y1\nx2 y2\n",
        [],
        0,
        "command: verify <graph> <matching> --machine\nvertices: 7\nedges: 6\nmin_degree: 1\n"
        "girth: infinite\nmatching_edge: x1 y1\nmatching_edge: x2 y2\nmatching: yes\n"
        "condition_maximal: yes\nm_minus_edge: x1 y1\nm_minus_edge: x2 y2\ncondition_i: yes\n"
        "condition_ii: yes\ncondition_iii: yes\ncondition_iv: yes\nverdict: holds\nexit: 0\n",
    ),
    (
        "verify",
        "spider2",
        "c x1\ny1 z1\ny2 z2\n",
        [],
        1,
        "command: verify <graph> <matching> --machine\nvertices: 7\nedges: 6\nmin_degree: 1\n"
        "girth: infinite\nmatching_edge: c x1\nmatching_edge: y1 z1\nmatching_edge: y2 z2\n"
        "matching: yes\ncondition_maximal: yes\nm_minus_edge: y1 z1\nm_minus_edge: y2 z2\n"
        "m_star_edge: c x1\ncondition_i: yes\ncondition_ii: yes\ncondition_iii: no\n"
        "violation_iii: x1 c y1\nviolation_iii: y1 x1 z1\ncondition_iv: no\n"
        "violation_iv: c y2\nverdict: fails\nexit: 1\n",
    ),
    (
        "verify",
        "spider2",
        "x1 y1\n",
        [],
        1,
        "command: verify <graph> <matching> --machine\nvertices: 7\nedges: 6\nmin_degree: 1\n"
        "girth: infinite\nmatching_edge: x1 y1\nmatching: yes\ncondition_maximal: no\n"
        "verdict: fails\nexit: 1\n",
    ),
    (
        "verify",
        "c4",
        "v0 v1\n",
        [],
        1,
        "command: verify <graph> <matching> --machine\nvertices: 4\nedges: 4\nmin_degree: 2\n"
        "girth: 4\nmatching_edge: v0 v1\nmatching: yes\ncondition_maximal: no\n"
        "violation_maximal: v2 v3\ncondition_i: yes\ncondition_ii: yes\nverdict: fails\n"
        "exit: 1\n",
    ),
    (
        "verify",
        "spider2",
        "x1 y1\ny1 z1\n",
        [],
        1,
        "command: verify <graph> <matching> --machine\nvertices: 7\nedges: 6\nmin_degree: 1\n"
        "girth: infinite\nmatching_edge: x1 y1\nmatching_edge: y1 z1\nmatching: no\n"
        "verdict: fails\nexit: 1\n",
    ),
]



@pytest.mark.parametrize(
    "command, graph, matching, flags, code, expected",
    MACHINE_GOLDEN,
    ids=[f"{row[0]}-{row[1]}-{i}" for i, row in enumerate(MACHINE_GOLDEN)],
)
def test_machine_output_golden(tmp_path, capsys, command, graph, matching, flags, code, expected):
    argv = [command, write_graph(tmp_path, GOLDEN_GRAPHS[graph]())]
    expected = expected.replace("<graph>", argv[-1])
    if matching is not None:
        argv.append(write_text(tmp_path, matching, "m.txt"))
        expected = expected.replace("<matching>", argv[-1])
    assert main(argv + ["--machine", *flags]) == code
    assert capsys.readouterr() == (expected, "")


# ---------------------------------------------------------------------------
# drawn command lines


_COMMANDS = ("gamma-t", "mu-star", "bounds", "recognize", "verify", "generate")
_FILES = ("GRAPH", "MATCHING", "MISSING")
_NUMBER = st.integers(-3, 30).map(str)
_WORD = st.one_of(
    _NUMBER,
    st.sampled_from((*_COMMANDS, *_FAMILIES, *_FILES, "--machine", "--oracle", "--max-vertices")),
    st.sampled_from(("--seed", "-h", "--", "-", "100000000", "")),
    st.text(max_size=4),
)
_LABEL = st.sampled_from("abcdefgh")


def _edge_lines(most):
    # up to `most` lines of two different labels, or of one to three labels,
    # after a byte-order mark, a comment or a vertices header, or none
    head = st.sampled_from(
        ("", "\ufeff", "# drawn\n", "vertices: a b c d e f g h i\n", "vertices: a a\n")
    )
    pair = st.lists(_LABEL, min_size=2, max_size=2, unique=True)
    lines = st.one_of(
        st.lists(pair, min_size=1, max_size=most),
        st.lists(st.lists(_LABEL, min_size=1, max_size=3), max_size=most),
    )
    return st.tuples(head, lines).map(
        lambda parts: (parts[0] + "".join(" ".join(line) + "\n" for line in parts[1])).encode()
    )


def _arguments(command):
    # the operands and flags of `command`, mostly well formed
    if command == "generate":
        operands = st.tuples(
            st.sampled_from(tuple(_FAMILIES)).map(lambda family: [family]),
            st.lists(_NUMBER, max_size=2),
            st.sampled_from(([], [], ["--seed", "1"])),
        )
        return operands.map(lambda parts: [word for part in parts for word in part])
    files = ["GRAPH", "MATCHING"] if command == "verify" else ["GRAPH"]
    operands = st.sampled_from((files, files, files, files[:1], ["MISSING", *files[1:]], files * 2))
    groups = [["--machine"]]
    if command == "recognize":
        groups.append(["--oracle"])
    if command != "verify":
        groups += [["--max-vertices", str(limit)] for limit in (-1, 0, 3, 24, 30)]
    flags = st.lists(st.sampled_from(groups), max_size=2)
    return st.tuples(operands, flags).map(
        lambda parts: parts[0] + [word for group in parts[1] for word in group]
    )


_COMMAND_LINE = st.sampled_from(_COMMANDS).flatmap(
    lambda command: _arguments(command).map(lambda rest: [command, *rest])
)


@settings(max_examples=200)
@given(
    # a command and its arguments twice as often as any words
    argv=st.one_of(_COMMAND_LINE, _COMMAND_LINE, st.lists(_WORD, max_size=6)),
    graph=st.one_of(st.binary(max_size=40), _edge_lines(12)),
    # a matching file: raw bytes, label lines, or the graph file's first lines
    matching=st.one_of(st.binary(max_size=10), _edge_lines(4), st.integers(1, 4)),
)
def test_main_exits_0_1_or_2_on_drawn_command_lines(tmp_path_factory, argv, graph, matching):
    # In process, so no child is started (Popen is made to fail): whatever
    # the command line and the files' bytes, main returns 0, 1 or 2 and
    # raises nothing, and exit 2 writes exactly one error line.
    folder = tmp_path_factory.getbasetemp()
    paths = {"GRAPH": folder / "drawn.txt", "MATCHING": folder / "drawn.match"}
    paths["GRAPH"].write_bytes(graph)
    if isinstance(matching, int):
        matching = b"".join(graph.splitlines(keepends=True)[:matching])
    paths["MATCHING"].write_bytes(matching)
    paths["MISSING"] = folder / "missing.txt"
    argv = [str(paths[word]) if word in paths else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), mock.patch.object(
        subprocess, "Popen", side_effect=AssertionError("a process was started")
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(MAX_VERTICES_ENV, None)
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert sum("error:" in line for line in lines) == 1, lines
        assert out.getvalue() == ""
    else:
        assert lines == []
