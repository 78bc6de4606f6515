"""Command-line front end.

Subcommands wrap the exact solvers (``gamma-t``, ``mu-star``, ``bounds``),
the minimum-degree-two recognizer (``recognize``), the certificate checker
(``verify``) and the generators (``generate``), all over the plain edge-list
file format.  Exit codes are uniform: 0 for an affirmative answer or plain
success, 1 for a negative verdict, 2 for any error.

``--machine`` switches commands that report results to a line-oriented
``key: value`` document that is byte-stable for a given command line and
input file.  The solver vertex limit can be raised per call with
``--max-vertices`` or globally through the ``DOMATCH_MAX_VERTICES``
environment variable; an explicit flag wins.

Every subcommand needs ``errors``, ``graph`` and ``oracles``, which are
imported here; ``generators``, ``recognizer`` and ``characterization`` are
imported inside the handlers that use them, so a child process running one
subcommand compiles only the modules it needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, DomatchError, EdgeListFormatError
from .graph import (
    INFINITE_GIRTH,
    Edge,
    Graph,
    girth,
    min_degree,
    parse_edge_list,
    serialize_edge_list,
)
from .oracles import (
    DEFAULT_MAX_VERTICES,
    Matching,
    check_matching_bound,
    is_tight_graph,
    minimum_maximal_matching,
    total_domination_number,
)

if TYPE_CHECKING:
    from .characterization import ConditionReport

#: Environment variable overriding the solver vertex limit.
MAX_VERTICES_ENV = "DOMATCH_MAX_VERTICES"

#: ``generate`` families, in help order: name → (builder in
#: :mod:`domatch.generators`, parameter count).  ``family-f`` takes ``--seed``.
_FAMILIES = {
    "spider": ("spider", 1),
    "subdivided-grid": ("subdivided_grid", 1),
    "k-family": ("triangle_book", 1),
    "cycle": ("cycle", 1),
    "path": ("path", 1),
    "prop2": ("high_degree_extremal", 2),
    "family-f": ("random_tight_graph", 0),
}


def _read_text(path: str) -> str:
    """Contents of a graph or matching file, which must be UTF-8 text; a
    leading byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as error:
        raise EdgeListFormatError(f"{path} is not UTF-8 text: {error}") from None


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _load_matching_edges(g: Graph, path: str) -> list[Edge]:
    """Matching files hold edge lines in the graph's labels, plus comments."""
    edges: list[Edge] = []
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListFormatError(
                f"line {line_no}: expected two labels, got {len(tokens)}"
            )
        try:
            u, v = map(g.vertex_with_label, tokens)
        except DomainError as error:
            raise DomainError(f"line {line_no}: {error}") from None
        if not g.has_edge(u, v):
            raise DomainError(
                f"line {line_no}: {tokens[0]}-{tokens[1]} is not an edge of the graph"
            )
        edges.append(Edge.of(u, v))
    return edges


def _resolve_limit(flag_value: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(MAX_VERTICES_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{MAX_VERTICES_ENV}={raw!r} is not an integer") from None


def _machine_header(argv: Sequence[str], g: Graph) -> list[str]:
    lines = ["command: " + " ".join(argv)]
    lines.append(f"vertices: {g.vertex_count}")
    lines.append(f"edges: {g.edge_count}")
    # Every handler has refused the empty graph by now, so min_degree is defined.
    lines.append(f"min_degree: {min_degree(g)}")
    gi = girth(g)
    lines.append("girth: infinite" if gi == INFINITE_GIRTH else f"girth: {gi}")
    return lines


def _emit(lines: list[str], code: int, *, machine: bool) -> int:
    print("\n".join(lines + [f"exit: {code}"] if machine else lines))
    return code


def _edge_label(g: Graph, e: Edge) -> str:
    return f"{g.label(e.u)} {g.label(e.v)}"


def _run_gamma_t(args: argparse.Namespace, argv: Sequence[str]) -> int:
    g = _load_graph(args.graph)
    result = total_domination_number(g, max_vertices=_resolve_limit(args.max_vertices))
    witness = [g.label(v) for v in sorted(result.witness)]
    if args.machine:
        lines = _machine_header(argv, g) + [f"gamma_t: {result.value}"]
        lines += [f"witness_vertex: {label}" for label in witness]
    else:
        lines = [f"gamma_t = {result.value}", "witness: " + " ".join(witness)]
    return _emit(lines, 0, machine=args.machine)


def _run_mu_star(args: argparse.Namespace, argv: Sequence[str]) -> int:
    g = _load_graph(args.graph)
    result = minimum_maximal_matching(g, max_vertices=_resolve_limit(args.max_vertices))
    assert isinstance(result.witness, Matching)
    witness = [_edge_label(g, e) for e in result.witness]
    if args.machine:
        lines = _machine_header(argv, g) + [f"mu_star: {result.value}"]
        lines += [f"witness_edge: {label}" for label in witness]
    else:
        lines = [f"mu_star = {result.value}", "witness: " + ", ".join(witness)]
    return _emit(lines, 0, machine=args.machine)


def _run_bounds(args: argparse.Namespace, argv: Sequence[str]) -> int:
    g = _load_graph(args.graph)
    report = check_matching_bound(g, max_vertices=_resolve_limit(args.max_vertices))
    # The machine header already carries the minimum degree.
    lines = _machine_header(argv, g) if args.machine else [f"min_degree = {report.min_degree}"]
    separator = ": " if args.machine else " = "
    for key in ("gamma_t", "mu_star", "bound", "slack"):
        lines.append(f"{key}{separator}{getattr(report, key)}")
    lines.append("holds: yes" if report.holds else "holds: no")
    return _emit(lines, 0 if report.holds else 1, machine=args.machine)


def _certificate_lines(g: Graph, certificate) -> tuple[str, list[str]]:
    """Human line and machine lines for one component's certificate."""
    from .recognizer import CertifyingMatching, ExceptionalBook, ExceptionalSixCycle, Refutation

    if isinstance(certificate, ExceptionalBook):
        pages = certificate.pages
        return (
            f"yes - triangle book ({pages} page{'s' if pages != 1 else ''})",
            ["certificate: triangle-book", f"book_pages: {pages}"],
        )
    if isinstance(certificate, ExceptionalSixCycle):
        return "yes - six-cycle", ["certificate: six-cycle"]
    if isinstance(certificate, CertifyingMatching):
        edges = [_edge_label(g, e) for e in certificate.matching]
        return (
            "yes - certifying matching: " + ", ".join(edges),
            ["certificate: certifying-matching"] + [f"certificate_edge: {e}" for e in edges],
        )
    assert isinstance(certificate, Refutation)
    lines = ["certificate: refutation", f"refutation_reason: {certificate.reason}"]
    lines += [f"refutation_vertex: {g.label(v)}" for v in certificate.vertices]
    if certificate.detail:
        lines.append(f"refutation_detail: {certificate.detail}")
    return f"no - {certificate.reason}: {certificate.detail}", lines


def _run_recognize(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .recognizer import recognize

    g = _load_graph(args.graph)
    delta = min_degree(g)
    if delta != 2:
        print(f"error: minimum degree {delta}, expected exactly 2", file=sys.stderr)
        print(
            "hint: recognition covers minimum degree two only; use gamma-t and"
            " mu-star for exact values, or verify with a candidate matching",
            file=sys.stderr,
        )
        return 2
    outcome = recognize(g)
    if args.oracle:
        oracle_verdict = is_tight_graph(g, max_vertices=_resolve_limit(args.max_vertices))
        if oracle_verdict != outcome.verdict:
            print("error: recognizer and oracle disagree", file=sys.stderr)
            return 2
    lines = _machine_header(argv, g) if args.machine else []
    for index, component in enumerate(outcome.components, start=1):
        human, machine = _certificate_lines(g, component.certificate)
        if args.machine:
            lines.append(f"component: {index}")
            lines.append(f"component_verdict: {'yes' if component.verdict else 'no'}")
            lines += machine
        else:
            size = len(component.vertices)
            lines.append(f"component {index} ({size} vertices): {human}")
    lines.append(f"verdict: {'yes' if outcome.verdict else 'no'}")
    if args.oracle:
        lines.append("oracle: agrees")
    return _emit(lines, 0 if outcome.verdict else 1, machine=args.machine)


def _condition_line(condition: str, verdict: bool, *, machine: bool) -> str:
    if machine:
        return f"condition_{condition}: {'yes' if verdict else 'no'}"
    return f"condition {condition}: {'ok' if verdict else 'violated'}"


def _condition_lines(
    g: Graph, report: ConditionReport, *, machine: bool
) -> list[str]:
    lines: list[str] = []
    for condition, verdict in report.verdicts.items():
        lines.append(_condition_line(condition, verdict, machine=machine))
        for violation in report.violations:
            if violation.condition != condition:
                continue
            labels = [g.label(v) for v in violation.vertices]
            labels += [g.label(w) for e in violation.edges for w in e]
            if machine:
                lines.append(f"violation_{condition}: " + " ".join(labels))
            else:
                suffix = f" (vertices: {' '.join(labels)})" if labels else ""
                lines.append(f"  {violation.message}{suffix}")
    return lines


def _run_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .characterization import _certificate_evidence, _require_low_degree
    from .recognizer import check_degree_two_certificate

    g = _load_graph(args.graph)
    edges = _load_matching_edges(g, args.matching)
    delta = _require_low_degree(g)
    machine = args.machine
    lines = _machine_header(argv, g) if machine else []
    if machine:
        lines += [f"matching_edge: {_edge_label(g, e)}" for e in sorted(set(edges))]

    report: ConditionReport | None = None
    try:
        m = Matching(edges)
    except DomainError:
        lines.append("matching: no" if machine else "matching: no (edges share an endpoint)")
    else:
        if machine:
            lines.append("matching: yes")
        if delta == 2:
            report = check_degree_two_certificate(g, m)
        else:
            evidence = _certificate_evidence(g, m)
            lines.append(_condition_line("maximal", evidence is not None, machine=machine))
            if evidence is not None:
                partition, report = evidence
                for name, part in partition._asdict().items():  # field names are output keys
                    if machine:
                        lines += [f"{name}_edge: {_edge_label(g, e)}" for e in part]
                    else:
                        shown = ", ".join(_edge_label(g, e) for e in part) or "none"
                        lines.append(f"{name}: {shown}")
    if report is not None:
        lines += _condition_lines(g, report, machine=machine)

    holds = report is not None and report.holds
    verdict = "holds" if holds else "fails"
    lines.append(f"verdict: {verdict}" if machine else f"verdict: certificate {verdict}")
    return _emit(lines, 0 if holds else 1, machine=machine)


def _run_generate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from . import generators

    family = args.family
    params = args.params
    if args.seed is not None and family != "family-f":
        raise DomainError("--seed only applies to family-f")
    builder, count = _FAMILIES[family]
    if len(params) != count:
        raise DomainError(
            f"family {family!r} takes exactly {count} parameter(s), got {len(params)}"
        )
    build = getattr(generators, builder)
    if family != "family-f":
        sys.stdout.write(serialize_edge_list(build(*params)))
        return 0
    if args.seed is None:
        raise DomainError("family-f requires --seed")
    g, matching = build(args.seed)
    comments = "".join(f"# {_edge_label(g, e)}\n" for e in matching)
    sys.stdout.write("# certifying matching:\n" + comments + serialize_edge_list(g))
    return 0


#: Subcommands over one graph file, in help order: name, handler, help.
_GRAPH_COMMANDS = (
    ("gamma-t", _run_gamma_t, "exact total domination number"),
    ("mu-star", _run_mu_star, "exact minimum maximal matching number"),
    ("bounds", _run_bounds, "degree-aware matching bound report"),
    ("recognize", _run_recognize, "decide minimum-degree-two graphs"),
    ("verify", _run_verify, "check a matching certificate"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domatch",
        description="Decide, certify and construct graphs whose total domination"
        " number is twice the minimum maximal matching number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in _GRAPH_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="edge-list file")
        if name == "recognize":
            p.add_argument(
                "--oracle",
                action="store_true",
                help="cross-check the verdict against the exact solvers",
            )
        if name == "verify":
            p.add_argument("matching", help="matching file: one edge per line, graph labels")
        else:
            p.add_argument(
                "--max-vertices",
                type=int,
                default=None,
                help=f"solver vertex limit (default {DEFAULT_MAX_VERTICES};"
                f" env {MAX_VERTICES_ENV})",
            )
        p.add_argument("--machine", action="store_true", help="stable key/value output")
        p.set_defaults(run=run)

    p = sub.add_parser("generate", help="emit a named family member as an edge list")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument("--seed", type=int, default=None, help="seed for family-f")
    p.set_defaults(run=_run_generate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        return args.run(args, argv)
    except DomatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
