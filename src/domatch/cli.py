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

Each graph subcommand's handler returns one list of (machine line, human
line) pairs, None where a form has no such line, and :func:`_emit` alone
prints the form ``--machine`` picks.  Lists render through :func:`_listing`
and yes/no lines through the :data:`_ANSWERS` table; errors are raised and
:func:`main` prints them.

Every subcommand needs ``errors``, ``graph`` and ``oracles``, which are
imported here; ``generators``, ``recognizer`` and ``characterization`` are
imported inside the handlers that use them, so a child process running one
subcommand compiles only the modules it needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, Sequence

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
    _solver_limit,
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
    except ValueError as error:  # a NUL character, which no file name holds
        raise DomainError(f"{path!r} is not a file name: {error}") from None


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


#: One report line in both forms, (machine line, human line); a form that
#: has no such line holds None.
Line = tuple[str | None, str | None]

#: Every yes/no line by kind: machine yes, machine no, human yes, human no
#: (None: no human line).  ``{}`` takes a condition's name.
_ANSWERS = {
    "holds": ("holds: yes", "holds: no") * 2,
    "verdict": ("verdict: yes", "verdict: no") * 2,
    "component_verdict": ("component_verdict: yes", "component_verdict: no", None, None),
    "matching": ("matching: yes", "matching: no", None, "matching: no (edges share an endpoint)"),
    "condition": (
        "condition_{}: yes", "condition_{}: no", "condition {}: ok", "condition {}: violated"
    ),
    "certificate": (
        "verdict: holds", "verdict: fails",
        "verdict: certificate holds", "verdict: certificate fails",
    ),
}


def _answer(kind: str, yes: bool, name: str = "") -> Line:
    machine, human = _ANSWERS[kind][not yes :: 2]  # the yes pair or the no pair
    return machine.format(name), human and human.format(name)


def _listing(key: str, items: list[str], human: str | None = None, sep: str = ", ") -> list[Line]:
    """One machine line ``key: item`` per item and, unless ``human`` is None,
    the human line ``human: `` with the items joined by ``sep`` or ``none``."""
    shown = None if human is None else f"{human}: {sep.join(items) or 'none'}"
    return list(zip_longest([f"{key}: {item}" for item in items], [shown]))


def _value(key: str, value: int) -> Line:
    return f"{key}: {value}", f"{key} = {value}"


def _edge_labels(g: Graph, edges: Iterable[Edge]) -> list[str]:
    return [f"{g.label(e.u)} {g.label(e.v)}" for e in edges]


def _emit(
    args: argparse.Namespace, argv: Sequence[str], g: Graph, report: list[Line], code: int
) -> int:
    """Print ``report`` in the form ``--machine`` picks; the machine form
    opens with a header on ``g`` and closes with the exit code."""
    if args.machine:
        gi = girth(g)
        # Every handler has refused the empty graph by now, so min_degree is defined.
        lines = [
            "command: " + " ".join(argv),
            f"vertices: {g.vertex_count}",
            f"edges: {g.edge_count}",
            f"min_degree: {min_degree(g)}",
            "girth: infinite" if gi == INFINITE_GIRTH else f"girth: {gi}",
        ]
        lines += [machine for machine, _ in report if machine is not None]
        lines.append(f"exit: {code}")
    else:
        lines = [human for _, human in report if human is not None]
    print("\n".join(lines))
    return code


def _run_gamma_t(args: argparse.Namespace, g: Graph) -> tuple[list[Line], int]:
    result = total_domination_number(g, max_vertices=_resolve_limit(args.max_vertices))
    witness = [g.label(v) for v in sorted(result.witness)]
    listing = _listing("witness_vertex", witness, "witness", " ")
    return [_value("gamma_t", result.value), *listing], 0


def _run_mu_star(args: argparse.Namespace, g: Graph) -> tuple[list[Line], int]:
    result = minimum_maximal_matching(g, max_vertices=_resolve_limit(args.max_vertices))
    assert isinstance(result.witness, Matching)
    witness = _edge_labels(g, result.witness)
    return [_value("mu_star", result.value), *_listing("witness_edge", witness, "witness")], 0


def _run_bounds(args: argparse.Namespace, g: Graph) -> tuple[list[Line], int]:
    bound = check_matching_bound(g, max_vertices=_resolve_limit(args.max_vertices))
    # The machine header already carries the minimum degree.
    report: list[Line] = [(None, f"min_degree = {bound.min_degree}")]
    report += [_value(k, getattr(bound, k)) for k in ("gamma_t", "mu_star", "bound", "slack")]
    return report + [_answer("holds", bound.holds)], 0 if bound.holds else 1


def _certificate_lines(g: Graph, certificate, human: str) -> list[Line]:
    """Lines for one component's certificate; ``human`` opens its human line."""
    from .recognizer import CertifyingMatching, ExceptionalBook, ExceptionalSixCycle, Refutation

    if isinstance(certificate, ExceptionalBook):
        pages = certificate.pages
        human += f"yes - triangle book ({pages} page{'s' if pages != 1 else ''})"
        return [("certificate: triangle-book", human), (f"book_pages: {pages}", None)]
    if isinstance(certificate, ExceptionalSixCycle):
        return [("certificate: six-cycle", f"{human}yes - six-cycle")]
    if isinstance(certificate, CertifyingMatching):
        edges = _edge_labels(g, certificate.matching)
        listing = _listing("certificate_edge", edges, f"{human}yes - certifying matching")
        return [("certificate: certifying-matching", None), *listing]
    assert isinstance(certificate, Refutation)
    reason, detail = certificate.reason, certificate.detail
    report: list[Line] = [
        ("certificate: refutation", f"{human}no - {reason}: {detail}"),
        (f"refutation_reason: {reason}", None),
    ]
    report += _listing("refutation_vertex", [g.label(v) for v in certificate.vertices])
    if detail:
        report.append((f"refutation_detail: {detail}", None))
    return report


def _condition_lines(g: Graph, conditions: ConditionReport) -> list[Line]:
    """Each condition's verdict, followed by its violations."""
    report: list[Line] = []
    for condition, verdict in conditions.verdicts.items():
        report.append(_answer("condition", verdict, condition))
        for violation in conditions.violations:
            if violation.condition == condition:
                labels = [g.label(v) for v in violation.vertices]
                labels += [g.label(w) for e in violation.edges for w in e]
                suffix = f" (vertices: {' '.join(labels)})" if labels else ""
                machine = f"violation_{condition}: " + " ".join(labels)
                report.append((machine, f"  {violation.message}{suffix}"))
    return report


def _run_recognize(args: argparse.Namespace, g: Graph) -> tuple[list[Line], int]:
    from .characterization import _require_degree_two
    from .recognizer import recognize

    try:
        _require_degree_two(g)
    except DomainError as error:
        raise DomainError(
            f"{error}\nhint: recognition covers minimum degree two only; use gamma-t and"
            " mu-star for exact values, or verify with a candidate matching"
        ) from None
    # the limit is checked, as the solvers check it, after the graph's preconditions
    limit = _solver_limit(_resolve_limit(args.max_vertices))
    outcome = recognize(g)
    if args.oracle and is_tight_graph(g, max_vertices=limit) != outcome.verdict:
        raise DomatchError("recognizer and oracle disagree")
    report: list[Line] = []
    for index, component in enumerate(outcome.components, start=1):
        report += [(f"component: {index}", None), _answer("component_verdict", component.verdict)]
        human = f"component {index} ({len(component.vertices)} vertices): "
        report += _certificate_lines(g, component.certificate, human)
    report.append(_answer("verdict", outcome.verdict))
    if args.oracle:
        report.append(("oracle: agrees",) * 2)
    return report, 0 if outcome.verdict else 1


def _run_verify(args: argparse.Namespace, g: Graph) -> tuple[list[Line], int]:
    from .characterization import _certificate_evidence, _require_low_degree
    from .recognizer import check_degree_two_certificate

    edges = _load_matching_edges(g, args.matching)
    delta = _require_low_degree(g)
    report = _listing("matching_edge", _edge_labels(g, sorted(set(edges))))
    conditions: ConditionReport | None = None
    try:
        m = Matching(edges)
    except DomainError:
        report.append(_answer("matching", False))
    else:
        report.append(_answer("matching", True))
        if delta == 2:
            conditions = check_degree_two_certificate(g, m)
        else:
            evidence = _certificate_evidence(g, m)
            report.append(_answer("condition", evidence is not None, "maximal"))
            if evidence is not None:
                partition, conditions = evidence
                for name, part in partition._asdict().items():  # field names are output keys
                    report += _listing(f"{name}_edge", _edge_labels(g, part), name)
    if conditions is not None:
        report += _condition_lines(g, conditions)
    holds = conditions is not None and conditions.holds
    return report + [_answer("certificate", holds)], 0 if holds else 1


def _run_generate(args: argparse.Namespace) -> int:
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
    comments = "".join(f"# {edge}\n" for edge in _edge_labels(g, matching))
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
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        if args.command == "generate":
            return _run_generate(args)
        g = parse_edge_list(_read_text(args.graph))
        report, code = args.run(args, g)
        return _emit(args, argv, g, report, code)
    except (DomatchError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
