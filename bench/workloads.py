"""The benchmark's workloads: fixed pools, seeded inputs, timed ops, checks.

Each workload owns a fixed pool of instances, named by spec strings such as
``tight:7`` or ``union:grid:12+cycle:60``.  The workload seed never changes
which graphs are decided, so every run does the same amount of work; it
renames every vertex, shuffles the edge lines, flips their endpoints and
orders the ops (``cli-mixed`` instead picks its files from a fixed universe,
because there interpreter start-up dominates every op).  The ``vertices:``
header fixes vertex ids, so a renamed input must give the same answer as the
original, mapped back through the renaming; that is what the reference
answers in ``reference.json`` are compared with.

Every op is checked outside its timed span against its reference record,
and every witness it returns is checked with this file's own code.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import domatch.characterization as characterization
import domatch.cli as cli
import domatch.generators as generators
import domatch.graph as graph
import domatch.oracles as oracles
import domatch.recognizer as recognizer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
#: Scratch files, relative to the checkout root so CLI output is stable.
WORK_DIR = ".bench_work"

#: Leafless tight graphs of 100 to 350 vertices.
LEAFLESS = generators.TightGraphParams(
    max_k2=40, max_a=20, mark_probability=0.0, extra_edge_probability=0.2, max_vertices=350
)
#: Tight graphs of at most 20 vertices, usually with leaves.
LEAFY = generators.TightGraphParams(
    max_k2=6, max_a=3, mark_probability=0.25, extra_edge_probability=0.2, max_vertices=20
)
#: Vertex limit passed to the exact solvers in ``exact-solve``.
SOLVER_LIMIT = 64


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Case:
    """One pooled input: what the op receives and what it must answer."""

    key: str
    payload: object
    expected: dict | None
    #: Program label -> label in the reference rendering.
    back: dict[str, str] = field(default_factory=dict)
    adjacency: dict[str, set[str]] | None = None


# ---------------------------------------------------------------------------
# instances


def sparse_graph(seed: int, n: int, extra: int, min_deg: int) -> graph.Graph:
    """Connected random graph: a random tree, ``extra`` more edges, then
    edges from every vertex of degree below ``min_deg``."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for v in range(n):
        while degree[v] < min_deg:
            w = rng.randrange(n)
            e = (min(v, w), max(v, w))
            if w != v and e not in edges:
                edges.add(e)
                degree[v] += 1
                degree[w] += 1
    return graph.Graph(n, sorted(edges), [f"s{i}" for i in range(n)])


def disjoint_union(parts: list[graph.Graph]) -> graph.Graph:
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    for i, part in enumerate(parts):
        offset = len(labels)
        edges += [(e.u + offset, e.v + offset) for e in part.edges()]
        labels += [f"p{i}_{label}" for label in part.labels]
    return graph.Graph(len(labels), edges, labels)


def with_extra_edge(g: graph.Graph, seed: int) -> graph.Graph:
    """``g`` plus one non-edge picked by ``seed``."""
    missing = [
        (a, b) for a in g.vertices() for b in g.vertices() if a < b and not g.has_edge(a, b)
    ]
    a, b = random.Random(seed).choice(missing)
    return graph.Graph(g.vertex_count, [*g.edges(), (a, b)], g.labels)


def build_instance(spec: str) -> graph.Graph:
    """The graph a pool spec names; the same spec always gives the same graph."""
    kind, _, rest = spec.partition(":")
    if kind == "union":
        return disjoint_union([build_instance(part) for part in rest.split("+")])
    args = [int(token) for token in rest.split(":")]
    if kind == "tight":
        return generators.random_tight_graph(args[0], LEAFLESS)[0]
    if kind == "leafy":
        return generators.random_tight_graph(args[0], LEAFY)[0]
    if kind == "leafy+edge":
        return with_extra_edge(generators.random_tight_graph(args[0], LEAFY)[0], args[0])
    if kind == "sparse":
        return sparse_graph(*args)
    family = {
        "grid": generators.subdivided_grid,
        "cycle": generators.cycle,
        "book": generators.triangle_book,
        "spider": generators.spider,
        "path": generators.path,
    }[kind]
    return family(args[0])


def relabel(text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    """Rename every vertex, flip and shuffle the edge lines.

    ``text`` must start with a ``vertices:`` header, which is kept in id
    order so the parsed graph has the same ids.  Returns the new text and
    the map from new labels back to the old ones.
    """
    header, *lines = text.splitlines()
    old = header.split()[1:]
    new = [f"v{x:06x}" for x in rng.sample(range(16**6), len(old))]
    rename = dict(zip(old, new))
    edges = []
    for line in lines:
        a, b = line.split()
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(f"{rename[a]} {rename[b]}")
    rng.shuffle(edges)
    return "\n".join(["vertices: " + " ".join(new), *edges]) + "\n", dict(zip(new, old))


# ---------------------------------------------------------------------------
# the benchmark's own witness checks, on labels


def adjacency_from_text(text: str) -> dict[str, set[str]]:
    adjacency: dict[str, set[str]] = {}
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "vertices:":
            for label in tokens[1:]:
                adjacency.setdefault(label, set())
            continue
        a, b = tokens
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return adjacency


def matching_problem(
    adjacency: dict[str, set[str]], pairs: list[tuple[str, str]], scope=None
) -> str | None:
    """Why ``pairs`` is not a maximal matching of the graph induced on
    ``scope`` (every vertex when None), or None when it is one."""
    covered: set[str] = set()
    for a, b in pairs:
        if b not in adjacency.get(a, ()):
            return f"{a}-{b} is not an edge"
        if a in covered or b in covered:
            return f"{a}-{b} shares an endpoint"
        covered.update((a, b))
    inside = adjacency.keys() if scope is None else scope
    for a in inside:
        if a in covered:
            continue
        for b in adjacency[a]:
            if b not in covered and (scope is None or b in scope):
                return f"edge {a}-{b} extends the matching"
    return None


def is_total_dominating(adjacency: dict[str, set[str]], chosen: set[str]) -> bool:
    return all(neighbours & chosen for neighbours in adjacency.values())


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _render_pairs(pairs) -> str:
    return ",".join(f"{a} {b}" for a, b in sorted(pairs))


def _compare(expected: dict | None, got: dict) -> str | None:
    if expected is None:
        return "no reference record for this input, or the generated input changed"
    for name, value in got.items():
        if expected.get(name) != value:
            return f"{name}: got {value!r}, reference {expected.get(name)!r}"
    return None


# ---------------------------------------------------------------------------
# workloads deciding one graph in process


class GraphWorkload:
    """Parse an edge-list text and decide it, in this process."""

    name = ""
    pool: tuple[str, ...] = ()

    def setup(self, seed: int, reference: dict) -> list[Case]:
        records = reference.get(self.name, {})
        cases = []
        for key in self.pool:
            text = graph.serialize_edge_list(build_instance(key))
            expected = records.get(key)
            if expected is not None and expected["input"] != digest(text):
                expected = None  # the generator's output changed
            renamed, back = relabel(text, random.Random(f"{self.name}:{seed}:{key}"))
            cases.append(Case(key, renamed, expected, back))
        random.Random(f"{self.name}:{seed}").shuffle(cases)
        return cases

    def op(self, case: Case):
        g = graph.parse_edge_list(case.payload)
        return g, self.decide(g)

    def decide(self, g: graph.Graph):
        raise NotImplementedError

    def outcome(self, case: Case, g: graph.Graph, answer) -> dict:
        """The reference fields, in reference labels."""
        raise NotImplementedError

    def witness_problem(self, case: Case, g: graph.Graph, answer) -> str | None:
        return None

    def prepare_checks(self, cases: list[Case]) -> None:
        """Build what the witness checks need, outside set-up and timing."""
        for case in cases:
            case.adjacency = adjacency_from_text(case.payload)

    def check(self, case: Case, output) -> str | None:
        g, answer = output
        problem = _compare(case.expected, self.outcome(case, g, answer))
        if problem is None:
            problem = self.witness_problem(case, g, answer)
        return problem

    def record(self, key: str) -> dict:
        text = graph.serialize_edge_list(build_instance(key))
        case = Case(key, text, None, {label: label for label in adjacency_from_text(text)})
        g, answer = self.op(case)
        return {"input": digest(text), **self.outcome(case, g, answer)}


class RecognizeLeafless(GraphWorkload):
    name = "recognize-leafless"
    pool = (
        "tight:14", "tight:37", "tight:1", "tight:18", "tight:4", "tight:13", "tight:36", "tight:11",
        "grid:10", "grid:15", "grid:25", "grid:40", "grid:60",
        "cycle:60", "cycle:75", "cycle:85", "cycle:100", "cycle:140", "cycle:150",
        "book:1000", "book:2000", "book:3000", "book:4000", "book:5000",
        "union:tight:1+grid:15+book:500",
        "union:grid:12+cycle:60",
        "union:cycle:6+grid:25+tight:14",
        "union:book:50+grid:8+cycle:7",
    )

    def decide(self, g):
        return recognizer.recognize(g)

    def outcome(self, case, g, answer):
        name = case.back.__getitem__
        lines = []
        for component in answer.components:
            cert = component.certificate
            if isinstance(cert, recognizer.ExceptionalBook):
                body = str(cert.pages)
            elif isinstance(cert, recognizer.CertifyingMatching):
                body = _render_pairs(
                    _pair(name(g.label(e.u)), name(g.label(e.v))) for e in cert.matching
                )
            elif isinstance(cert, recognizer.Refutation):
                where = " ".join(name(g.label(v)) for v in cert.vertices)
                body = f"{cert.reason} [{where}] {cert.detail}"
            else:
                body = ""
            lines.append(
                f"{len(component.vertices)} {component.verdict} {type(cert).__name__} {body}"
            )
        return {
            "verdict": answer.verdict,
            "components": len(answer.components),
            "digest": digest("\n".join(lines)),
        }

    def witness_problem(self, case, g, answer):
        if answer.verdict != all(c.verdict for c in answer.components):
            return "verdict is not the AND of the component verdicts"
        for component in answer.components:
            cert = component.certificate
            labels = {g.label(v) for v in component.vertices}
            if isinstance(cert, recognizer.CertifyingMatching):
                pairs = [(g.label(e.u), g.label(e.v)) for e in cert.matching]
                problem = matching_problem(case.adjacency, pairs, labels)
                if problem:
                    return f"certifying matching: {problem}"
            elif isinstance(cert, recognizer.ExceptionalBook):
                if len(labels) != cert.pages + 2:
                    return f"book of {cert.pages} pages on {len(labels)} vertices"
            elif isinstance(cert, recognizer.ExceptionalSixCycle) and len(labels) != 6:
                return f"six-cycle certificate on {len(labels)} vertices"
        return None


class CertifyLeafy(GraphWorkload):
    name = "certify-leafy"
    pool = (
        *(f"leafy:{s}" for s in (3, 7, 17, 24, 48, 63)),
        *(f"leafy+edge:{s}" for s in (3, 6, 7, 17, 24, 33, 45, 48, 53, 62, 63, 68, 76)),
        "spider:5", "spider:6", "path:14", "path:17", "path:20",
    )

    def decide(self, g):
        return characterization.find_certifying_matching(g)

    def outcome(self, case, g, answer):
        if answer is None:
            return {"found": False, "size": None, "digest": digest("none")}
        name = case.back.__getitem__

        def render(edges) -> str:
            return _render_pairs(_pair(name(g.label(e.u)), name(g.label(e.v))) for e in edges)

        part = answer.partition
        text = "|".join(
            [render(answer.matching), render(part.m_plus), render(part.m_minus), render(part.m_star)]
        )
        return {"found": True, "size": len(answer.matching), "digest": digest(text)}

    def witness_problem(self, case, g, answer):
        if answer is None:
            return None
        pairs = [(g.label(e.u), g.label(e.v)) for e in answer.matching]
        problem = matching_problem(case.adjacency, pairs)
        if problem:
            return f"certificate: {problem}"
        if not answer.report.holds:
            return "returned a matching whose report does not hold"
        if len(pairs) != case.expected["mu_star"]:
            return f"certificate of {len(pairs)} edges, mu* is {case.expected['mu_star']}"
        return None

    def record(self, key):
        found = super().record(key)
        g = build_instance(key)
        gamma_t = oracles.total_domination_number(g).value
        mu_star = oracles.minimum_maximal_matching(g).value
        if found["found"] != (gamma_t == 2 * mu_star):
            raise AssertionError(f"{key}: certificate search disagrees with the exact solvers")
        return {**found, "gamma_t": gamma_t, "mu_star": mu_star}


class ExactSolve(GraphWorkload):
    name = "exact-solve"
    pool = (
        "grid:5", "grid:6", "grid:7",
        "spider:7", "spider:8", "spider:9", "spider:10",
        "cycle:26", "cycle:28", "cycle:30", "cycle:32",
        "sparse:0:26:10:0", "sparse:0:28:12:2", "sparse:0:24:0:3", "sparse:1:28:12:2",
        "sparse:2:22:8:0", "sparse:2:26:0:3", "sparse:3:26:10:0", "sparse:3:28:12:2",
        "sparse:4:24:0:3", "sparse:5:24:0:3", "sparse:6:26:10:0", "sparse:7:26:0:3",
        "sparse:5:28:0:3", "sparse:2:30:12:2", "sparse:3:30:12:2",
    )

    def decide(self, g):
        return oracles.check_matching_bound(g, max_vertices=SOLVER_LIMIT)

    def outcome(self, case, g, answer):
        return {
            "min_degree": answer.min_degree,
            "gamma_t": answer.gamma_t,
            "mu_star": answer.mu_star,
            "bound": answer.bound,
            "slack": answer.slack,
            "holds": answer.holds,
        }

    def witness_problem(self, case, g, answer):
        delta = min(len(n) for n in case.adjacency.values())
        bound = 2 * answer.mu_star - (delta - 2 if delta > 2 else 0)
        if (answer.min_degree, answer.bound, answer.slack) != (delta, bound, bound - answer.gamma_t):
            return "bound report is inconsistent with its own values"
        return None


# ---------------------------------------------------------------------------
# the command line, one child process at a time


#: Universe the ``cli-mixed`` seed picks from.
CLI_FAMILY_SEEDS = range(40)
CLI_GRID_SIZES = range(1, 5)
CLI_PICK = {"f": 6, "g": 2}
_READS = ("gamma-t", "mu-star", "bounds")


def _cli_file(member: str) -> str:
    return f"{WORK_DIR}/cli/{member}.txt"


def _cli_matching_file(member: str) -> str:
    return f"{WORK_DIR}/cli/{member}.match"


def _run_main(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


class CliMixed:
    """``python -m domatch`` as a child process, one op per child."""

    name = "cli-mixed"
    #: The traced run calls ``cli.main`` in process instead of a child.
    in_process = False

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    @staticmethod
    def members() -> list[str]:
        return [f"f{s}" for s in CLI_FAMILY_SEEDS] + [f"g{n}" for n in CLI_GRID_SIZES]

    @staticmethod
    def generate_argv(member: str) -> list[str]:
        if member.startswith("f"):
            return ["generate", "family-f", "--seed", member[1:]]
        return ["generate", "subdivided-grid", member[1:]]

    def write_member(self, member: str) -> dict[str, set[str]]:
        """Write a member's graph file (and matching file), in process."""
        code, text = _run_main(self.generate_argv(member))
        if code != 0:
            raise RuntimeError(f"generating {member} exited {code}")
        with open(_cli_file(member), "wb") as handle:
            handle.write(text)
        if member.startswith("f"):
            # family-f output opens with "# certifying matching:", then one
            # "# <label> <label>" comment per matching edge.
            comments = [line[2:] for line in text.decode("utf-8").splitlines() if line.startswith("# ")]
            with open(_cli_matching_file(member), "w", encoding="utf-8") as handle:
                handle.write("".join(pair + "\n" for pair in comments[1:]))
        return adjacency_from_text(text.decode("utf-8"))

    def ops_for(self, member: str, adjacency: dict[str, set[str]]) -> list[tuple[str, list[str], str | None]]:
        """(key, argv, file the op writes) for every op on one member."""
        path = _cli_file(member)
        ops = [(f"generate:{member}", self.generate_argv(member), path)]
        min_deg = min(len(n) for n in adjacency.values())
        if min_deg == 2:
            ops.append((f"recognize:{member}", ["recognize", path, "--machine"], None))
        if member.startswith("f"):
            argv = ["verify", path, _cli_matching_file(member), "--machine"]
            ops.append((f"verify:{member}", argv, None))
        ops += [(f"{sub}:{member}", [sub, path, "--machine"], None) for sub in _READS]
        return ops

    def setup(self, seed: int, reference: dict) -> list[Case]:
        records = reference.get(self.name, {})
        os.makedirs(f"{WORK_DIR}/cli", exist_ok=True)
        universe = sorted({key.split(":", 1)[1] for key in records})
        rng = random.Random(f"{self.name}:{seed}")
        chosen = []
        for prefix, count in sorted(CLI_PICK.items()):
            chosen += rng.sample([m for m in universe if m.startswith(prefix)], count)
        cases = []
        for member in chosen:
            adjacency = self.write_member(member)
            for key, argv, writes in self.ops_for(member, adjacency):
                cases.append(Case(key, (argv, writes), records.get(key), adjacency=adjacency))
        rng.shuffle(cases)
        return cases

    def prepare_checks(self, cases: list[Case]) -> None:
        """Nothing to do: set-up already parsed every file it wrote."""

    def op(self, case: Case) -> tuple[int, bytes]:
        argv, writes = case.payload
        if self.in_process:
            code, stdout = _run_main(argv)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "domatch", *argv],
                capture_output=True,
                env=self.env,
                cwd=ROOT,
                timeout=120,
            )
            code, stdout = proc.returncode, proc.stdout
        if writes is not None:
            with open(writes, "wb") as handle:
                handle.write(stdout)
        return code, stdout

    def check(self, case: Case, output: tuple[int, bytes]) -> str | None:
        code, stdout = output
        problem = _compare(case.expected, {"exit": code, "digest": digest(stdout)})
        if problem is not None:
            return problem
        values: dict[str, str] = {}
        vertices: set[str] = set()
        edges: list[tuple[str, str]] = []
        for line in stdout.decode("utf-8").splitlines():
            key, _, value = line.partition(": ")
            if key == "witness_vertex":
                vertices.add(value)
            elif key == "witness_edge":
                a, b = value.split()
                edges.append((a, b))
            else:
                values[key] = value
        sub = case.key.split(":", 1)[0]
        if sub == "gamma-t":
            if not is_total_dominating(case.adjacency, vertices):
                return "gamma_t witness is not total dominating"
            if len(vertices) != int(values["gamma_t"]):
                return "gamma_t witness size differs from the value"
        elif sub == "mu-star":
            problem = matching_problem(case.adjacency, edges)
            if problem:
                return f"mu_star witness: {problem}"
            if len(edges) != int(values["mu_star"]):
                return "mu_star witness size differs from the value"
        return None

    def record(self) -> dict:
        os.makedirs(f"{WORK_DIR}/cli", exist_ok=True)
        records = {}
        for member in self.members():
            adjacency = self.write_member(member)
            if min(len(n) for n in adjacency.values()) not in (1, 2):
                continue  # verify and recognize need minimum degree one or two
            for key, argv, writes in self.ops_for(member, adjacency):
                case = Case(key, (argv, writes), None, adjacency=adjacency)
                code, stdout = self.op(case)
                records[key] = {"exit": code, "digest": digest(stdout)}
        return records


WORKLOADS = {
    w.name: w for w in (RecognizeLeafless(), CertifyLeafy(), ExactSolve(), CliMixed())
}
