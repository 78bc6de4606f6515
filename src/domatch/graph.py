"""Immutable simple-graph type plus the structural queries the rest of the
package builds on: text round-tripping, degrees, connectivity, girth and
support classification.

Vertices are dense integer ids ``0..n-1``.  Optional per-vertex labels are
kept only for round-tripping named input; every algorithm works on ids.
Graphs are immutable, so instances are safe to share between threads.  The
sorted edge tuple and the label index are built on first use and cached;
two threads may both build one, but they build equal values and either
assignment is fine.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, EdgeListFormatError

#: Returned by :func:`girth` for acyclic graphs.  Compares sanely with ints.
INFINITE_GIRTH = math.inf

_HEADER_TOKEN = "vertices:"


class Edge(NamedTuple):
    """Undirected edge in canonical orientation (``u < v``)."""

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        """Build a canonical edge from endpoints in either order."""
        if a == b:
            raise DomainError(f"self-loop at vertex {a}")
        return cls(a, b) if a < b else cls(b, a)


def _check_label(label: str) -> str:
    # Labels must survive the edge-list text format unchanged.
    if not label or label.split() != [label]:
        raise DomainError(f"label {label!r} is empty or contains whitespace")
    if label.startswith("#") or label == _HEADER_TOKEN:
        raise DomainError(f"label {label!r} would be ambiguous in edge-list text")
    return label


class Graph:
    """A finite simple undirected graph.

    Parameters
    ----------
    vertex_count:
        Number of vertices; ids run from 0 to ``vertex_count - 1``.
    edges:
        Iterable of endpoint pairs (either order, duplicates collapse).
    labels:
        Optional per-vertex text labels, unique, one per vertex.  When
        omitted, ``str(id)`` is used.
    """

    __slots__ = ("_adjacency", "_labels", "_edges", "_label_index")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ) -> None:
        if vertex_count < 0:
            raise DomainError("vertex count must be nonnegative")
        adjacency: list[set[int]] = [set() for _ in range(vertex_count)]
        for a, b in edges:
            e = Edge.of(a, b)
            if e.u < 0 or e.v >= vertex_count:
                raise DomainError(f"edge {e} has an endpoint outside 0..{vertex_count - 1}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        if labels is None:
            checked = tuple(map(str, range(vertex_count)))
        else:
            if len(labels) != vertex_count:
                raise DomainError(f"{len(labels)} labels for {vertex_count} vertices")
            checked = tuple(map(str, labels))
            if len(set(checked)) != vertex_count:
                raise DomainError("vertex labels must be unique")
            for label in checked:
                _check_label(label)
        self._build(adjacency, checked)

    def _build(self, adjacency: list[set[int]], labels: tuple[str, ...]) -> None:
        # The one place a Graph is finished.  ``adjacency`` must be
        # symmetric and loop-free over ids 0..n-1 and ``labels`` already
        # checked.  The edge tuple is left to :meth:`edges`, since the
        # recognizer and most queries read only the adjacency.
        self._adjacency: tuple[frozenset[int], ...] = tuple(map(frozenset, adjacency))
        self._labels: tuple[str, ...] = labels
        self._edges: tuple[Edge, ...] | None = None
        self._label_index: dict[str, int] | None = None

    @classmethod
    def _from_checked(cls, adjacency: list[set[int]], labels: tuple[str, ...]) -> Graph:
        """A graph from parts that need no validation (see :meth:`_build`)."""
        g = cls.__new__(cls)
        g._build(adjacency, labels)
        return g

    @property
    def vertex_count(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adjacency)) // 2

    def vertices(self) -> range:
        return range(len(self._adjacency))

    def edges(self) -> tuple[Edge, ...]:
        """All edges, sorted canonically."""
        if self._edges is None:
            # each u's larger neighbours in order, built with tuple.__new__,
            # which skips the named tuple's Python-level constructor and
            # halves the cost
            adjacency = self._adjacency
            pairs = [(u, v) for u in self.vertices() for v in sorted(adjacency[u]) if v > u]
            self._edges = tuple(map(tuple.__new__, repeat(Edge), pairs))
        return self._edges

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adjacency[v])

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return b in self._adjacency[a]

    def label(self, v: int) -> str:
        self._check_vertex(v)
        return self._labels[v]

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def vertex_with_label(self, label: str) -> int:
        if self._label_index is None:
            self._label_index = {l: v for v, l in enumerate(self._labels)}
        try:
            return self._label_index[label]
        except KeyError:
            raise DomainError(f"unknown vertex label {label!r}") from None

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._adjacency)):
            raise DomainError(f"vertex id {v} outside 0..{len(self._adjacency) - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adjacency == other._adjacency and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self._adjacency, self._labels))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    The format is line based.  Blank lines and lines starting with ``#`` are
    ignored.  An optional ``vertices: <labels>`` line declares vertices (and
    is the only way to get isolated ones).  Every other line holds exactly
    two whitespace-separated labels, one edge per line.  Vertex ids are
    assigned by first appearance.

    Raises
    ------
    EdgeListFormatError
        On self-loops, short or overlong lines, or labels the format cannot
        represent unambiguously.
    """
    index: dict[str, int] = {}
    adjacency: list[set[int]] = []
    lines = text.splitlines()
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        # Fast case: two known, different labels (reserved tokens are never known).
        try:
            a, b = tokens
            u, v = index[a], index[b]
        except (ValueError, KeyError):
            pass
        else:
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
                continue
        if not tokens or tokens[0].startswith("#"):
            continue
        header = tokens[0] == _HEADER_TOKEN
        if header:
            tokens = tokens[1:]
        elif len(tokens) != 2:
            line = lines[lineno - 1].strip()
            if len(tokens) < 2:
                raise EdgeListFormatError(f"line {lineno}: expected two vertex labels, got {line!r}")
            raise EdgeListFormatError(f"line {lineno}: unexpected extra tokens in {line!r}")
        elif a == b:
            raise EdgeListFormatError(f"line {lineno}: self-loop at {a!r}")
        for token in tokens:  # a label's first sight checks it and gives it the next id
            if token not in index:
                if token.startswith("#") or token == _HEADER_TOKEN:
                    raise EdgeListFormatError(
                        f"line {lineno}: label {token!r} is ambiguous in this format"
                    )
                index[token] = len(adjacency)
                adjacency.append(set())
        if not header:
            adjacency[index[a]].add(index[b])
            adjacency[index[b]].add(index[a])
    return Graph._from_checked(adjacency, tuple(index))


def serialize_edge_list(g: Graph) -> str:
    """Render ``g`` as edge-list text that parses back to an equal graph.

    The header line carries every label in id order, so isolated vertices
    and vertex numbering survive the round trip.  Edges are emitted sorted
    canonically; comments from parsed input are not preserved.
    """
    labels = g._labels
    lines = [" ".join([_HEADER_TOKEN, *labels])]
    lines += [f"{labels[u]} {labels[v]}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def min_degree(g: Graph) -> int:
    """Smallest vertex degree.  Raises on the empty graph."""
    if g.vertex_count == 0:
        raise DomainError("empty graph has no minimum degree")
    return min(map(len, g._adjacency))


class SupportClassification(NamedTuple):
    """Support vertices split by adjacency among themselves.

    ``sup`` holds every vertex adjacent to a leaf, ``s_plus`` the supports
    adjacent to another support, and ``s_minus`` the rest of ``sup``.
    """

    sup: frozenset[int]
    s_plus: frozenset[int]
    s_minus: frozenset[int]


def support_classification(g: Graph) -> SupportClassification:
    """Classify the support vertices of ``g``."""
    adjacency = g._adjacency
    sup = frozenset(w for near in adjacency if len(near) == 1 for w in near)
    s_plus = frozenset(v for v in sup if adjacency[v] & sup)
    return SupportClassification(sup=sup, s_plus=s_plus, s_minus=sup - s_plus)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by smallest id.  Each
    grows over a list read as it grows, by one set difference per vertex."""
    adjacency = g._adjacency
    seen: set[int] = set()
    components: list[frozenset[int]] = []
    for start in g.vertices():
        if start in seen:
            continue
        group, queue = {start}, [start]
        for x in queue:
            fresh = adjacency[x] - group
            group |= fresh
            queue += fresh
        seen |= group
        components.append(frozenset(group))
    return components


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or :data:`INFINITE_GIRTH` when acyclic.

    Runs one breadth-first search per vertex.  An edge from x to a vertex y
    found at x's depth or one deeper closes a walk of length ``dist[x] +
    dist[y] + 1`` containing a cycle no longer than that (an edge up to a
    non-parent was seen from its upper end).  After a root's search ``best``
    is at most the shortest cycle through it, so the root is deleted, then
    every vertex left with degree below two: such a vertex lies on no cycle.
    """
    adjacency = [set(near) for near in g._adjacency]

    def delete(stack: list[int]) -> None:
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                adjacency[y].discard(x)
                if len(adjacency[y]) == 1:
                    stack.append(y)
            adjacency[x] = set()

    delete([v for v in g.vertices() if len(adjacency[v]) < 2])
    best: int | float = INFINITE_GIRTH
    for root in g.vertices():
        if not adjacency[root]:
            continue
        dist = {root: 0}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            dx = dist[x]
            if 2 * dx >= best:
                continue
            for y in adjacency[x]:
                dy = dist.get(y)
                if dy is None:
                    dist[y] = dx + 1
                    queue.append(y)
                elif dy >= dx and dx + dy + 1 < best:
                    best = dx + dy + 1
        delete([root])
    return best


def _book_pages(degrees: Sequence[int]) -> int | None:
    """Page count when the vertices of a whole connected component, with
    these ``degrees``, form a triangle book, else ``None``.

    A book on k ≥ 3 vertices has 2k − 3 edges, and its two spine vertices,
    adjacent to all others, already account for all of them; conversely
    two such vertices and 2k − 3 edges leave every other vertex adjacent to
    exactly the spine.  So the edge count and the degree k − 1 decide it.
    """
    k = len(degrees)
    if k >= 3 and sum(degrees) == 2 * (2 * k - 3) and degrees.count(k - 1) >= 2:
        return k - 2
    return None
