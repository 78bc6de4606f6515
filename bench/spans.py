"""In-memory spans around the calls between domatch's modules.

A :class:`Tracer` records one span per call of a wrapped function: its name,
start, end, the index of the span that was open when it began (its parent)
and the id of the benchmark operation it belongs to.  :class:`Instrumentation`
swaps the public functions bound in each domatch module for wrappers that
record such spans, and puts the originals back afterwards.  Nothing here
changes what a wrapped function receives or returns.

Span names are ``<defining module>.<function>``, whichever module the call
came from, so ``recognizer.build_candidate_matching`` and
``graph.induced_subgraph`` read the same at every call site.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import Counter

#: Modules whose public functions are wrapped, by their short names.
MODULES = ("graph", "oracles", "characterization", "recognizer", "generators", "cli")

#: Entry points the benchmark times itself; wrapping them would hide their
#: self time inside a second span of the same extent.
UNWRAPPED = frozenset({"cli.main"})


class Tracer:
    """Span recorder for one thread.

    ``spans`` holds ``[name, start, end, parent, op]`` lists in the order the
    spans began; ``parent`` is an index into ``spans`` or -1.  ``counters``
    collects the counts the wrappers' hooks add.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: object = None
        self.counters: Counter = Counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended while span {popped} was open")

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else None


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in span order.

    Self time is a span's duration minus the time its child spans cover.
    Spans come from one call stack, so a span's children never overlap and
    the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, list]:
    """Per span name: ``[calls, total seconds, self seconds]``.

    A call also appears under ``<name>@<caller module>``, the module of its
    parent span (empty for a span without parent), so a shared function's
    time can be split by call site.
    """
    table: dict[str, list] = {}
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        caller = spans[parent][0].split(".", 1)[0] if parent >= 0 else ""
        for key in (name, f"{name}@{caller}"):
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
    return table


def write_spans(path: str, spans: list[list]) -> None:
    """Write spans as CSV: index, name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(["index", "name", "start", "end", "parent", "op"])
        for index, (name, start, end, parent, op) in enumerate(spans):
            out.writerow([index, name, f"{start:.9f}", f"{end:.9f}", parent, op])


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens, after the wrapped call returns


def _candidate_scan(tracer: Tracer, index: int, args: tuple, result) -> None:
    g = args[0]
    d2 = sum(1 for v in g.vertices() if g.degree(v) == 2)
    tracer.counters["recognizer.pairs_examined"] += d2 * (d2 - 1) // 2
    tracer.counters["recognizer.candidate_edges"] += len(result)


def _cycle_test(tracer: Tracer, index: int, args: tuple, result) -> None:
    if result and tracer.parent_name(index) == "recognizer.build_candidate_matching":
        tracer.counters["recognizer.cycle6_hits"] += 1


def _search_nodes(name: str):
    def hook(tracer: Tracer, index: int, args: tuple, result) -> None:
        tracer.counters[name + ".nodes"] += result.stats.nodes

    return hook


def _certificate_search(tracer: Tracer, index: int, args: tuple, result) -> None:
    tracer.counters["characterization.certificates_found"] += result is not None


HOOKS = {
    "recognizer.build_candidate_matching": _candidate_scan,
    "graph.is_cycle_of_length": _cycle_test,
    "oracles.total_domination_number": _search_nodes("oracles.total_domination_number"),
    "oracles.minimum_maximal_matching": _search_nodes("oracles.minimum_maximal_matching"),
    "characterization.find_certifying_matching": _certificate_search,
}


# ---------------------------------------------------------------------------
# wrappers


def _wrap_function(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, index, args, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    # One span per resumption, so time spent by the consumer between items is
    # not charged to the generator.  Items are passed on one at a time, as
    # the caller asks for them, and closing the wrapper closes the original.
    yielded = name + ".yielded"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                tracer.counters[yielded] += 1
                yield item
        finally:
            inner.close()

    return wrapper


class Instrumentation:
    """Installs and removes span wrappers on domatch's module bindings.

    Every public function bound in one of :data:`MODULES`, whether defined
    there or imported from a sibling, is replaced in that module's namespace,
    so calls between modules and within one module both pass a wrapper.
    """

    def __init__(self, modules: dict[str, object]) -> None:
        self._originals: list[tuple[object, str, object, str]] = []
        for short in MODULES:
            module = modules[short]
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("domatch."):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                if name in UNWRAPPED:
                    continue
                self._originals.append((module, attr, value, name))
        self.installed = False

    def install(self, tracer: Tracer) -> None:
        if self.installed:
            raise RuntimeError("wrappers are already installed")
        for module, attr, fn, name in self._originals:
            if inspect.isgeneratorfunction(fn):
                wrapped = _wrap_generator(tracer, name, fn)
            else:
                wrapped = _wrap_function(tracer, name, fn, HOOKS.get(name))
            setattr(module, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._originals:
            setattr(module, attr, fn)
        self.installed = False
