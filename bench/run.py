"""Run one workload of the domatch benchmark and print its metrics.

    python3 bench/run.py --workload recognize-leafless --seed 1 --seconds 25 --trace 0

One client, one process, closed loop: the next op starts when the previous
one has returned (for ``cli-mixed``, when its child has exited).  With
``--trace 0`` the run is timed without instrumentation and prints the
end-to-end metrics; with ``--trace 1`` it alternates plain and traced passes
over the same pool and prints the per-layer metrics.  Either way every op is
checked, and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import measure
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Child runs per interpreter probe in the traced run.
PROBE_REPEATS = 10
#: Calibration times that define the reference speed end-to-end times are
#: scaled to: the kernel's and a ``python -c pass`` child's wall time on a
#: quiet 2-core x86-64 container.  Only ratios between runs matter.
KERNEL_REFERENCE_S = 0.006
CHILD_REFERENCE_S = 0.045

# Per-layer metrics, in the order BENCHMARK.json lists them.  Self times are
# seconds per op of the traced passes; counts are per pass over the pool.
OP_SELF = (
    "recognizer.build_candidate_matching",
    "recognizer.check_degree_two_certificate",
    "recognizer.recognize",
    "characterization.check_certificate_conditions",
    "characterization.partition_matching",
    "oracles.total_domination_number",
    "oracles.minimum_maximal_matching",
    "graph.parse_edge_list",
    "graph.connected_components",
    "graph.girth",
)
CALLS = (
    "graph.induced_subgraph",
    "graph.is_cycle_of_length",
    "characterization.check_certificate_conditions",
    "graph.support_classification",
    "graph.min_degree",
    "graph.parse_edge_list",
)
COUNTERS = (
    "recognizer.candidate_edges",
    "characterization.iter_maximal_matchings.yielded",
    "oracles.total_domination_number.nodes",
    "oracles.minimum_maximal_matching.nodes",
    "cli.stdout_bytes",
)
CLI_SUBCOMMANDS = ("generate", "recognize", "verify", "gamma-t", "mu-star", "bounds")
SETUP_SELF = ("generators.random_tight_graph", "graph.serialize_edge_list")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.self_s": "s/op" for name in OP_SELF}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in COUNTERS})
    units["cli.stdout_bytes"] = "bytes"
    units.update(
        {
            "recognizer.cycle6_hit_ratio": "ratio",
            "characterization.is_maximal_matching.self_s": "s/op",
            "characterization.certify_hit_ratio": "ratio",
            "oracles.td_nodes_per_s": "1/s",
            "oracles.mmm_nodes_per_s": "1/s",
            "cli.interpreter_start_ms": "ms",
            "cli.import_ms": "ms",
        }
    )
    units.update({f"cli.{sub}.self_s": "s/op" for sub in CLI_SUBCOMMANDS})
    units.update({f"{name}.self_s": "s/setup" for name in SETUP_SELF})
    units["generators.build_tight_graph.calls"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def kernel_calibration() -> float:
    return statistics.median(measure.kernel_seconds() for _ in range(3))


def collect_and_calibrate() -> float:
    # Each op starts on a collected heap, so which op pays for collecting
    # the garbage of earlier ones does not depend on the order of the ops.
    gc.collect()
    return measure.kernel_seconds()


def timed_run(workload, seed: int, seconds: float, import_s: float, workloads):
    # Set-up: scaled like the ops, by a kernel calibration taken just before.
    setups = []
    for _ in range(SETUP_REPEATS):
        calibration = kernel_calibration()
        started = time.perf_counter()
        cases = workload.setup(seed, workloads.load_reference())
        setups.append((time.perf_counter() - started, calibration))

    # Keep the harness's own objects out of the cyclic collector's scans, so
    # a collection during an op costs what it would in a process of its own.
    workload.prepare_checks(cases)
    gc.collect()
    gc.freeze()

    if workload.name == "cli-mixed":
        argv = [sys.executable, "-c", "pass"]
        calibrate, reference = (lambda: measure.child_seconds(argv, workload.env)), CHILD_REFERENCE_S
        who = resource.RUSAGE_CHILDREN
    else:
        calibrate, reference = collect_and_calibrate, KERNEL_REFERENCE_S
        who = resource.RUSAGE_SELF
    loop = measure.run_loop(cases, workload.op, workload.check, seconds, calibrate=calibrate)
    scaled = measure.normalize(loop.latencies, loop.calibrations, reference)

    metrics = {
        "ops_per_s": measure.ratio(loop.attempted - loop.failed, sum(scaled)),
        "latency_p50_ms": measure.percentile(scaled, 50) * 1000,
        "latency_p90_ms": measure.percentile(scaled, 90) * 1000,
        "setup_s": import_s + statistics.median(t * KERNEL_REFERENCE_S / c for t, c in setups),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }
    p90 = measure.percentile(scaled, 90)
    notes = {
        "fail_ratio": f"{loop.fail_ratio} ratio",
        "latency samples": f"{len(scaled)} ({sum(x > p90 for x in scaled)} above p90)",
        "passes": f"{loop.passes} over {len(cases)} inputs",
        "calibration": f"median {statistics.median(loop.calibrations)} s, reference {reference} s",
        "wall ops_per_s": f"{loop.ops_per_s} 1/s",
        "wall latency_p50_ms": f"{measure.percentile(loop.latencies, 50) * 1000} ms",
        "wall latency_p90_ms": f"{measure.percentile(loop.latencies, 90) * 1000} ms",
        "wall setups": " ".join(f"{t:.4f}" for t, _ in setups) + " s",
    }
    return metrics, END_TO_END_UNITS, loop, notes


def traced_run(workload, seed: int, seconds: float, workloads):
    modules = {short: importlib.import_module(f"domatch.{short}") for short in spans.MODULES}
    instrumentation = spans.Instrumentation(modules)

    setup_tracer = spans.Tracer()
    instrumentation.install(setup_tracer)
    try:
        root = setup_tracer.begin("bench.setup")
        cases = workload.setup(seed, workloads.load_reference())
        setup_tracer.end(root)
    finally:
        instrumentation.uninstall()
    workload.prepare_checks(cases)
    setup_table = spans.summarize(setup_tracer.spans)

    is_cli = workload.name == "cli-mixed"
    if is_cli:
        workload.in_process = True  # spans need the program in this process
    loop = measure.LoopResult()
    plain_s = traced_s = 0.0
    totals: dict[str, list] = {}
    first = None
    started = time.perf_counter()
    while True:
        plain_s += measure.run_pass(cases, workload.op, workload.check, loop)
        tracer = spans.Tracer()

        def traced_op(case, tracer=tracer):
            tracer.op = loop.attempted
            root = tracer.begin(f"cli.{case.key.split(':', 1)[0]}" if is_cli else "bench.op")
            try:
                output = workload.op(case)
            finally:
                tracer.end(root)
            if is_cli:
                tracer.counters["cli.stdout_bytes"] += len(output[1])
            return output

        instrumentation.install(tracer)
        try:
            traced_s += measure.run_pass(cases, traced_op, workload.check, loop)
        finally:
            instrumentation.uninstall()
        table = spans.summarize(tracer.spans)
        for name, (calls, total, own) in table.items():
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        if first is None:
            first = (tracer.spans, tracer.counters, table)
        if time.perf_counter() - started >= seconds:
            break
    first_spans, counters, first_table = first
    traced_passes = loop.passes // 2
    traced_ops = traced_passes * len(cases)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(measure.child_seconds([sys.executable, "-c", "pass"], env) * 1000)
        imported.append(measure.child_seconds([sys.executable, "-c", "import domatch"], env) * 1000)
    interpreter_ms = statistics.median(bare)

    def self_per_op(name: str) -> float:
        return measure.ratio(totals.get(name, [0, 0.0, 0.0])[2], traced_ops)

    def calls(name: str) -> int:
        return first_table.get(name, [0])[0]

    def nodes_per_s(name: str) -> float:
        seconds_per_pass = measure.ratio(totals.get(name, [0, 0.0, 0.0])[2], traced_passes)
        return measure.ratio(counters[f"{name}.nodes"], seconds_per_pass)

    metrics = {f"{name}.self_s": self_per_op(name) for name in OP_SELF}
    metrics.update({f"{name}.calls": calls(name) for name in CALLS})
    metrics.update({name: counters[name] for name in COUNTERS})
    metrics["recognizer.cycle6_hit_ratio"] = measure.ratio(
        counters["recognizer.cycle6_hits"], counters["recognizer.pairs_examined"]
    )
    metrics["characterization.is_maximal_matching.self_s"] = self_per_op(
        "oracles.is_maximal_matching@characterization"
    )
    metrics["characterization.certify_hit_ratio"] = measure.ratio(
        counters["characterization.certificates_found"],
        calls("characterization.check_certificate_conditions@characterization"),
    )
    metrics["oracles.td_nodes_per_s"] = nodes_per_s("oracles.total_domination_number")
    metrics["oracles.mmm_nodes_per_s"] = nodes_per_s("oracles.minimum_maximal_matching")
    metrics["cli.interpreter_start_ms"] = interpreter_ms
    metrics["cli.import_ms"] = statistics.median(imported) - interpreter_ms
    for sub in CLI_SUBCOMMANDS:
        calls_, _, own = totals.get(f"cli.{sub}", [0, 0.0, 0.0])
        metrics[f"cli.{sub}.self_s"] = measure.ratio(own, calls_)
    for name in SETUP_SELF:
        metrics[f"{name}.self_s"] = setup_table.get(name, [0, 0.0, 0.0])[2]
    metrics["generators.build_tight_graph.calls"] = setup_table.get(
        "generators.build_tight_graph", [0]
    )[0]
    metrics["trace.overhead_ratio"] = measure.ratio(traced_s, plain_s)

    span_dir = os.path.join(workloads.WORK_DIR, "spans")
    os.makedirs(span_dir, exist_ok=True)
    stem = os.path.join(span_dir, f"{workload.name}-seed{seed}")
    spans.write_spans(f"{stem}-setup.csv", setup_tracer.spans)
    spans.write_spans(f"{stem}-pass.csv", first_spans)

    # Shares of the traced ops' wall time: roots are the spans without a parent.
    op_total = sum(row[1] for name, row in totals.items() if name.endswith("@"))
    shares = sorted(
        (
            (measure.ratio(row[2], op_total), measure.ratio(row[1], op_total), name)
            for name, row in totals.items()
            if "@" not in name
        ),
        reverse=True,
    )
    notes = {
        "fail_ratio": f"{loop.fail_ratio} ratio",
        "passes": f"{traced_passes} traced and {loop.passes - traced_passes} plain over {len(cases)} inputs",
        "span files": f"{stem}-setup.csv {stem}-pass.csv",
    }
    if is_cli:
        median_op = statistics.median(loop.latencies) * 1000
        notes["median in-process op"] = f"{median_op} ms"
    for own, total, name in shares[:8]:
        notes[f"share of op time {name}"] = f"self {own:.4f} total {total:.4f}"
    return metrics, per_layer_units(), loop, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    calibration = kernel_calibration()
    started = time.perf_counter()
    importlib.import_module("domatch")
    importlib.import_module("domatch.cli")
    import_s = (time.perf_counter() - started) * KERNEL_REFERENCE_S / calibration

    import workloads  # imports domatch, so only after the timed import

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, units, loop, notes = traced_run(workload, args.seed, args.seconds, workloads)
    else:
        metrics, units, loop, notes = timed_run(
            workload, args.seed, args.seconds, import_s, workloads
        )

    print(f"workload: {workload.name} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    for name, text in notes.items():
        print(f"# {name}: {text}")
    for key, problem in loop.failures[:10]:
        print(f"# failed {key}: {problem}")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
