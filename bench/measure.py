"""Closed-loop measurement and the arithmetic over its samples.

The machines this runs on are shared, and their speed drifts by a quarter
or more within a minute.  So every timed op lies between two calibrations,
outside its timed span: a fixed piece of work whose wall time tracks that
drift.  :func:`normalize` rescales each op's wall time to the speed at which
the calibration takes its reference time, which removes most of the drift
and leaves what the op itself costs.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def kernel_seconds() -> float:
    """Wall time of a fixed pure-Python kernel of set and dict work, a few ms."""
    started = time.perf_counter()
    rng = random.Random(7)
    adjacency: dict[int, set[int]] = {}
    for _ in range(3000):
        a, b = rng.randrange(500), rng.randrange(500)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    shared = 0
    for neighbours in adjacency.values():
        for w in neighbours:
            shared += len(neighbours & adjacency[w])
    sorted(adjacency.items())
    return time.perf_counter() - started


def child_seconds(argv: list[str], env: dict | None = None) -> float:
    """Wall time of one child process run to completion."""
    started = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - started


def normalize(
    latencies: Sequence[float], calibrations: Sequence[float], reference: float, window: int = 9
) -> list[float]:
    """Latencies rescaled to the speed at which a calibration takes ``reference``.

    Each latency is multiplied by ``reference`` over the median of the
    ``window`` calibrations centred on it, which follows the drift but not
    the jitter of single calibrations.
    """
    half = window // 2
    return [
        latency * reference / statistics.median(calibrations[max(0, i - half) : i + half + 1])
        for i, latency in enumerate(latencies)
    ]


@dataclass
class LoopResult:
    """What one closed-loop run over a pool did."""

    latencies: list[float] = field(default_factory=list)
    #: Per op, when asked for: the mean of the calibrations just before and
    #: just after it.
    calibrations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return ratio(self.attempted - self.failed, self.busy_seconds)

    @property
    def fail_ratio(self) -> float:
        return ratio(self.failed, self.attempted)


def run_pass(
    cases: Sequence,
    op: Callable,
    check: Callable,
    result: LoopResult,
    *,
    calibrate: Callable[[], float] | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Run every case once, in order, one at a time; return the busy seconds.

    Only ``op`` is timed.  ``check`` runs after the clock stops and returns
    an error text, or None when the output is right.  ``calibrate``, when
    given, runs before the first op and after each check, so every op lies
    between two calibrations.  An exception from
    ``op`` (any ``Exception``, ``RecursionError`` included) or a non-None
    check counts the op as failed; failed ops keep their latency sample.
    """
    busy = 0.0
    before = calibrate() if calibrate is not None else 0.0
    for case in cases:
        result.attempted += 1
        started = clock()
        try:
            output = op(case)
        except Exception as error:  # every failure is counted, none is dropped
            elapsed = clock() - started
            problem: str | None = f"{type(error).__name__}: {error}"
        else:
            elapsed = clock() - started
            try:
                problem = check(case, output)
            except Exception as error:
                problem = f"check raised {type(error).__name__}: {error}"
        if calibrate is not None:
            after = calibrate()
            result.calibrations.append((before + after) / 2)
            before = after
        result.latencies.append(elapsed)
        busy += elapsed
        if problem is not None:
            result.failed += 1
            result.failures.append((case.key, problem))
    result.passes += 1
    return busy


def run_loop(
    cases: Sequence,
    op: Callable,
    check: Callable,
    seconds: float,
    *,
    min_ops: int = 100,
    calibrate: Callable[[], float] | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> LoopResult:
    """Whole passes over ``cases`` until ``seconds`` of wall time have gone
    and at least ``min_ops`` ops were attempted.

    Stopping only between passes keeps every run's mix of inputs the same;
    ``min_ops`` leaves at least ten samples above the 90th percentile.
    """
    result = LoopResult()
    started = clock()
    while True:
        run_pass(cases, op, check, result, calibrate=calibrate, clock=clock)
        if clock() - started >= seconds and result.attempted >= min_ops:
            return result
