"""Record the reference answers the benchmark checks every op against.

    python3 bench/record_reference.py

Runs each pooled instance once, on its original labels, and writes one
record per instance to ``bench/reference.json``.  Run it only when the
expected answers are meant to change: the file pins the behaviour of the
commit it was recorded from.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        if name == "cli-mixed":
            reference[name] = workload.record()
        else:
            reference[name] = {key: workload.record(key) for key in workload.pool}
        print(f"{name}: {len(reference[name])} records", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
