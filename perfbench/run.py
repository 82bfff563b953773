"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload isp_poisson --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` the
per-layer ones (plus the untraced episodes they are compared with).
Human-readable lines (episodes, ``sim_digest``, check failures) go
first; the last line of standard output is the JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metric names and
units are those of ``BENCHMARK.json``.  The process exits non-zero,
printing no result, when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.bench import end_to_end, run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    run = run_workload(args.workload, args.seed, args.seconds,
                       trace=bool(args.trace))
    values = run.layers if args.trace else end_to_end(run)
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} do not match "
              f"BENCHMARK.json {section} {sorted(units)}", file=sys.stderr)
        return 3

    for index, episode in enumerate(run.episodes):
        print(f"episode {index}: setup "
              f"{statistics.median(episode.setup_s):.4f} s "
              f"(wall {statistics.median(episode.raw_setup_s):.4f} s), "
              f"run {episode.run_s:.4f} s (wall {episode.raw_run_s:.4f} s), "
              f"{episode.ops} ops, sim_digest {episode.digest}")
    bench = run.first.metrics["bench"]
    print(f"workload {run.workload} seed {run.seed}: sim_digest "
          f"{run.episodes[0].digest}; latency samples: "
          f"{bench['read_ns']['count']} reads, "
          f"{bench['write_ns']['count']} writes")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name in units:
        print(f"  {name:32s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
