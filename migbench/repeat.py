"""Exact-repeat check of counts and QoR, plus the cost of tracing.

Usage, from the root of a checkout::

    python3 migbench/repeat.py [--workloads table1,windowed,service] [--seed 7]

Per workload it makes two untraced and two traced runs under one seed.
Every QoR metric and ``ok_share`` must be identical between the untraced
runs; every per-layer ``calls`` count and share must be identical between
the traced runs, whose own coverage check must pass.  It prints the
tracing overhead as traced ``wall_s`` over untraced ``wall_s`` (medians
of the two runs each).  The exit code is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from steady import invoke, load_spec

EXACT_E2E = ("size_out", "depth_out", "size_ratio_aig", "depth_ratio_aig",
             "area_ratio_aig", "delay_ratio_aig", "power_ratio_aig", "ok_share")


def exact_layer(name: str) -> bool:
    return name.endswith(".calls") or name.endswith("_share")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = 0
    for workload in args.workloads.split(","):
        runs = {trace: [invoke(workload, args.seed, args.seconds, trace) for _ in range(2)]
                for trace in (0, 1)}
        for trace, pair in runs.items():
            for record, result in pair:
                if not result["correct"]:
                    failures += 1
                    print(f"{workload} trace={trace}: NOT correct: "
                          f"{record.get('check_failures')}")
        (_, plain_a), (_, plain_b) = runs[0]
        (_, traced_a), (_, traced_b) = runs[1]
        if set(traced_a["metrics"]) != layer_names:
            failures += 1
            print(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        compared = [(name, plain_a, plain_b) for name in EXACT_E2E]
        compared += [(name, traced_a, traced_b) for name in sorted(layer_names)
                     if exact_layer(name)]
        mismatched = [
            f"{name}: {a['metrics'][name]['value']} != {b['metrics'][name]['value']}"
            for name, a, b in compared
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]
        ]
        failures += len(mismatched)
        plain_wall = statistics.median(r["wall_s"] for r, _ in runs[0])
        traced_wall = statistics.median(r["wall_s"] for r, _ in runs[1])
        print(f"{workload}: {len(compared)} exact values compared, "
              f"{len(mismatched)} differ; tracing overhead "
              f"{traced_wall / plain_wall:.3f}x ({traced_wall:.3f}s / {plain_wall:.3f}s)")
        for line in mismatched:
            print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
