"""Steadiness check: run the workloads alternately and report the spread.

Usage, from the root of a checkout::

    python3 migbench/steady.py --runs 10 [--sets 2] [--workloads table1,service]

Each round runs every workload once, each run under a new seed, so
workloads alternate and host drift is shared between them.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and that spread against the metric's ``bound`` in ``BENCHMARK.json``.
With ``--sets 2`` a second set of rounds follows and the worse-direction
shift of each median is printed against the bound as well.  Every run
must report ``correct``; the exit code is 1 if any run does not, or if a
spread or a median shift of any metric, ``setup_s`` included, exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns (record, result) parsed from its output."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def run_set(workloads, runs: int, seconds: int, first_seed: int) -> tuple:
    values = {w: {} for w in workloads}
    wrong = 0
    for index in range(runs):
        for workload in workloads:
            seed = first_seed + index
            start = time.perf_counter()
            record, result = invoke(workload, seed, seconds, 0)
            elapsed = time.perf_counter() - start
            if not result["correct"]:
                wrong += 1
                print(f"  {workload} seed {seed}: NOT correct: {record.get('check_failures')}")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"  {workload} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.3f}"
                  f" setup_s {result['metrics']['setup_s']['value']:.3f}"
                  f" checks {record['check_s']:.1f}s run {elapsed:.1f}s", flush=True)
    return values, wrong


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", help="write every measured value to this JSON file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to take quartiles")
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    sets, wrong = [], 0
    for index in range(args.sets):
        print(f"set {index + 1}: {args.runs} rounds of {workloads}", flush=True)
        values, bad = run_set(workloads, args.runs, args.seconds,
                              args.first_seed + index * args.runs)
        sets.append(values)
        wrong += bad
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1), encoding="utf-8")

    failures = wrong
    for number, values in enumerate(sets, 1):
        print(f"set {number}: {'workload':9s} {'metric':16s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'s/b':>5s}"
              + ("  shift" if number == 2 else ""))
        for workload in workloads:
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                median, q1, q3, rel = spread(values[workload][name])
                line = (f"set {number}: {workload:9s} {name:16s} {median:12.6g} {q1:12.6g} "
                        f"{q3:12.6g} {rel:7.4f} {bound:6.3f} {rel / bound:5.2f}")
                if rel > bound:
                    failures += 1
                    line += "  SPREAD>BOUND"
                if number == 2:
                    first = statistics.median(sets[0][workload][name])
                    change = (median - first) / first if first else 0.0
                    worse = change if metric["better"] == "lower" else -change
                    line += f"  {worse:+.4f}"
                    if worse > bound:
                        failures += 1
                        line += " SHIFT>BOUND"
                print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
