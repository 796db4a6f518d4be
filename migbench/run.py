"""Benchmark of the MIG stack: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 migbench/run.py --workload table1|windowed|service \\
        --seed N --seconds S --trace 0|1

A run makes ``S / PASS_SECONDS`` timed passes (rounded, at least one;
``table1`` always makes one), checks every output, and prints a record
line (host, structure-DB hash, per-pass figures) followed by the result
as the last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of :mod:`layers`, measured in a separate run because tracing
costs time.  ``wall_s`` and ``cpu_s`` are those of the run's fastest
pass; the item percentiles are taken over each item's best time in the
run (see :mod:`workloads`).  ``setup_s`` is the median
of :data:`SETUP_SAMPLES` set-up timings: the run's own and those of fresh
interpreters that import the stack, warm the pool state (canonical NPN
map and structure DB) and build the inputs, spread over the run.

Prepared state lives in ``.migbench/`` at the checkout root: the complete
NPN structure DB is derived once per source tree, and every measuring
process loads a private copy of it through ``REPRO_NPN_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".migbench"
#: Set-up samples per run: the run's own set-up plus fresh-interpreter
#: probes spread over the run.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def master_db() -> Path:
    """The complete structure DB for this source tree, derived once."""
    master = STATE / f"npn-{source_hash()}"
    if (master / "COMPLETE").is_file():
        return master
    STATE.mkdir(exist_ok=True)
    for stale in STATE.glob("npn-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staging = STATE / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    env = dict(os.environ, REPRO_NPN_CACHE_DIR=str(staging))
    subprocess.run(
        [sys.executable, str(Path(__file__)), "--prepare"],
        env=env, check=True, timeout=600, stdout=sys.stderr,
    )
    (staging / "COMPLETE").write_text("222 classes x mig/aig\n", encoding="utf-8")
    staging.rename(master)
    return master


def prepare() -> None:
    """Child of :func:`master_db`: byte-compile, derive and verify the DB."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    sys.path.insert(0, str(SRC))
    from repro.network import npn

    stats = npn.derive_structures_parallel(workers=2)
    npn.reset_structure_db()
    derived = []
    derive = npn._derive_structures
    npn._derive_structures = lambda kind, table: derived.append(table) or derive(kind, table)
    from repro.parallel.executor import warm_worker

    warm_worker()
    if derived:
        raise SystemExit(f"prepared structure DB misses {len(derived)} classes")
    print(f"prepared NPN structure DB: {stats}", file=sys.stderr)


def private_copy(master: Path) -> Path:
    """A private copy of the DB for one measuring process."""
    home = STATE / f"proc-{uuid.uuid4().hex[:12]}"
    shutil.copytree(master, home / "npn")
    return home


def probe_setup(master: Path, workload: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter, as it measures them itself."""
    home = private_copy(master)
    env = dict(os.environ, REPRO_NPN_CACHE_DIR=str(home / "npn"))
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload,
           "--seed", str(seed), "--home", str(home)]
    try:
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "READY":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {out!r})")
        return float(words[1])
    finally:
        shutil.rmtree(home, ignore_errors=True)


def host_record(workers: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "pool_workers": workers,
    }


def run(args, master: Path) -> int:
    home = private_copy(master)
    os.environ["REPRO_NPN_CACHE_DIR"] = str(home / "npn")
    sys.path.insert(0, str(SRC))
    try:
        return _measure(args, master, home)
    finally:
        shutil.rmtree(home, ignore_errors=True)


def probe_schedule(boundaries: int, probes: int) -> list:
    """How many set-up probes to run at each of ``boundaries`` points.

    The points are the gaps between the untimed steps of a run; probes
    are spread evenly over them, so that one slow host burst (a few
    seconds) covers as few set-up samples as possible.
    """
    counts = [0] * boundaries
    for i in range(probes):
        counts[max(0, round((i + 1) * boundaries / probes) - 1)] += 1
    return counts


def _measure(args, master: Path, home: Path) -> int:
    tracer = None
    before_build = None
    if args.trace:
        import layers

        trace_dir = home / "trace"
        trace_dir.mkdir()
        tracer = layers.Tracer(trace_dir)

        def before_build():
            layers.install(tracer)
            tracer.phase = "setup"

    setup_start = time.perf_counter()
    bench = workloads.setup(args.workload, args.seed, home, before_build=before_build)
    setup_samples = [time.perf_counter() - setup_start]
    workloads.install_guards()
    if tracer is not None:
        tracer.phase = None

    from repro.network import npn

    db_generation = npn.structure_db_generation()
    passes = workloads.pass_count(args.workload, args.seconds)
    retime = getattr(bench, "retime_items", None)
    # Boundaries: after each pass, after each check, after the re-time
    # step (table1), after the final QoR.
    schedule = probe_schedule(2 * passes + (retime is not None) + 1,
                              0 if args.trace else SETUP_SAMPLES - 1)
    boundary = iter(schedule)

    def next_boundary():
        for _ in range(next(boundary)):
            setup_samples.append(probe_setup(master, args.workload, args.seed))

    checks = workloads.Checks()
    records, fingerprints, best_items = [], None, None
    check_s = 0.0
    for index in range(passes):
        ref_before = workloads.reference_loop()
        cpu_start = workloads.cpu_seconds()
        workloads.IN_PASS["flag"] = True
        if tracer is not None:
            tracer.phase = "pass"
        try:
            result = bench.run_pass(index)
        finally:
            workloads.IN_PASS["flag"] = False
            if tracer is not None:
                tracer.phase = None
        cpu = workloads.cpu_seconds() - cpu_start
        rss = workloads.peak_rss_mb()
        ref_after = workloads.reference_loop()
        if tracer is not None:
            tracer.collect_workers()
        next_boundary()
        check_start = time.perf_counter()
        summary = bench.check_pass(index, result, checks)
        check_s += time.perf_counter() - check_start
        if fingerprints is None:
            fingerprints = summary["fingerprints"]
        checks.expect(
            summary["fingerprints"] == fingerprints,
            f"pass {index}: outputs differ from pass 0",
        )
        next_boundary()
        if retime is not None:
            check_start = time.perf_counter()
            workloads.IN_PASS["flag"] = True
            try:
                retime(index, result, checks)
            finally:
                workloads.IN_PASS["flag"] = False
            check_s += time.perf_counter() - check_start
            next_boundary()
        # The same items recur in every pass: keep each one's best time.
        if best_items is None:
            best_items = list(result["items"])
        elif checks.expect(len(result["items"]) == len(best_items),
                           f"pass {index}: {len(result['items'])} items, pass 0 had "
                           f"{len(best_items)}"):
            best_items = [min(a, b) for a, b in zip(best_items, result["items"])]
        records.append({"wall_s": result["wall_s"], "cpu_s": cpu, "items": len(result["items"]),
                        **workloads.summarize_items(result["items"]),
                        "reference_loop_s": [ref_before, ref_after],
                        **{k: v for k, v in summary.items() if k != "fingerprints"}})
        del result
    qor_start = time.perf_counter()
    qor = bench.final_qor()
    check_s += time.perf_counter() - qor_start
    checks.expect(
        npn.structure_db_generation() == db_generation
        and tree_hash(home / "npn") == tree_hash(master),
        "the structure DB changed during the timed passes",
    )
    next_boundary()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "host": host_record(workloads.WORKERS),
        "npn_db_sha256": tree_hash(home / "npn"),
        "setup_samples_s": setup_samples,
        "per_pass": records,
        "check_s": check_s,
        "wall_s": min(r["wall_s"] for r in records),
        "qor": qor,
        "check_failures": checks.messages,
    }
    if tracer is not None:
        errors = tracer.coverage_errors(args.workload)
        record["coverage_errors"] = errors
        for error in errors:
            checks.expect(False, f"coverage: {error}")
        metrics = tracer.metrics()
    else:
        ok_share = (checks.attempted - checks.failed) / checks.attempted
        values = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (record["wall_s"], "s"),
            "cpu_s": (min(r["cpu_s"] for r in records), "s"),
            "peak_rss_mb": (rss, "MB"),
            **{k: (v, "s") for k, v in workloads.summarize_items(best_items).items()},
            "size_out": (qor["size_out"], "gates"),
            "depth_out": (qor["depth_out"], "levels"),
            **{k: (v, "ratio") for k, v in qor.items() if k.endswith("_ratio_aig")},
            "ok_share": (ok_share, "ratio"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--home", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.prepare:
        prepare()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        workloads.setup(args.workload, args.seed, Path(args.home))
        print("READY", time.perf_counter() - start, flush=True)
        return 0
    return run(args, master_db())


if __name__ == "__main__":
    sys.exit(main())
