"""The benchmark's three workloads: set-up, timed passes, output checks.

Each workload is one closed-loop client in one process; pools use
:data:`WORKERS` processes.  The seed changes what a pass is fed, never
what it must compute, so every QoR figure is the same under every seed:

``table1``
    The paper's Table I experiment over all 14 circuits, serially: per
    circuit ``mighty_optimize(rounds=1, depth_effort=1)``, ``resyn2`` on
    its AIG twin, then ``map_network`` on both.  The seed shuffles the
    circuit order.  Each MIG result is proved equivalent (certified) to
    a fresh build after the pass.  A run always makes one full pass
    (about 35-60 s on a 2-vCPU host), whatever ``--seconds`` says: the
    pass cannot be cut short.  After it, the four circuits ranked around
    the median circuit time are timed once more on fresh builds, and
    their item times are the better of their two timings; ``wall_s`` is
    the pass alone.
``windowed``
    ``rand_400`` as MIG and as AIG through ``optimize_large`` on the
    pool, per-window SAT certification inside the timed call.  The seed
    picks which half runs first.
``service``
    A fresh service state directory per pass.  Writes: a small corpus of
    MIG/AIG twins is submitted and drained by ``run_pending``.  Reads:
    300 seeded ``rebuild_shuffled`` copies of the corpus are resubmitted,
    and each must be answered from the cache with the write's exact
    result.  Reads go in rounds of one copy per corpus entry, in seeded
    order, and the timed item is a round: single reads cost 5-14 ms
    depending on the entry, so a percentile of single reads would fall
    into a gap between those clusters and jump from run to run.  A pass
    takes about 2-3 s, so a run makes many of them.

Slow host phases only ever add time: on the 2-vCPU host this was tuned
on, a fixed loop runs 1.5-1.8x slower for a few seconds to over a minute
at a time, a third of the time or more, and the state often flips within
one pass.  So a run reports its fastest pass (``wall_s``, ``cpu_s``), and
each item (a read round, a window, a circuit) counts with its best time
over the run's timings of it before percentiles are taken.  A regression
slows every timing, so it moves these figures too.
"""

from __future__ import annotations

import math
import random
import resource
import shutil
import statistics
import time
from pathlib import Path

WORKLOADS = ("table1", "windowed", "service")
WORKERS = 2
FLOW_OPTIONS = {"rounds": 1, "depth_effort": 1}

#: Seconds of ``--seconds`` that one pass stands for.  A run makes
#: ``seconds / PASS_SECONDS`` passes, rounded half up and at least one,
#: so its amount of work depends on ``--seconds`` alone, never on host
#: speed.  On a 2-vCPU host a pass takes 35-60 s (table1), 6.5-10 s
#: (windowed) and 2-3.5 s (service); short service passes are weighted
#: up because their figures need the most passes to settle.  ``table1``
#: makes one pass under any ``--seconds`` below 82.
PASS_SECONDS = {"table1": 55.0, "windowed": 8.0, "service": 2.3}

SERVICE_CORPUS = ("count", "b9", "misex3")
SERVICE_ROUNDS = 50

#: Set while a timed pass runs.  Forked pool workers inherit it.
IN_PASS = {"flag": False}

#: Per-window task durations reported by the pool, appended by the probe
#: on ``repro.flows.partitioned.parallel_map_stream``.
WINDOW_TIMES = []


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / PASS_SECONDS[workload] + 0.5))


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def install_guards() -> None:
    """Fail any NPN class derivation inside a timed pass; time windows.

    The structure database is prepared before the run, so deriving a
    class in a pass means the prepared copy did not load, and the pass
    would be timing derivation instead of optimization.
    """
    from repro.flows import partitioned
    from repro.network import npn

    derive = npn._derive_structures

    def guarded_derive(kind, table):
        if IN_PASS["flag"]:
            raise RuntimeError(
                f"NPN class {kind}/{table:#06x} derived inside a timed pass: "
                "the prepared structure database did not load"
            )
        return derive(kind, table)

    npn._derive_structures = guarded_derive
    stream = partitioned.parallel_map_stream

    def timed_stream(*args, **kwargs):
        report = stream(*args, **kwargs)
        WINDOW_TIMES.extend(task.runtime_s for task in report.tasks)
        return report

    partitioned.parallel_map_stream = timed_stream


class Checks:
    """Output checks of one run; ``ok_share`` is passed over attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, condition: bool, message: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return bool(condition)


def _qor(pairs):
    """End-to-end QoR of (MIG, AIG, mapped MIG, mapped AIG) tuples."""
    size = sum(mig.num_gates for mig, _, _, _ in pairs)
    depth = sum(mig.depth() for mig, _, _, _ in pairs)
    return {
        "size_out": size,
        "depth_out": depth,
        "size_ratio_aig": geomean(m.num_gates / a.num_gates for m, a, _, _ in pairs),
        "depth_ratio_aig": geomean(m.depth() / a.depth() for m, a, _, _ in pairs),
        "area_ratio_aig": geomean(mm.area() / ma.area() for _, _, mm, ma in pairs),
        "delay_ratio_aig": geomean(mm.delay() / ma.delay() for _, _, mm, ma in pairs),
        "power_ratio_aig": geomean(mm.power() / ma.power() for _, _, mm, ma in pairs),
    }


def _mapped_qor(twins):
    from repro.mapping import map_network

    return _qor([(m, a, map_network(m), map_network(a)) for m, a in twins])


def _cec_task(item):
    """Pool task: certified CEC of one optimized MIG against a fresh build."""
    from repro.bench_circuits import build_benchmark
    from repro.core.mig import Mig
    from repro.verify import check_equivalence

    name, optimized = item
    result = check_equivalence(build_benchmark(name, Mig), optimized, num_random_vectors=256)
    return bool(result.equivalent and result.certified), result.method


class Table1:
    def import_stack(self) -> None:
        from repro.aig import resyn  # noqa: F401
        from repro.bench_circuits import suite  # noqa: F401
        from repro.flows import mighty  # noqa: F401
        from repro.mapping import mapper  # noqa: F401
        from repro.parallel import executor  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.bench_circuits import suite

        self.order = list(suite.benchmark_names())
        random.Random(seed).shuffle(self.order)
        self.inputs = self._fresh_inputs()

    def _fresh_inputs(self):
        from repro.aig.aig import Aig
        from repro.bench_circuits import suite
        from repro.core.mig import Mig

        return {
            name: (suite.build_benchmark(name, Mig), suite.build_benchmark(name, Aig))
            for name in self.order
        }

    @staticmethod
    def _circuit(mig, aig) -> tuple:
        """One circuit of the flow: (MIG, AIG, mapped MIG, mapped AIG)."""
        from repro.aig import resyn
        from repro.flows import mighty
        from repro.mapping import mapper

        mighty.mighty_optimize(mig, **FLOW_OPTIONS)
        optimized_aig, _ = resyn.resyn2(aig)
        return (mig, optimized_aig, mapper.map_network(mig), mapper.map_network(optimized_aig))

    def run_pass(self, index: int) -> dict:
        inputs = self.inputs if index == 0 else self._fresh_inputs()
        self.inputs = None
        outputs, items = {}, []
        start = time.perf_counter()
        for name in self.order:
            item_start = time.perf_counter()
            outputs[name] = self._circuit(*inputs[name])
            items.append(time.perf_counter() - item_start)
        return {"wall_s": time.perf_counter() - start, "items": items, "outputs": outputs}

    def retime_items(self, index: int, result: dict, checks: Checks) -> None:
        """Time the four circuits ranked around the median item again.

        Each becomes the better of its two timings, so one slow host
        burst does not set the median.  The second run must produce the
        pass's outputs exactly.
        """
        from repro.aig.aig import Aig
        from repro.bench_circuits import suite
        from repro.core.mig import Mig
        from repro.parallel.corpus import structural_fingerprint

        items = result["items"]
        ranked = sorted(range(len(items)), key=items.__getitem__)
        middle = len(items) // 2
        for position in ranked[max(0, middle - 2):middle + 2]:
            name = self.order[position]
            mig, aig = suite.build_benchmark(name, Mig), suite.build_benchmark(name, Aig)
            start = time.perf_counter()
            again = self._circuit(mig, aig)
            items[position] = min(items[position], time.perf_counter() - start)
            checks.expect(
                [structural_fingerprint(net) for net in again[:2]]
                == [structural_fingerprint(net) for net in result["outputs"][name][:2]],
                f"table1 pass {index}: {name} differs when run again",
            )

    def check_pass(self, index: int, result: dict, checks: Checks) -> dict:
        from repro.parallel.corpus import structural_fingerprint
        from repro.parallel.executor import parallel_map

        outputs = result["outputs"]
        report = parallel_map(
            _cec_task,
            [(name, outputs[name][0]) for name in self.order],
            workers=WORKERS,
            labels=self.order,
        )
        for name, (ok, method) in zip(self.order, report.results):
            checks.expect(ok, f"table1 pass {index}: {name} MIG not certified ({method})")
        self.qor = _qor([outputs[name] for name in sorted(outputs)])
        return {
            "fingerprints": {
                name: [structural_fingerprint(net) for net in outputs[name][:2]]
                for name in sorted(outputs)
            }
        }

    def final_qor(self) -> dict:
        return self.qor


class Windowed:
    circuit = "rand_400"

    def import_stack(self) -> None:
        from repro.bench_circuits import generator  # noqa: F401
        from repro.flows import batch  # noqa: F401
        from repro.parallel import executor  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.aig.aig import Aig
        from repro.bench_circuits import generator
        from repro.core.mig import Mig

        self.inputs = {
            "mig": generator.build_scalable(self.circuit, Mig),
            "aig": generator.build_scalable(self.circuit, Aig),
        }
        self.order = ["mig", "aig"]
        random.Random(seed).shuffle(self.order)

    def run_pass(self, index: int) -> dict:
        from repro.flows import batch

        del WINDOW_TIMES[:]
        outputs = {}
        start = time.perf_counter()
        for half in self.order:
            outputs[half] = batch.optimize_large(self.inputs[half], workers=WORKERS)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "items": list(WINDOW_TIMES), "outputs": outputs}

    def check_pass(self, index: int, result: dict, checks: Checks) -> dict:
        from repro.parallel.corpus import structural_fingerprint

        outputs = result["outputs"]
        for half, large in sorted(outputs.items()):
            records = large.details.get("per_window") or []
            checks.expect(
                len(records) == large.windows > 0,
                f"windowed pass {index}: {half} reports {len(records)} of {large.windows} windows",
            )
            for record in records:
                verdict = (record or {}).get("certified") or {}
                checks.expect(
                    bool(verdict.get("equivalent") and verdict.get("certified")),
                    f"windowed pass {index}: {half} window {record and record.get('window')} "
                    f"not certified ({verdict.get('method')})",
                )
        self.twins = [(outputs["mig"].network, outputs["aig"].network)]
        return {
            "fingerprints": {
                half: structural_fingerprint(large.network)
                for half, large in sorted(outputs.items())
            },
            "windows": {half: large.windows for half, large in sorted(outputs.items())},
        }

    def final_qor(self) -> dict:
        return _mapped_qor(self.twins)


class Service:
    def __init__(self, state_root: Path) -> None:
        self.state_dir = Path(state_root) / "service-state"

    def import_stack(self) -> None:
        from repro.bench_circuits import suite  # noqa: F401
        from repro.core import generation  # noqa: F401
        from repro.parallel import executor  # noqa: F401
        from repro.service import daemon  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.aig.aig import Aig
        from repro.bench_circuits import suite
        from repro.core import generation
        from repro.core.mig import Mig

        self.corpus = [
            suite.build_benchmark(name, cls) for name in SERVICE_CORPUS for cls in (Mig, Aig)
        ]
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(SERVICE_ROUNDS):
            targets = list(range(len(self.corpus)))
            rng.shuffle(targets)
            self.rounds.append([
                (t, generation.rebuild_shuffled(self.corpus[t], seed=rng.randrange(1 << 30)))
                for t in targets
            ])
        self.reads = [read for round_ in self.rounds for read in round_]

    @staticmethod
    def _options(network):
        from repro.core.mig import Mig

        return dict(FLOW_OPTIONS) if isinstance(network, Mig) else None

    def run_pass(self, index: int) -> dict:
        from repro.service import daemon

        shutil.rmtree(self.state_dir, ignore_errors=True)
        items = []
        start = time.perf_counter()
        service = daemon.OptimizationService(self.state_dir, workers=WORKERS)
        write_ids = [service.submit(net, flow_options=self._options(net)) for net in self.corpus]
        service.run_pending(workers=WORKERS)
        invocations_after_writes = service.optimizer_invocations
        read_ids = []
        for round_ in self.rounds:
            item_start = time.perf_counter()
            for _, network in round_:
                read_ids.append(service.submit(network, flow_options=self._options(network)))
            items.append(time.perf_counter() - item_start)
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "items": items,
            "outputs": {
                "service": service,
                "write_ids": write_ids,
                "read_ids": read_ids,
                "invocations_after_writes": invocations_after_writes,
            },
        }

    def check_pass(self, index: int, result: dict, checks: Checks) -> dict:
        from repro.parallel.corpus import structural_fingerprint
        from repro.service.daemon import RESULTS_SUITE
        from repro.service.jobs import decode_network

        out = result["outputs"]
        service = out["service"]
        writes = []
        for job_id in out["write_ids"]:
            row = service.rows.read(RESULTS_SUITE, job_id) or {}
            ok = row.get("status") == "done" and not row.get("cached") and row.get("network")
            checks.expect(bool(ok), f"service pass {index}: write {job_id} did not complete")
            writes.append(row)
        checks.expect(
            out["invocations_after_writes"] == len(self.corpus)
            and service.optimizer_invocations == len(self.corpus),
            f"service pass {index}: {service.optimizer_invocations} optimizer runs "
            f"for {len(self.corpus)} writes",
        )
        networks = [decode_network(row["network"]) if row.get("network") else None for row in writes]
        replayed = {}  # payload -> structural fingerprint of the decoded network
        for (target, _), job_id in zip(self.reads, out["read_ids"]):
            row = service.rows.read(RESULTS_SUITE, job_id) or {}
            payload = row.get("network")
            if payload and payload not in replayed:
                replayed[payload] = structural_fingerprint(decode_network(payload))
            expected = writes[target].get("result_fingerprint")
            checks.expect(
                bool(row.get("cached"))
                and row.get("result_fingerprint") == expected
                and replayed.get(payload) == expected,
                f"service pass {index}: read {job_id} is not a bit-identical cache hit",
            )
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.twins = [(networks[i], networks[i + 1]) for i in range(0, len(networks), 2)]
        return {
            "fingerprints": [row.get("result_fingerprint") for row in writes],
            "cache_hits": service.cache.hits,
        }

    def final_qor(self) -> dict:
        return _mapped_qor(self.twins)


def setup(workload: str, seed: int, state_root: Path, before_build=None):
    """Imports, pool warm-up with the structure DB, inputs built."""
    bench = Service(state_root) if workload == "service" else {
        "table1": Table1, "windowed": Windowed}[workload]()
    bench.import_stack()
    if before_build is not None:
        before_build()
    from repro.parallel import executor

    executor.warm_worker()
    bench.build(seed)
    return bench


def reference_loop() -> float:
    """A fixed pure-Python loop, timed to tell a slow host from a regression."""
    start = time.perf_counter()
    table = {}
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def summarize_items(items) -> dict:
    """Median and 90th percentile of item times."""
    ordered = sorted(items)
    return {
        "item_p50_s": statistics.median(ordered),
        "item_p90_s": statistics.quantiles(ordered, n=10)[-1] if len(ordered) > 1 else ordered[0],
    }
