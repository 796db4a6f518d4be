"""Benchmark-side tracing of the MIG stack, one span per call into a layer.

Nothing under ``src/`` is instrumented.  :func:`install` replaces each
traced function or method with a wrapper at *every* binding that refers
to it: the defining module's attribute, every ``from x import f`` copy in
another ``repro`` module (``core.activity_opt`` binds ``cone_nodes`` by
name, ``service.results`` binds ``canonical_fingerprint``), and default
argument values such as ``parallel_map(warmup=warm_worker)``.  Methods
are patched on the class that defines them.

Self time is a span's duration minus the time covered by traced spans it
caused.  Pool workers are forked from the traced parent, so they inherit
the wrappers; they do not run ``atexit`` hooks, so every worker rewrites
its cumulative counters to a private file in the trace directory after
each task chunk, and the parent merges those files after the pass.

:data:`LAYER_METRICS` is the map from each per-layer metric to the
end-to-end metric and workload it should move, and the workloads on
which it must read zero.  Names, units and directions come from the
``per_layer`` list of ``BENCHMARK.json``; the two lists must name the
same metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import uuid
from pathlib import Path

from workloads import WORKLOADS

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Spans that are recorded during set-up only; every other span is
#: recorded inside timed passes only.  The pool's parent calls
#: ``warm_worker`` again on each map inside a pass; that time stays in
#: ``parallel.pool`` (``parallel.parent_wait_s``).
SETUP_KEYS = frozenset({"parallel.warm_worker", "bench_circuits.build"})

#: Spans that keep each call's duration, for percentiles.
DURATION_KEYS = frozenset({"parallel.window_task"})


def _depth_lowered(result):
    return result.final_depth < result.initial_depth


def _size_lowered(result):
    return result.final_size < result.initial_size


def _rewrite_gained(result):
    return result.get("gain", 0) > 0


def _certified(result):
    return bool(result.equivalent and getattr(result, "certified", True))


def _window_improved(result):
    return result[0] is not None


def _cache_hit(result):
    return result is not None


#: Span key -> the callables it covers, as (module, attribute path).  A
#: dotted path names a method on a class.  ``useful`` marks a call whose
#: outcome was useful (lowered depth, a cache hit, ...).
TARGETS = {
    "flows.mighty_optimize": {"where": [("repro.flows.mighty", "mighty_optimize")]},
    "core.optimize_depth": {
        "where": [("repro.core.depth_opt", "optimize_depth")],
        "useful": _depth_lowered,
    },
    "core.push_up": {"where": [("repro.core.depth_opt", "push_up")]},
    "core.cone_nodes": {"where": [("repro.core.rules", "cone_nodes")]},
    "core.optimize_size": {
        "where": [("repro.core.size_opt", "optimize_size")],
        "useful": _size_lowered,
    },
    "core.reshape": {"where": [("repro.core.reshape", "reshape")]},
    "core.balance_mig": {"where": [("repro.core.balance", "balance_mig")]},
    "network.substitute": {"where": [("repro.network.base", "LogicNetwork.substitute")]},
    "network.levels": {"where": [("repro.network.base", "LogicNetwork.levels")]},
    "network.topological_order": {
        "where": [("repro.network.base", "LogicNetwork.topological_order")]
    },
    "network.copy": {"where": [("repro.network.base", "LogicNetwork.copy")]},
    # The kernel primitives behind them: level repair after a fanin change
    # and the full topology rebuild.
    "network.update_level": {"where": [("repro.network.base", "LogicNetwork._update_level")]},
    "network.rebuild_topology": {
        "where": [("repro.network.base", "LogicNetwork._rebuild_topology")]
    },
    "network.cut_rewrite": {
        "where": [("repro.network.rewrite", "cut_rewrite")],
        "useful": _rewrite_gained,
    },
    # Both entry points of cut enumeration: from scratch and incremental.
    "network.enumerate_cuts": {
        "where": [
            ("repro.network.cuts", "enumerate_cuts"),
            ("repro.network.cuts", "CutManager.cuts"),
        ]
    },
    "network.get_structures": {"where": [("repro.network.npn", "get_structures")]},
    "aig.resyn2": {"where": [("repro.aig.resyn", "resyn2")]},
    "mapping.map_network": {"where": [("repro.mapping.mapper", "map_network")]},
    "verify.check_equivalence": {
        "where": [("repro.verify.equivalence", "check_equivalence")],
        "useful": _certified,
    },
    "verify.sat_sweep": {"where": [("repro.verify.sweep", "sat_sweep")]},
    "verify.encode_network": {"where": [("repro.verify.cnf", "encode_network")]},
    # The code generation that CEC reaches: the flattened IR behind CNF
    # encoding, and the generated simulation kernel of the SAT sweeper.
    "codegen.network_ir": {"where": [("repro.codegen.ir", "network_ir")]},
    "codegen.graph_sim": {"where": [("repro.codegen.graphsim", "GraphSimKernel.eval_into")]},
    "parallel.partition_network": {
        "where": [("repro.parallel.partition", "partition_network")]
    },
    "parallel.extract_window": {"where": [("repro.parallel.window", "extract_window")]},
    "parallel.stitch_window": {"where": [("repro.parallel.window", "stitch_window")]},
    # Parent side of the pool: its self time is time spent waiting on
    # workers plus pool bookkeeping.
    "parallel.pool": {
        "where": [
            ("repro.parallel.executor", "parallel_map"),
            ("repro.parallel.executor", "parallel_map_stream"),
        ]
    },
    "parallel.run_chunk": {"where": [("repro.parallel.executor", "_run_chunk")]},
    "parallel.window_task": {
        "where": [("repro.flows.partitioned", "_window_task")],
        "useful": _window_improved,
    },
    "parallel.warm_worker": {"where": [("repro.parallel.executor", "warm_worker")]},
    "service.submit": {"where": [("repro.service.daemon", "OptimizationService.submit")]},
    "service.run_pending": {
        "where": [("repro.service.daemon", "OptimizationService.run_pending")]
    },
    "service.canonical_fingerprint": {
        "where": [("repro.parallel.corpus", "canonical_fingerprint")]
    },
    "service.cache_get": {
        "where": [("repro.service.results", "ResultCache.get")],
        "useful": _cache_hit,
    },
    "service.cache_put": {"where": [("repro.service.results", "ResultCache.put")]},
    "service.row_write": {"where": [("repro.parallel.corpus", "RowChannel.write")]},
    "bench_circuits.build": {
        "where": [
            ("repro.bench_circuits.suite", "build_benchmark"),
            ("repro.bench_circuits.generator", "build_scalable"),
        ]
    },
}


def _m(name, key, stat, moves, zero=(), needs=()):
    return {
        "name": name,
        "key": key,
        "stat": stat,
        "should_move": [{"metric": m, "workload": w} for m, w in moves],
        "zero_on": list(zero),
        # Workloads on which the span must record at least one call.
        "calls_on": list(needs),
    }


_T1, _WIN, _SVC = WORKLOADS
_PAR_ZERO = (_T1,)
_SVC_ZERO = (_T1, _WIN)

#: Every per-layer metric: its span and statistic, the (end-to-end
#: metric, workload) pairs it should move, where it must read zero, and
#: where its span must record calls (the coverage check of a traced run).
_LOCAL = [
    _m("core.optimize_depth.calls", "core.optimize_depth", "calls",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("core.optimize_depth.self_s", "core.optimize_depth", "self_s",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("core.optimize_depth.useful_share", "core.optimize_depth",
       "useful_share", [("depth_out", _T1), ("depth_ratio_aig", _T1)], needs=(_T1,)),
    _m("core.push_up.calls", "core.push_up", "calls",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("core.push_up.self_s", "core.push_up", "self_s",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("core.cone_nodes.calls", "core.cone_nodes", "calls",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("core.cone_nodes.self_s", "core.cone_nodes", "self_s",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("core.optimize_size.calls", "core.optimize_size", "calls",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("core.optimize_size.self_s", "core.optimize_size", "self_s",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("core.optimize_size.useful_share", "core.optimize_size",
       "useful_share", [("size_out", _T1), ("size_out", _WIN)], needs=(_T1, _WIN)),
    _m("core.reshape.self_s", "core.reshape", "self_s",
       [("size_out", _T1), ("wall_s", _T1), ("size_out", _WIN), ("wall_s", _WIN)],
       needs=(_T1, _WIN)),
    _m("core.balance_mig.self_s", "core.balance_mig", "self_s",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("network.substitute.calls", "network.substitute", "calls",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("network.substitute.self_s", "network.substitute", "self_s",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("network.levels.calls", "network.levels", "calls",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("network.levels.self_s", "network.levels", "self_s",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("network.topological_order.calls", "network.topological_order",
       "calls", [("wall_s", _T1)], needs=(_T1,)),
    _m("network.topological_order.self_s", "network.topological_order",
       "self_s", [("wall_s", _T1)], needs=(_T1,)),
    _m("network.update_level.calls", "network.update_level", "calls",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("network.update_level.self_s", "network.update_level", "self_s",
       [("wall_s", _T1)], needs=(_T1,)),
    _m("network.rebuild_topology.calls", "network.rebuild_topology",
       "calls", [("wall_s", _T1)], needs=(_T1,)),
    _m("network.rebuild_topology.self_s", "network.rebuild_topology",
       "self_s", [("wall_s", _T1)], needs=(_T1,)),
    _m("network.copy.calls", "network.copy", "calls",
       [("wall_s", _WIN), ("peak_rss_mb", _WIN)], needs=(_WIN,)),
    _m("network.copy.self_s", "network.copy", "self_s",
       [("wall_s", _WIN), ("peak_rss_mb", _WIN)], needs=(_WIN,)),
    _m("network.cut_rewrite.calls", "network.cut_rewrite", "calls",
       [("wall_s", _WIN), ("wall_s", _T1)], needs=(_T1, _WIN)),
    _m("network.cut_rewrite.self_s", "network.cut_rewrite", "self_s",
       [("wall_s", _WIN), ("wall_s", _T1)], needs=(_T1, _WIN)),
    _m("network.cut_rewrite.useful_share", "network.cut_rewrite",
       "useful_share", [("size_out", _WIN), ("size_out", _T1)], needs=(_T1, _WIN)),
    _m("network.enumerate_cuts.self_s", "network.enumerate_cuts", "self_s",
       [("wall_s", _WIN), ("wall_s", _T1)], needs=(_T1, _WIN)),
    _m("network.get_structures.calls", "network.get_structures",
       "calls", [("wall_s", _WIN), ("wall_s", _T1)], needs=(_T1, _WIN)),
    _m("aig.resyn2.calls", "aig.resyn2", "calls",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("aig.resyn2.self_s", "aig.resyn2", "self_s",
       [("wall_s", _T1), ("wall_s", _WIN)], needs=(_T1, _WIN)),
    _m("mapping.map_network.calls", "mapping.map_network", "calls",
       [("wall_s", _T1)], zero=(_WIN, _SVC), needs=(_T1,)),
    _m("mapping.map_network.self_s", "mapping.map_network", "self_s",
       [("wall_s", _T1)], zero=(_WIN, _SVC), needs=(_T1,)),
    _m("verify.check_equivalence.calls", "verify.check_equivalence",
       "calls", [("wall_s", _WIN), ("ok_share", _WIN)], zero=(_T1,), needs=(_WIN,)),
    _m("verify.check_equivalence.self_s", "verify.check_equivalence",
       "self_s", [("wall_s", _WIN)], zero=(_T1,), needs=(_WIN,)),
    _m("verify.sat_sweep.self_s", "verify.sat_sweep", "self_s",
       [("wall_s", _WIN)], zero=(_T1,), needs=(_WIN,)),
    _m("verify.encode_network.self_s", "verify.encode_network", "self_s",
       [("wall_s", _WIN)], zero=(_T1,), needs=(_WIN,)),
    _m("verify.certified_share", "verify.check_equivalence",
       "useful_share", [("ok_share", _WIN)], zero=(_T1,), needs=(_WIN,)),
    _m("codegen.network_ir.calls", "codegen.network_ir", "calls",
       [("wall_s", _WIN)], needs=(_WIN,)),
    _m("codegen.network_ir.self_s", "codegen.network_ir", "self_s",
       [("wall_s", _WIN)], needs=(_WIN,)),
    _m("codegen.graph_sim.calls", "codegen.graph_sim", "calls",
       [("wall_s", _WIN)], needs=(_WIN,)),
    _m("codegen.graph_sim.self_s", "codegen.graph_sim", "self_s",
       [("wall_s", _WIN)], needs=(_WIN,)),
    _m("parallel.partition_network.self_s", "parallel.partition_network",
       "self_s", [("wall_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.extract_window.calls", "parallel.extract_window",
       "calls", [("wall_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.extract_window.self_s", "parallel.extract_window",
       "self_s", [("wall_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.stitch_window.calls", "parallel.stitch_window",
       "calls", [("wall_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.stitch_window.self_s", "parallel.stitch_window",
       "self_s", [("wall_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.parent_wait_s", "parallel.pool", "self_s",
       [("wall_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.worker_busy_s", "parallel.run_chunk", "total_s",
       [("cpu_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.window_task.p50_s", "parallel.window_task", "p50_s",
       [("item_p50_s", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("parallel.improved_share", "parallel.window_task",
       "useful_share", [("size_out", _WIN)], zero=_PAR_ZERO, needs=(_WIN,)),
    _m("service.submit.calls", "service.submit", "calls",
       [("wall_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.submit.self_s", "service.submit", "self_s",
       [("wall_s", _SVC), ("item_p50_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.canonical_fingerprint.calls",
       "service.canonical_fingerprint", "calls", [("item_p50_s", _SVC)],
       zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.canonical_fingerprint.self_s",
       "service.canonical_fingerprint", "self_s", [("item_p50_s", _SVC)],
       zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.cache_get.calls", "service.cache_get", "calls",
       [("item_p50_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.cache_get.self_s", "service.cache_get", "self_s",
       [("item_p50_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.cache_put.calls", "service.cache_put", "calls",
       [("wall_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.cache_put.self_s", "service.cache_put", "self_s",
       [("wall_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.row_write.calls", "service.row_write", "calls",
       [("item_p50_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.run_pending.self_s", "service.run_pending", "self_s",
       [("wall_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("service.hit_share", "service.cache_get", "useful_share",
       [("item_p50_s", _SVC)], zero=_SVC_ZERO, needs=(_SVC,)),
    _m("flows.mighty_optimize.calls", "flows.mighty_optimize", "calls",
       [("wall_s", _T1), ("wall_s", _WIN), ("wall_s", _SVC)], needs=WORKLOADS),
    _m("flows.mighty_optimize.self_s", "flows.mighty_optimize", "self_s",
       [("wall_s", _T1), ("wall_s", _WIN), ("wall_s", _SVC)], needs=WORKLOADS),
    # Set-up spans: recorded only while the pool state is warmed and the
    # inputs are built, before the first timed call, so they are exempt
    # from the table1 zero rule.
    _m("parallel.warm_worker.self_s", "parallel.warm_worker", "self_s",
       [("setup_s", w) for w in WORKLOADS], needs=WORKLOADS),
    _m("bench_circuits.build.self_s", "bench_circuits.build", "self_s",
       [("setup_s", w) for w in WORKLOADS], needs=WORKLOADS),
]


def _layer_metrics() -> list:
    """:data:`_LOCAL` joined with the ``per_layer`` list of BENCHMARK.json."""
    declared = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
    local = {spec["name"]: spec for spec in _LOCAL}
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(local):
        raise RuntimeError(
            f"BENCHMARK.json per_layer and layers.py disagree: "
            f"{sorted(set(names) ^ set(local))}"
        )
    return [dict(local[entry["name"]], unit=entry["unit"], better=entry["better"])
            for entry in declared]


LAYER_METRICS = _layer_metrics()


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "useful", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.useful = 0
        self.durations = []

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def merge(self, raw: dict) -> None:
        self.calls += raw["calls"]
        self.self_s += raw["self_s"]
        self.total_s += raw["total_s"]
        self.useful += raw["useful"]
        self.durations.extend(raw["durations"])


class Tracer:
    """Span stack and per-key counters of one process.

    ``phase`` is ``None`` (record nothing), ``"setup"`` (record only
    :data:`SETUP_KEYS`) or ``"pass"`` (record every other span).  A forked
    worker resets its inherited counters and stack on its first task, so
    its file holds only its own spans.
    """

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.phase = None
        self.stack = []
        self.stats = {}
        self.worker_file = None

    # -- recording ---------------------------------------------------- #
    def _stat(self, key: str) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    def _adopt_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.stack = []
            self.stats = {}
            self.worker_file = self.trace_dir / f"w-{pid}-{uuid.uuid4().hex}.json"

    def wrap(self, key: str, fn, useful=None):
        tracer = self
        keep_durations = key in DURATION_KEYS
        is_chunk = key == "parallel.run_chunk"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_chunk:
                tracer._adopt_fork()
            phase = tracer.phase
            if phase is None or (phase == "setup") != (key in SETUP_KEYS):
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            stack = tracer.stack
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[0]
                stat = tracer._stat(key)
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if keep_durations:
                    stat.durations.append(duration)
                if stack:
                    stack[-1][1] += duration
            if useful is not None and useful(result):
                stat.useful += 1
            if is_chunk and tracer.worker_file is not None:
                tracer._flush_worker()
            return result

        return wrapper

    def _flush_worker(self) -> None:
        tmp = self.worker_file.with_suffix(".tmp")
        payload = {key: stat.as_dict() for key, stat in self.stats.items()}
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.worker_file)

    def collect_workers(self) -> None:
        """Merge (and delete) every worker file."""
        for path in sorted(self.trace_dir.glob("w-*.json")):
            for key, raw in json.loads(path.read_text(encoding="utf-8")).items():
                self._stat(key).merge(raw)
            path.unlink()

    # -- results ------------------------------------------------------ #
    def value(self, key: str, stat_name: str) -> float:
        stat = self.stats.get(key) or _Stat()
        if stat_name == "calls":
            return stat.calls
        if stat_name == "self_s":
            return stat.self_s
        if stat_name == "total_s":
            return stat.total_s
        if stat_name == "useful_share":
            return stat.useful / stat.calls if stat.calls else 0.0
        if stat_name == "p50_s":
            return statistics.median(stat.durations) if stat.durations else 0.0
        raise ValueError(f"unknown stat {stat_name!r}")

    def metrics(self) -> dict:
        return {
            spec["name"]: {"value": self.value(spec["key"], spec["stat"]), "unit": spec["unit"]}
            for spec in LAYER_METRICS
        }

    def coverage_errors(self, workload: str) -> list:
        """Violations of the coverage rules of :data:`LAYER_METRICS`."""
        errors = []
        for spec in LAYER_METRICS:
            calls = self.value(spec["key"], "calls")
            if workload in spec["calls_on"] and calls == 0:
                errors.append(f"{spec['name']}: span {spec['key']} recorded no call")
            if workload in spec["zero_on"] and (
                calls or self.value(spec["key"], spec["stat"])
            ):
                errors.append(f"{spec['name']}: must read zero on {workload}")
        return errors


# --------------------------------------------------------------------- #
# Patching every binding
# --------------------------------------------------------------------- #
def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, wrapper) -> int:
    """Point every module global and function default at ``wrapper``."""
    count = 0
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = wrapper
                count += 1
                continue
            func = getattr(value, "__wrapped__", value)
            defaults = getattr(func, "__defaults__", None)
            if defaults and any(d is original for d in defaults):
                func.__defaults__ = tuple(wrapper if d is original else d for d in defaults)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding."""
    import repro.flows  # noqa: F401  (imports the whole optimization stack)
    import repro.mapping  # noqa: F401
    import repro.parallel.corpus  # noqa: F401
    import repro.service  # noqa: F401
    import repro.verify  # noqa: F401

    for key, target in TARGETS.items():
        for module_name, path in target["where"]:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(key, original, target.get("useful"))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            elif _rebind(original, wrapper) == 0:
                raise RuntimeError(f"span {key}: no binding of {module_name}.{path} found")
