"""The layers the traced run wraps, and the per-layer metrics it reports.

Each layer is named after its module.  :func:`install` wraps that
layer's public functions from the outside (see :mod:`tracer`);
:func:`layer_metrics` turns the recorded spans into the per-layer
metrics of ``BENCHMARK.json``.  ``LAYER_METRICS`` is the table of
those metrics: name, unit, which direction is better, the layer, and
the end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Tracer

#: (metric, unit, better, layer, should move)
LAYER_METRICS = (
    ("service.queue_wait_s", "s", "lower", "service",
     "repeat_p50_s, op_p50_s on service-mix"),
    ("service.run_s", "s", "lower", "service",
     "repeat_p50_s, op_p50_s on service-mix"),
    ("service.http_s", "s", "lower", "service",
     "repeat_p50_s, op_p50_s on service-mix"),
    ("runcache.hit_ratio", "ratio", "higher", "net.runcache",
     "repeat_p50_s on service-mix"),
    ("runcache.evictions", "count", "lower", "net.runcache",
     "repeat_p50_s on service-mix"),
    ("runcache.bytes", "bytes", "lower", "net.runcache",
     "repeat_p50_s on service-mix"),
    ("runcache.get_s", "s/op", "lower", "net.runcache",
     "repeat_p50_s on service-mix"),
    ("runcache.record_s", "s/op", "lower", "net.runcache",
     "op_p50_s on service-mix"),
    ("executor.cells", "count/op", "lower", "net.executor",
     "op_p50_s on service-mix and tc-sweep"),
    ("executor.self_s", "s/op", "lower", "net.executor",
     "op_p50_s on service-mix and tc-sweep"),
    ("run.runs", "count/op", "lower", "net.run",
     "op_p50_s and ops_per_s on calm-zoo"),
    ("run.steps", "count/op", "lower", "net.run",
     "op_p50_s and ops_per_s on calm-zoo"),
    ("run.self_s", "s/op", "lower", "net.run",
     "op_p50_s and ops_per_s on calm-zoo"),
    ("config.initial_s", "s/op", "lower", "net.config",
     "op_p50_s and ops_per_s on calm-zoo"),
    ("scheduler.actions", "count/op", "lower", "net.scheduler",
     "op_p50_s on tc-sweep and calm-zoo"),
    ("scheduler.self_s", "s/op", "lower", "net.scheduler",
     "op_p50_s on tc-sweep and calm-zoo"),
    ("multiset.distinct_calls", "count/op", "lower", "db.multiset",
     "op_p50_s on tc-sweep and calm-zoo"),
    ("multiset.distinct_s", "s/op", "lower", "db.multiset",
     "op_p50_s on tc-sweep and calm-zoo"),
    ("transition.calls", "count/op", "lower", "core.transducer",
     "op_p50_s on tc-sweep"),
    ("transition.miss_ratio", "ratio", "lower", "core.transducer",
     "op_p50_s on tc-sweep"),
    ("transition.self_s", "s/op", "lower", "core.transducer",
     "op_p50_s on tc-sweep"),
    ("query.calls", "count/op", "lower", "lang",
     "op_p50_s on tc-sweep; little on calm-zoo"),
    ("query.rows_out", "count/op", "lower", "lang",
     "op_p50_s on tc-sweep; little on calm-zoo"),
    ("query.self_s", "s/op", "lower", "lang",
     "op_p50_s on tc-sweep; little on calm-zoo"),
    ("columnar.views", "count/op", "lower", "db.columnar",
     "once engine choice changes: gain on tc-sweep, cost on calm-zoo"),
    ("columnar.view_s", "s/op", "lower", "db.columnar",
     "once engine choice changes: gain on tc-sweep, cost on calm-zoo"),
    ("convergence.checks", "count/op", "lower", "net.convergence",
     "op_p50_s on tc-sweep"),
    ("convergence.self_s", "s/op", "lower", "net.convergence",
     "op_p50_s on tc-sweep"),
    ("coordination.probes", "count/op", "lower", "net.coordination",
     "op_p50_s on calm-zoo"),
    ("coordination.self_s", "s/op", "lower", "net.coordination",
     "op_p50_s on calm-zoo"),
    ("static.self_s", "s/op", "lower", "analysis",
     "ops_per_s on calm-zoo"),
    ("calm.static_ratio", "ratio", "higher", "analysis",
     "ops_per_s on calm-zoo"),
    ("faults.actions", "count/op", "lower", "net.faults",
     "op_p50_s on service-mix"),
    ("faults.self_s", "s/op", "lower", "net.faults",
     "op_p50_s on service-mix"),
    ("trace.op_s", "s/op", "lower", "benchmark",
     "traced op time the layer self times add up to"),
    ("trace.other_s", "s/op", "lower", "benchmark",
     "op time outside every wrapped layer"),
    ("trace.coverage", "ratio", "higher", "benchmark",
     "share of traced op time inside a wrapped layer"),
    ("trace_overhead_ratio", "ratio", "lower", "benchmark",
     "traced wall time / untraced wall time of the same ops"),
)

UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}
#: The share of traced op time the layer self times must add up to.
COVERAGE_FLOOR = 0.90

#: The span the benchmark opens around each op; not a layer.
OP = "op"
#: Span names whose self time is a layer's time (everything but OP).
SPAN_LAYERS = (
    "service", "runcache.get", "runcache.record", "executor", "run",
    "config", "scheduler", "multiset", "transition", "query", "columnar",
    "convergence", "coordination", "static", "faults",
)


LOADED_FIRST = (
    "repro.analysis", "repro.analysis.lint", "repro.core.while_bridge",
    "repro.core.wrappers", "repro.lang", "repro.net",
)


def _subclasses_defining(base, attr, exclude=()):
    """*base* and its subclasses that define *attr* concretely themselves."""
    out, stack = [], [base]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        own = vars(cls).get(attr)
        if (own is not None and cls not in out and cls not in exclude
                and not getattr(own, "__isabstractmethod__", False)):
            out.append(cls)
    return out


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer's public functions; ``tracer.uninstall()`` undoes it.

    *service* also wraps the orchestrator's job runner, so spans on the
    service's job threads carry the job id as their op.
    """
    # Load every module that binds a wrapped name, so that each binding
    # exists, and is patched, before the run starts.
    for module in LOADED_FIRST + (("repro.service.app",) if service else ()):
        importlib.import_module(module)
    from repro.analysis.calm import ComputedQuery
    from repro.analysis.static import analyze_transducer
    from repro.core.transducer import Transducer
    from repro.db.instance import Instance
    from repro.db.multiset import FactMultiset
    from repro.lang.query import Query
    from repro.net.config import initial_configuration
    from repro.net.convergence import ConvergenceTracker, is_converged
    from repro.net.coordination import check_coordination_free_on
    from repro.net.executor import sweep_runs
    from repro.net.faults import FaultyScheduler, execute_fault_action
    from repro.net.run import run_schedule
    from repro.net.runcache import RunCache
    from repro.net.scheduler import Scheduler

    wrap = tracer.wrap

    def run_measure(result):
        faults = sum(result.stats.fault_counts().values())
        if faults:
            tracer.count("faults.actions", faults)
        return result.stats.steps

    def method(owner, attr, name, measure=None):
        tracer.patch_attr(owner, attr, wrap(name, vars(owner)[attr], measure))

    def function(fn, name, measure=None):
        tracer.patch_function(fn, wrap(name, fn, measure))

    method(Transducer, "transition", "transition")
    for cls in _subclasses_defining(Query, "__call__", exclude=(ComputedQuery,)):
        method(cls, "__call__", "query", len)
    method(ConvergenceTracker, "check", "convergence")
    function(is_converged, "convergence")
    method(FactMultiset, "distinct", "multiset")
    function(run_schedule, "run", run_measure)
    function(initial_configuration, "config")
    for cls in _subclasses_defining(Scheduler, "schedule"):
        name = "faults" if cls is FaultyScheduler else "scheduler"
        tracer.patch_attr(
            cls, "schedule", tracer.wrap_generator_factory(name, vars(cls)["schedule"])
        )
    function(execute_fault_action, "faults")
    function(sweep_runs, "executor", len)
    method(RunCache, "get", "runcache.get")
    method(RunCache, "record", "runcache.record")
    function(check_coordination_free_on, "coordination")
    function(analyze_transducer, "static")
    method(Instance, "columnar_view", "columnar")
    if service:
        from repro.service.orchestrator import JobOrchestrator

        run_job = vars(JobOrchestrator)["_run"]

        def traced_run(orchestrator, job, request):
            with tracer.span("service", op=job.id):
                return run_job(orchestrator, job, request)

        traced_run.perfbench_span = "service"
        tracer.patch_attr(JobOrchestrator, "_run", traced_run)


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float,
                  extra_attributed_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, normalised per op.

    *op_seconds* is the summed duration of the *ops* traced ops.
    *extra_attributed_s* is layer time measured outside the spans (the
    service's queue wait and HTTP time, from job timestamps).
    """
    cols = tracer.columns()
    names = tracer.names
    name = cols["name"]
    ids = {n: i for i, n in enumerate(names)}

    def mask(span_name):
        return name == ids.get(span_name, -1)

    def count(span_name):
        return int(mask(span_name).sum())

    def self_s(span_name):
        return float(cols["self_s"][mask(span_name)].sum())

    def value(span_name):
        return float(cols["value"][mask(span_name)].sum())

    # Name of each span's parent (-1 for roots), to find outermost calls.
    parent_name = np.full(len(name), -1)
    if len(name):
        order = np.argsort(cols["sid"])
        sorted_sid = cols["sid"][order]
        pos = np.minimum(np.searchsorted(sorted_sid, cols["parent"]), len(order) - 1)
        found = sorted_sid[pos] == cols["parent"]
        parent_name[found] = name[order][pos][found]

    query, transition = ids.get("query", -1), ids.get("transition", -1)
    conv = ids.get("convergence", -1)
    is_query = name == query
    outer_query = is_query & (parent_name != query)
    missed = np.unique(cols["parent"][is_query & (parent_name == transition)])
    transitions = count("transition")
    checks = int((mask("convergence") & (parent_name != conv)).sum())

    per = 1.0 / ops
    layer_self = sum(self_s(n) for n in SPAN_LAYERS)
    attributed = layer_self + extra_attributed_s
    # Metrics of layers a workload never reaches (the service on an
    # in-process workload) stay 0; the workload fills in the ones read
    # from elsewhere than spans.
    metrics = dict.fromkeys(UNITS, 0.0)
    metrics.update({
        "executor.cells": value("executor") * per,
        "executor.self_s": self_s("executor") * per,
        "run.runs": count("run") * per,
        "run.steps": value("run") * per,
        "run.self_s": self_s("run") * per,
        "config.initial_s": self_s("config") * per,
        "scheduler.actions": count("scheduler") * per,
        "scheduler.self_s": self_s("scheduler") * per,
        "multiset.distinct_calls": count("multiset") * per,
        "multiset.distinct_s": self_s("multiset") * per,
        "transition.calls": transitions * per,
        "transition.miss_ratio": len(missed) / transitions if transitions else 0.0,
        "transition.self_s": self_s("transition") * per,
        "query.calls": int(outer_query.sum()) * per,
        "query.rows_out": float(cols["value"][outer_query].sum()) * per,
        "query.self_s": self_s("query") * per,
        "columnar.views": count("columnar") * per,
        "columnar.view_s": self_s("columnar") * per,
        "convergence.checks": checks * per,
        "convergence.self_s": self_s("convergence") * per,
        "coordination.probes": count("coordination") * per,
        "coordination.self_s": self_s("coordination") * per,
        "static.self_s": self_s("static") * per,
        "faults.actions": tracer.counters.get("faults.actions", 0) * per,
        "faults.self_s": self_s("faults") * per,
        "runcache.get_s": self_s("runcache.get") * per,
        "runcache.record_s": self_s("runcache.record") * per,
        "trace.op_s": op_seconds * per,
        "trace.other_s": (op_seconds - attributed) * per,
        "trace.coverage": attributed / op_seconds if op_seconds else 0.0,
    })
    return metrics
