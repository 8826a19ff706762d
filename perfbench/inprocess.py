"""Driver for the workloads that call the library in this process
(``tc-sweep`` and ``calm-zoo``).

A workload object exposes ``prepare(i)`` (untimed: a fresh transducer
for op *i*), ``execute(i, transducer)`` (the timed public call),
``check(i, result)`` (the oracle and the op's counts), ``is_repeat(i)``
and ``verdict_stats(counts)``.
"""

from __future__ import annotations

import time

import common
import layers
from calibrate import Speed
from tracer import Tracer


class OpLog:
    """Latencies, failures and counts of the ops run so far."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        #: Seconds per op including its untimed prepare and check.
        self.busy: list[float] = []
        self.counts: list[dict] = []
        self.failed = 0
        self.errors: list[str] = []

    def __len__(self) -> int:
        return len(self.latency)


def run_op(workload, i: int, log: OpLog, tracer: Tracer | None = None) -> None:
    start = time.perf_counter()
    transducer = workload.prepare(i)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(i, transducer)
        else:
            with tracer.span(layers.OP, op=i):
                result = workload.execute(i, transducer)
    except Exception as exc:  # noqa: BLE001 - an erroring op is a failed op
        elapsed = time.perf_counter() - t0
        ok, counts = False, {}
        log.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
    else:
        elapsed = time.perf_counter() - t0
        ok, counts = workload.check(i, result)
        if not ok:
            log.errors.append(f"op {i}: wrong answer")
    log.latency.append(elapsed)
    log.busy.append(time.perf_counter() - start)
    log.counts.append(counts)
    log.failed += 0 if ok else 1


def run_for(workload, seconds: float, speed: Speed) -> tuple[OpLog, float]:
    """Run ops 0, 1, 2 ... until *seconds* have passed, with a
    calibration slice before the first op and after each; returns the
    log and the wall time."""
    log = OpLog()
    start = time.perf_counter()
    speed.mark()
    while time.perf_counter() - start < seconds:
        run_op(workload, len(log), log)
        speed.mark()
    return log, time.perf_counter() - start


def end_to_end(workload, seconds: float) -> tuple[dict, dict, OpLog]:
    """The untraced run: end-to-end metrics plus exact-count details."""
    speed = Speed()
    log, wall = run_for(workload, seconds, speed)
    metrics, details = common.op_metrics(
        log.latency, log.busy, [True] * len(log),
        [workload.is_repeat(i) for i in range(len(log))], speed)
    metrics["peak_rss_mb"] = common.self_peak_rss_mb()
    details.update({"wall_s": wall, "exact_counts": exact_counts(log, workload)})
    return metrics, details, log


def exact_counts(log: OpLog, workload) -> dict:
    """Counts summed over the workload's first ``counted_ops`` ops.

    They depend only on the seed (the same ops, the same seeded runs),
    so two runs with one seed must report them identically.
    """
    first = log.counts[: workload.counted_ops]
    keys = sorted({k for c in first for k in c})
    out = {"ops": len(first)}
    for key in keys:
        out[key] = sum(int(c.get(key, 0)) for c in first)
    return out


def traced(workload, seconds: float) -> tuple[dict, dict, OpLog, Tracer]:
    """The traced run: per-layer metrics and the tracing overhead.

    Each op runs twice, untraced and traced, in alternating order, so
    warm-up and drift weigh on both sides alike; the overhead is the
    ratio of the two sides' summed wall times.
    """
    tracer = Tracer()
    plain, log = OpLog(), OpLog()
    walls = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                layers.install(tracer)
            t0 = time.perf_counter()
            try:
                run_op(workload, i, log if with_trace else plain, tracer if with_trace else None)
            finally:
                walls[with_trace] += time.perf_counter() - t0
                tracer.uninstall()
        i += 1
    for j, (a, b) in enumerate(zip(plain.counts, log.counts)):
        if a != b:
            log.failed += 1
            log.errors.append(f"op {j}: traced counts {b} differ from untraced {a}")
    metrics = layers.layer_metrics(tracer, len(log), sum(log.latency))
    metrics.update(workload.verdict_stats(log.counts))
    metrics["trace_overhead_ratio"] = walls[True] / walls[False]
    details = {"ops": len(log), "attempted": len(plain) + len(log),
               "spans": tracer.span_count(),
               "untraced_wall_s": walls[False], "traced_wall_s": walls[True]}
    log.failed += plain.failed
    log.errors = plain.errors + log.errors
    return metrics, details, log, tracer
