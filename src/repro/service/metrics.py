"""Service metrics: counters + per-kind latency histograms.

Everything the orchestrator touches concurrently is lock-guarded the
same way the run cache is; the scrape path (``GET /metrics``) merges
the registry's own numbers with ``RunCache.stats()`` and
``EngineHealth.as_dict()`` at read time, so cache/engine counters are
never double-tracked.  See ``docs/service.md`` for the glossary.
"""

from __future__ import annotations

import re
import threading

#: Histogram bucket upper bounds, seconds.  Log-spaced from "warm
#: cache hit" (1 ms) to "cold exhaustive sweep" (60 s); the overflow
#: bucket catches everything slower.
LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
)


class Histogram:
    """A fixed-bucket latency histogram (callers hold the registry lock)."""

    __slots__ = ("counts", "overflow", "count", "total", "min", "max")

    def __init__(self):
        self.counts = [0] * len(LATENCY_BUCKETS)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)
        for i, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def quantile(self, q: float) -> float | None:
        """Bucket-upper-bound estimate of the *q*-quantile, clamped to
        the observed ``[min, max]`` (a bucket bound can lie beyond every
        sample)."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for i, bound in enumerate(LATENCY_BUCKETS):
            seen += self.counts[i]
            if seen >= target:
                return min(max(bound, self.min), self.max)
        return self.max

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "sum_seconds": self.total,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "mean_seconds": self.total / self.count if self.count else None,
            "p50_seconds": self.quantile(0.5),
            "p95_seconds": self.quantile(0.95),
            "buckets": {
                f"le_{bound}": n
                for bound, n in zip(LATENCY_BUCKETS, self.counts)
            }
            | {"overflow": self.overflow},
        }


class MetricsRegistry:
    """Thread-safe counters and per-kind job latency histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._latency: dict[str, Histogram] = {}

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, kind: str, seconds: float | None) -> None:
        if seconds is None:
            return
        with self._lock:
            hist = self._latency.get(kind)
            if hist is None:
                hist = self._latency[kind] = Histogram()
            hist.observe(seconds)

    def snapshot(self, cache=None, engine=None, jobs=None, started_at=None) -> dict:
        """One coherent scrape: registry + cache + engine + job states."""
        with self._lock:
            payload = {
                "jobs": dict(sorted(self._counters.items())),
                "latency": {
                    kind: hist.to_json()
                    for kind, hist in sorted(self._latency.items())
                },
            }
        if started_at is not None:
            payload["started_at"] = started_at
        if cache is not None:
            payload["run_cache"] = cache.stats()
        if engine is not None:
            payload["engine"] = dict(
                engine.health.as_dict(),
                lifetime=engine.lifetime,
                workers=engine.workers,
            )
        if jobs is not None:
            states: dict[str, int] = {}
            for job in jobs:
                states[job.status] = states.get(job.status, 0) + 1
            payload["job_states"] = dict(sorted(states.items()))
        return payload


def render_text(snapshot: dict) -> str:
    """The Prometheus text rendering (``GET /metrics?format=text``).

    Nested keys join with ``_`` under a ``repro`` prefix, characters a
    metric name cannot hold become ``_``, booleans are 0/1 and a
    missing number is ``NaN``.  A string value becomes a label on an
    info line, ``name_info{value="..."} 1``, so every line is
    ``name[{labels}] <float>``.
    """
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in sorted(value.items()):
                emit(f"{prefix}_{key}", sub)
            return
        name = _NAME_UNSAFE.sub("_", prefix)
        if isinstance(value, bool):
            lines.append(f"{name} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"{name} {value}")
        elif value is None:
            lines.append(f"{name} NaN")
        else:
            label = (
                str(value).replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n")
            )
            lines.append(f'{name}_info{{value="{label}"}} 1')

    emit("repro", snapshot)
    return "\n".join(lines) + "\n"


_NAME_UNSAFE = re.compile(r"[^a-zA-Z0-9_:]")
