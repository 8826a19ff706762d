"""Checker-as-a-service: a long-running HTTP verification server.

Everything else in the repo is a one-shot library call; this package
keeps a process up so the ~300× warm-cache and 6–20× static-first
wins survive between clients.  One shared bounded
:class:`~repro.net.runcache.RunCache` (memory + disk tier) and one
shared :class:`~repro.net.executor.SweepEngine` serve every job;
per-job isolation falls out of the canonical ``run_key`` fingerprints,
so two clients sweeping the same transducer warm each other and two
different grids can never alias.

Layering
--------
* :mod:`~repro.service.schemas` — JSON job specs → validated
  :class:`~repro.service.schemas.JobRequest`\\ s (spec loading shared
  with the lint CLI) and JSON-safe report rendering.
* :mod:`~repro.service.orchestrator` — the
  :class:`~repro.service.orchestrator.JobOrchestrator`: job lifecycle,
  in-flight dedup, the shared engine/cache, sqlite job store for
  restart rebuild.
* :mod:`~repro.service.metrics` — lock-guarded counters + per-kind
  latency histograms, merged with cache/engine stats at scrape time.
* :mod:`~repro.service.routes` — framework-agnostic request handlers.
* :mod:`~repro.service.app` — the stdlib asyncio HTTP server (always
  available) and a FastAPI adapter (used when FastAPI is installed).

Run it: ``python -m repro.service --port 8080``.  See
``docs/service.md`` for the API reference and deployment knobs.
"""

from .app import ServiceConfig, VerificationService, create_app
from .metrics import MetricsRegistry
from .orchestrator import Job, JobOrchestrator
from .schemas import JobRequest, SpecError, parse_job

__all__ = [
    "Job",
    "JobOrchestrator",
    "JobRequest",
    "MetricsRegistry",
    "ServiceConfig",
    "SpecError",
    "VerificationService",
    "create_app",
    "parse_job",
]
