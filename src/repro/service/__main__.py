"""``python -m repro.service`` — run the verification server."""

from __future__ import annotations

import argparse
import asyncio

from ..net import LIFETIMES
from .app import ServiceConfig, VerificationService


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-running CALM verification server: POST /jobs, "
        "GET /jobs/{id}[, /events], GET /metrics.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="0 picks a free port (printed at startup)")
    parser.add_argument("--job-workers", type=int, default=4,
                        help="concurrent job executions")
    parser.add_argument("--cache-max-bytes", type=int,
                        default=64 * 1024 * 1024,
                        help="RunCache memory budget (bytes)")
    parser.add_argument("--cache-disk", default=None, metavar="PATH",
                        help="sqlite disk tier below the memory bound "
                        "(makes restarts warm)")
    parser.add_argument("--job-store", default=None, metavar="PATH",
                        help="sqlite terminal-job store (GET /jobs/{id} "
                        "across restarts)")
    parser.add_argument("--engine-workers", type=int, default=1)
    parser.add_argument("--engine-lifetime", default=None,
                        choices=LIFETIMES)
    args = parser.parse_args(argv)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
        cache_max_bytes=args.cache_max_bytes,
        cache_disk_path=args.cache_disk,
        job_store_path=args.job_store,
        engine_workers=args.engine_workers,
        engine_lifetime=args.engine_lifetime,
    )
    service = VerificationService(config)

    async def _serve():
        await service.start()
        print(
            f"repro verification service on "
            f"http://{config.host}:{config.port} "
            f"(engine={service.orchestrator.engine.lifetime}, "
            f"workers={config.job_workers})",
            flush=True,
        )
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
