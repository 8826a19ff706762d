"""The HTTP shell: a stdlib asyncio server.

The service must boot on a bare CPython install — CI and the e2e
tests run the asyncio server below, a deliberately small HTTP/1.1
implementation (request line + headers + Content-Length body, one
request per connection).  The routes themselves are the handlers in
:mod:`~repro.service.routes`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass

from ..net import SweepEngine
from ..net.runcache import RunCache
from .orchestrator import _TERMINAL, JobOrchestrator
from .metrics import render_text
from . import routes

_MAX_BODY = 8 * 1024 * 1024

#: How long, and how much, a rejected request's unread input is drained
#: before the connection closes (see ``VerificationService._reject``).
_DRAIN_SECONDS = 2.0
_DRAIN_BYTES = 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 414: "URI Too Long",
    431: "Request Header Fields Too Large", 503: "Service Unavailable",
}


class _RequestError(Exception):
    """A request answered with an error *status* before it is fully read."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _readline(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One line; a line over the reader's limit raises :class:`_RequestError`.

    ``StreamReader.readline`` reports an over-long line as ``ValueError``
    (it catches its own ``LimitOverrunError``).
    """
    try:
        return await reader.readline()
    except ValueError:
        raise _RequestError(status, f"{what} too long") from None


@dataclass
class ServiceConfig:
    """Deployment knobs (see docs/service.md for guidance)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Concurrent job executions.
    job_workers: int = 4
    #: Shared RunCache bounds; ``cache_disk_path`` enables the sqlite
    #: disk tier — the thing that makes a restarted service warm.
    cache_max_bytes: int | None = 64 * 1024 * 1024
    cache_max_entries: int | None = None
    cache_disk_path: str | None = None
    #: Terminal-job store (GET /jobs/{id} across restarts).
    job_store_path: str | None = None
    #: Shared SweepEngine shape.  Serial + several job workers is the
    #: right default on small boxes: jobs parallelize across threads
    #: and the cache provides the speed.
    engine_workers: int = 1
    engine_lifetime: str | None = None


class VerificationService:
    """The asyncio HTTP server bound to one :class:`JobOrchestrator`."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        cache = RunCache(
            max_bytes=self.config.cache_max_bytes,
            max_entries=self.config.cache_max_entries,
            disk_path=self.config.cache_disk_path,
        )
        engine = SweepEngine(
            workers=self.config.engine_workers,
            lifetime=self.config.engine_lifetime,
        )
        self.orchestrator = JobOrchestrator(
            run_cache=cache,
            engine=engine,
            max_workers=self.config.job_workers,
            store_path=self.config.job_store_path,
        )
        self._server: asyncio.AbstractServer | None = None

    # -- HTTP plumbing -----------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await _readline(reader, 414, "request line")
        except ConnectionError:
            return None
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await _readline(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        # HTTP allows digits only; int() would also take "-1", "+5" and
        # "1_000".
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _RequestError(400, "bad Content-Length")
        length = int(raw_length)
        if length > _MAX_BODY:
            return method, target, headers, None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _response(
        status: int, body: bytes, content_type: str = "application/json"
    ) -> bytes:
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    def _json(status: int, payload: dict) -> bytes:
        body = json.dumps(payload, sort_keys=True).encode()
        return VerificationService._response(status, body)

    async def _reject(self, reader, writer, error: _RequestError) -> None:
        """Answer *error*, then drain what the client still sends.

        Closing a socket with unread input resets the connection, and a
        reset can reach the client before it reads the answer.  So the
        write side is shut first and the input read to its end, for at
        most ``_DRAIN_SECONDS`` and ``_DRAIN_BYTES``.
        """
        writer.write(self._json(error.status, {"error": error.message}))
        await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()

        async def drain_input() -> None:
            left = _DRAIN_BYTES
            while left > 0 and (chunk := await reader.read(65536)):
                left -= len(chunk)

        try:
            await asyncio.wait_for(drain_input(), _DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass

    async def _handle(self, reader, writer):
        try:
            try:
                request = await self._read_request(reader)
            except _RequestError as error:
                await self._reject(reader, writer, error)
                return
            if request is None:
                return
            method, target, _headers, body = request
            path, _, query = target.partition("?")
            parts = [p for p in path.split("/") if p]

            if path == "/jobs" and method == "POST":
                if body is None:
                    writer.write(self._json(400, {"error": "body too large"}))
                    return
                try:
                    payload = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    writer.write(self._json(400, {"error": f"bad JSON: {exc}"}))
                    return
                status, out = await asyncio.to_thread(
                    routes.submit_job, self.orchestrator, payload
                )
                writer.write(self._json(status, out))
            elif path == "/jobs" and method == "GET":
                writer.write(self._json(*routes.list_jobs(self.orchestrator)))
            elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
                writer.write(
                    self._json(*routes.get_job(self.orchestrator, parts[1]))
                )
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "events"
                and method == "GET"
            ):
                await self._stream_events(writer, parts[1])
            elif path == "/metrics" and method == "GET":
                status, snap = routes.get_metrics(self.orchestrator)
                if "format=text" in query:
                    writer.write(
                        self._response(
                            status,
                            render_text(snap).encode(),
                            content_type="text/plain; charset=utf-8",
                        )
                    )
                else:
                    writer.write(self._json(status, snap))
            elif path == "/healthz" and method == "GET":
                writer.write(self._json(*routes.healthz(self.orchestrator)))
            else:
                writer.write(self._json(404, {"error": f"no route: {path}"}))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels in-flight handlers (an open event stream
            # waits for its job).  End normally: asyncio reports a
            # handler task that ends cancelled to the loop's exception
            # handler as an error.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _stream_events(self, writer, job_id: str) -> None:
        """``GET /jobs/{id}/events`` — server-sent events until terminal."""
        job = self.orchestrator.get(job_id)
        if job is None:
            writer.write(self._json(404, {"error": f"no such job: {job_id}"}))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        sent = 0
        while True:
            events = await asyncio.to_thread(job.wait_events, sent, 0.25)
            for event in events:
                data = json.dumps(event, sort_keys=True)
                writer.write(f"data: {data}\n\n".encode())
            sent += len(events)
            await writer.drain()
            if job.status in _TERMINAL and len(job.events) <= sent:
                writer.write(
                    f'data: {{"status": "{job.status}"}}\n\n'.encode()
                )
                await writer.drain()
                return

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        # Rebind the actual port (port=0 asks the OS to pick one).
        self.config.port = sock.getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        self.orchestrator.close()


class ServiceThread:
    """Run a :class:`VerificationService` on a daemon thread.

    The in-process harness for tests and benches: ``start()`` returns
    once the port is bound; ``stop()`` tears down the loop and the
    orchestrator.  Production deployments call ``serve_forever`` on
    the main thread instead (``python -m repro.service``).
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.service = VerificationService(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    @property
    def base_url(self) -> str:
        cfg = self.service.config
        return f"http://{cfg.host}:{cfg.port}"

    def start(self) -> "ServiceThread":
        def _main():
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.service.start())
            self._ready.set()
            try:
                loop.run_until_complete(self.service.serve_forever())
            except asyncio.CancelledError:
                pass
            finally:
                loop.run_until_complete(self.service.stop())
                # Let the cancelled handlers finish before the loop goes.
                pending = asyncio.all_tasks(loop)
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("service failed to bind within 10s")
        return self

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None:
            # Cancel from inside the loop, all at once: cancelling
            # ``serve_forever`` lets the loop close, after which another
            # ``call_soon_threadsafe`` from here would raise.
            try:
                loop.call_soon_threadsafe(_cancel_all_tasks)
            except RuntimeError:  # the loop has already closed
                pass
            thread.join(10.0)
        self.service.close()


def _cancel_all_tasks() -> None:
    for task in asyncio.all_tasks():
        task.cancel()


def create_app(config: ServiceConfig | None = None) -> VerificationService:
    """The stdlib service (always available)."""
    return VerificationService(config)
