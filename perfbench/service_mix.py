"""``service-mix``: a closed-loop HTTP client against the verification service.

The untraced run boots ``python -m repro.service`` as a subprocess with
2 job workers, the serial engine, and a ``--cache-max-bytes`` below the
mix's working set, so the run cache's LRU evicts.  One client drives it
closed-loop: it takes the next job of the seeded job list, POSTs it to
``/jobs``, follows ``/jobs/{id}/events`` to its terminal event, GETs
the result, then takes the next job.  A single client keeps the run
steady on a 2-core host: with two, a resubmission's latency was mostly
the wait behind the other client's cold job, spread over 0-0.25 s.
The client and the server share one core (``run.py`` pins the
benchmark and what it starts), and between jobs, while the server
idles, the client times a calibration slice (``calibrate.py``) on it:
every latency is read at the reference core speed.

Every block of ``BLOCK`` jobs holds 4 cold consistency jobs on fresh
chain-TC payloads, 3 resubmissions of earlier payloads (two recent,
one older and likely evicted), 1 seed prefix of a recent payload, 1
faulty job under a seeded loss + duplication ``FaultPlan``, and 1
malformed job that must get a 400.  Every latency is a client-side
sample; no percentile is read from the ``/metrics`` histograms.

The traced run hosts the same server in-process (``ServiceThread``) so
the tracer's wrappers reach its job threads.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import common
import layers
from calibrate import NOMINAL_S, SETUP_SLICES, Speed, slice_s
from tracer import Tracer, self_times

#: Small cold payloads, so a 30 s run holds ~80 cold jobs.
CHAIN_EDGES = 5
RUN_SEEDS = 2
PARTITIONS = 3
JOB_WORKERS = 2
#: About four cold jobs' recorded cells: the payloads a few jobs back
#: stay resident, and a block's working set (four cold jobs, a faulty
#: one and an old resubmission) does not fit.
CACHE_MAX_BYTES = 60_000
BLOCK = ("cold", "cold", "resub", "faulty", "cold", "prefix", "resub",
         "malformed", "cold", "resub-old")
JOBS = 1_000
SETUPS = 7
HTTP_TIMEOUT = 120.0
SPEC = "repro.core.examples:transitive_closure_transducer"


@dataclass(frozen=True)
class Job:
    kind: str
    body: bytes
    #: The closure a correct answer outputs; None for malformed jobs.
    expected: frozenset | None


def _chain_payload(rng: random.Random, payload_no: int) -> tuple[dict, frozenset]:
    """A fresh chain whose values no other payload of the run uses."""
    base = (payload_no + 1) * 1_000
    labels = rng.sample(range(base, base + 1_000), CHAIN_EDGES + 1)
    first = rng.randrange(1_000_000)
    payload = {
        "kind": "consistency",
        "spec": SPEC,
        "network": {"topology": "line", "size": 3},
        "instance": {"S": [[labels[i], labels[i + 1]] for i in range(CHAIN_EDGES)]},
        "seeds": list(range(first, first + RUN_SEEDS)),
        "partition_count": PARTITIONS,
    }
    closure = frozenset(
        (labels[a], labels[b]) for a in range(len(labels)) for b in range(a + 1, len(labels))
    )
    return payload, closure


def _malformed(rng: random.Random, valid: dict) -> bytes:
    broken = dict(valid)
    choice = rng.randrange(7)
    if choice == 0:
        broken["kind"] = "no-such-kind"
    elif choice == 1:
        broken["seeds"] = []
    elif choice == 2:
        broken["network"] = {"topology": "moebius", "size": 3}
    elif choice == 3:
        broken["instance"] = {"Q": [[1, 2]]}
    elif choice == 4:
        broken["partition_count"] = 0
    elif choice == 5:
        broken["faults"] = {"loss": 2.0}
    else:
        return b"{not json"
    return json.dumps(broken).encode()


def make_jobs(seed: int, count: int = JOBS) -> list[Job]:
    """The run's job list; the same seed gives the same list."""
    rng = random.Random(f"service-mix/{seed}")
    jobs: list[Job] = []
    cold: list[tuple[int, dict, frozenset]] = []  # (position, payload, closure)
    payloads = 0
    for pos in range(count):
        kind = BLOCK[pos % len(BLOCK)]
        # Refer only to payloads at least two positions back, so no
        # job resubmits the one just before it.
        earlier = [c for c in cold if c[0] <= pos - 2]
        recent, older = earlier[-2:], earlier[:-2] or earlier[-2:]
        if kind in ("cold", "faulty"):
            payload, closure = _chain_payload(rng, payloads)
            payloads += 1
            if kind == "faulty":
                payload["faults"] = {
                    "seed": rng.randrange(1_000_000),
                    "loss": rng.choice((0.1, 0.2)),
                    "duplication": rng.choice((0.1, 0.2)),
                }
            else:
                cold.append((pos, payload, closure))
            jobs.append(Job(kind, json.dumps(payload).encode(), closure))
        elif kind in ("resub", "resub-old"):
            _, payload, closure = rng.choice(recent if kind == "resub" else older)
            jobs.append(Job("resub", json.dumps(payload).encode(), closure))
        elif kind == "prefix":
            _, payload, closure = rng.choice(recent)
            prefix = dict(payload, seeds=payload["seeds"][: rng.randint(1, RUN_SEEDS - 1)])
            jobs.append(Job("prefix", json.dumps(prefix).encode(), closure))
        else:
            _, payload, _ = rng.choice(earlier)
            jobs.append(Job("malformed", _malformed(rng, payload), None))
    return jobs


# -- HTTP client --------------------------------------------------------------


def _request(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _follow_events(port: int, job_id: str) -> str:
    """Read the SSE stream of *job_id* to its terminal event; returns the status."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            raise RuntimeError(f"events stream answered {resp.status}")
        while True:
            line = resp.readline()
            if not line:
                raise RuntimeError("events stream ended before a terminal event")
            if line.startswith(b"data: "):
                event = json.loads(line[6:])
                if "status" in event:
                    return event["status"]
    finally:
        conn.close()


@dataclass
class JobRecord:
    index: int
    kind: str
    latency: float
    ok: bool
    error: str = ""
    #: Server stamps (submitted_at, started_at, finished_at), when a job ran.
    stamps: tuple | None = None
    job_id: str | None = None
    deduplicated: bool = False


def _outputs(result: dict) -> list[frozenset]:
    return [frozenset(tuple(row) for row in out) for out in result["distinct_outputs"]]


def run_job(port: int, index: int, job: Job, tracer: Tracer | None = None) -> JobRecord:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            return _run_job(port, index, job, t0)
        with tracer.span(layers.OP, op=f"client-{index}"):
            return _run_job(port, index, job, t0)
    except Exception as exc:  # noqa: BLE001 - an erroring job is a failed job
        return JobRecord(index, job.kind, time.perf_counter() - t0, False,
                         f"{type(exc).__name__}: {exc}")


def _run_job(port: int, index: int, job: Job, t0: float) -> JobRecord:
    status, raw = _request(port, "POST", "/jobs", job.body)
    if job.expected is None:
        ok = status == 400
        return JobRecord(index, job.kind, time.perf_counter() - t0, ok,
                         "" if ok else f"malformed job answered {status}")
    if status not in (200, 202):
        return JobRecord(index, job.kind, time.perf_counter() - t0, False,
                         f"POST answered {status}: {raw[:200]!r}")
    accepted = json.loads(raw)
    job_id = accepted["job_id"]
    terminal = _follow_events(port, job_id)
    status, raw = _request(port, "GET", f"/jobs/{job_id}")
    latency = time.perf_counter() - t0
    state = json.loads(raw)
    result = state.get("result") or {}
    ok = (
        status == 200
        and terminal == "done"
        and result.get("consistent") is True
        and result.get("unconverged") == 0
        and _outputs(result) == [job.expected]
    )
    return JobRecord(
        index, job.kind, latency, ok,
        "" if ok else f"wrong answer ({terminal}, {state.get('error')})",
        (state["submitted_at"], state["started_at"], state["finished_at"]),
        job_id, bool(accepted.get("deduplicated")),
    )


def drive(port: int, jobs: list[Job], seconds: float | None = None,
          limit: int | None = None, tracer: Tracer | None = None,
          speed: Speed | None = None):
    """One closed-loop client over *jobs*; stops after *seconds* or after
    *limit* jobs.  With *speed*, a calibration slice runs before the
    first job and after each.  Returns the records (in index order), the
    seconds each job kept the client busy, and the wall time."""
    records: list[JobRecord] = []
    busy: list[float] = []
    start = time.perf_counter()
    if speed is not None:
        speed.mark()
    for i, job in enumerate(jobs):
        if limit is not None and i >= limit:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        records.append(run_job(port, i, job, tracer))
        busy.append(time.perf_counter() - t0)
        if speed is not None:
            speed.mark()
    return records, busy, time.perf_counter() - start


# -- server lifecycle -----------------------------------------------------------


class ServerProcess:
    """``python -m repro.service`` as a subprocess of this benchmark."""

    def __init__(self, root: pathlib.Path, log_path: pathlib.Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_ENGINE", None)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--job-workers", str(JOB_WORKERS), "--engine-lifetime", "serial",
             "--cache-max-bytes", str(CACHE_MAX_BYTES)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self.proc.stdout.readline().decode()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _ = _request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def _metrics(port: int) -> dict:
    status, raw = _request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(raw)


def _summary(records: list[JobRecord], busy: list[float], speed: Speed) -> tuple[dict, dict]:
    metrics, details = common.op_metrics(
        [r.latency for r in records], busy,
        [r.kind == "cold" for r in records],
        [r.kind in ("resub", "prefix") for r in records], speed)
    # A resubmission is mostly a cache hit: ~6 ms of syscalls and thread
    # hand-offs that the slice does not track (over ten runs it moved 7%
    # while the slice moved 40%), so it is read on the raw clock.
    metrics["repeat_p50_s"] = details["raw_wall_clock"]["repeat_p50_s"]
    details["jobs_by_kind"] = dict(Counter(r.kind for r in records))
    return metrics, details


def _timed_boots(root: pathlib.Path, log_path: pathlib.Path, seed: int):
    """``SETUPS`` timed set-ups (the job list, then a server up to its
    first ``/healthz`` answer), each followed by calibration slices while
    the server idles (it shares this process's core).  The servers are
    stopped; the run boots its own.  Returns the set-up times and the
    slices."""
    setups, slices = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        make_jobs(seed)
        server = ServerProcess(root, log_path)
        try:
            server.wait_healthy()
            setups.append(time.perf_counter() - t0)
            slices.append(statistics.median(slice_s() for _ in range(SETUP_SLICES)))
        finally:
            server.stop()
    return setups, slices


def end_to_end(root: pathlib.Path, out_dir: pathlib.Path, seed: int, seconds: float):
    log_path = out_dir / "service.log"
    setups, slices = _timed_boots(root, log_path, seed)
    jobs = make_jobs(seed)
    server = ServerProcess(root, log_path)
    try:
        server.wait_healthy()
        speed = Speed()
        records, busy, wall = drive(server.port, jobs, seconds=seconds, speed=speed)
        snapshot = _metrics(server.port)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    metrics, details = _summary(records, busy, speed)
    metrics["setup_s"] = common.median(t * NOMINAL_S / cal for t, cal in zip(setups, slices))
    details["wall_s"] = wall
    metrics["peak_rss_mb"] = peak
    details["setup_samples_s"] = setups
    details["setup_slices_s"] = slices
    details["exact_counts"] = {
        "run_cache": snapshot["run_cache"],
        "jobs": snapshot["jobs"],
    }
    return metrics, details, records


def _drive_in_process(jobs: list[Job], tracer: Tracer | None = None, **limits):
    """Drive *jobs* against a fresh in-process server; returns the
    records, the wall time and the server's ``/metrics``."""
    from repro.service.app import ServiceConfig, ServiceThread

    st = ServiceThread(ServiceConfig(
        port=0, job_workers=JOB_WORKERS, engine_lifetime="serial",
        cache_max_bytes=CACHE_MAX_BYTES,
    )).start()
    try:
        records, _, wall = drive(st.service.config.port, jobs, tracer=tracer, **limits)
        return records, wall, _metrics(st.service.config.port)
    finally:
        st.stop()


def traced(seed: int, seconds: float):
    """Per-layer metrics: the mix untraced for half the time on one
    in-process server, then the same jobs traced on a fresh one.  One
    block of jobs on a throwaway server first loads every code path, so
    neither half pays first-use costs."""
    jobs = make_jobs(seed)
    warm, _, _ = _drive_in_process(jobs, limit=len(BLOCK))
    plain, plain_wall, _ = _drive_in_process(jobs, seconds=seconds / 2)
    tracer = Tracer()
    layers.install(tracer, service=True)
    try:
        records, traced_wall, snapshot = _drive_in_process(jobs, tracer, limit=len(plain))
    finally:
        tracer.uninstall()

    # A deduplicated job attached to a run another request started: its
    # stamps are that run's, so it only waits.
    ran = [r for r in records if r.stamps is not None and not r.deduplicated]
    attached = [r.latency for r in records if r.deduplicated]
    queue = [r.stamps[1] - r.stamps[0] for r in ran]
    run = [r.stamps[2] - r.stamps[1] for r in ran]
    http = [r.latency - (r.stamps[2] - r.stamps[0]) for r in ran]
    http += [r.latency for r in records if r.kind == "malformed"]
    op_seconds = sum(r.latency for r in records)
    metrics = layers.layer_metrics(tracer, len(records), op_seconds,
                                   extra_attributed_s=sum(queue) + sum(http) + sum(attached))
    cache = snapshot["run_cache"]
    lookups = cache["cache_hits"] + cache["cache_misses"]
    metrics.update({
        "service.queue_wait_s": sum(queue) / len(ran) if ran else 0.0,
        "service.run_s": sum(run) / len(ran) if ran else 0.0,
        "service.http_s": sum(http) / len(records) if records else 0.0,
        "runcache.hit_ratio": cache["cache_hits"] / lookups if lookups else 0.0,
        "runcache.evictions": float(cache["evictions"]),
        "runcache.bytes": float(cache["bytes"]),
        "trace_overhead_ratio": traced_wall / plain_wall,
    })
    details = {"ops": len(records), "attempted": len(warm) + len(plain) + len(records),
               "spans": tracer.span_count(), "untraced_wall_s": plain_wall,
               "traced_wall_s": traced_wall, "run_cache": cache,
               "queue_and_http_from_stamps_s": sum(queue) + sum(http) - sum(
                   r.latency for r in records if r.kind == "malformed"),
               "outside_job_span_s": _outside_job_span(tracer, ran)}
    return metrics, details, warm + plain + records, tracer


def _outside_job_span(tracer: Tracer, ran: list[JobRecord]) -> float:
    """Client time outside the job's span on the server's job thread.

    Each job's ``service`` span is linked, as a child, to the client
    span of the request that created it; the client span's self time
    is then the time spent in HTTP and in the queue.  It cross-checks
    the same quantity computed from the server's job stamps.
    """
    cols = tracer.columns()
    op_name, service_name = tracer.name_id(layers.OP), tracer.name_id("service")
    by_op = {}
    for sid, name, op, t0, t1 in zip(cols["sid"].tolist(), cols["name"].tolist(),
                                     cols["op"].tolist(), cols["t0"].tolist(),
                                     cols["t1"].tolist()):
        if name in (op_name, service_name):
            by_op[(name, tracer.op_ids[op])] = (sid, t0, t1)
    spans, clients = [], []
    for r in ran:
        client = by_op.get((op_name, f"client-{r.index}"))
        job = by_op.get((service_name, r.job_id))
        if client is None or job is None:
            continue
        clients.append(client[0])
        spans.append((client[0], 0, client[1], client[2]))
        spans.append((job[0], client[0], job[1], job[2]))
    own = self_times(spans)
    return sum(own[sid] for sid in clients)
