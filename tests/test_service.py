"""End-to-end tests for the verification service (PR 10 tentpole).

Boots the real stdlib asyncio HTTP server in-process and drives it
over actual sockets: job submission in every kind, in-flight dedup,
cache-cell sharing between identical jobs, fault-plan/clean isolation,
worker death mid-job healed by the shared ``SweepEngine``, and a
restart coming back warm from the run cache's disk tier.

The worker-kill injection reuses the ``test_executor_healing``
pattern: a module-level transducer factory (fork pools and
``load_spec`` both resolve by reference) whose output query
``os._exit``\\ s the first forked worker that evaluates it.
"""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.lint import load_spec
from repro.core import build_transducer, transitive_closure_transducer
from repro.core import transducer as transducer_module
from repro.db import schema
from repro.lang import PythonQuery
from repro.service.app import ServiceConfig, ServiceThread

#: The pytest process; the saboteur only fires in forked workers.
_PARENT_PID = os.getpid()

#: One-shot kill flag directory, set by the kill test before submitting.
_KILL_DIR = None


def _trip(path):
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _killer_output(instance):
    if _KILL_DIR is not None and os.getpid() != _PARENT_PID:
        if _trip(os.path.join(_KILL_DIR, "service-kill")):
            os._exit(1)
    return instance.relation("R")


def killer_relay_factory():
    """A relay transducer whose output query kills one forked worker."""
    return build_transducer(
        inputs={"S": 1},
        messages={"M": 1},
        memory={"R": 1},
        output_arity=1,
        rules="""
            send M(x)   :- S(x).
            send M(x)   :- M(x).
            insert R(x) :- M(x).
        """,
        output=PythonQuery(
            _killer_output, 1, schema(R=1), reads=("R",),
            name="service_killer_output",
        ),
        name="service_killer_relay",
    )


TC_SPEC = "repro.core.examples:transitive_closure_transducer"

#: A Transducer object, not a factory: every job naming
#: ``SHARED_TC_SPEC`` runs on this one object.  Set by the test using it.
SHARED_TC = None
SHARED_TC_SPEC = "test_service:SHARED_TC"


def _payload(**overrides) -> dict:
    base = {
        "kind": "consistency",
        "spec": TC_SPEC,
        "network": {"topology": "line", "size": 3},
        "instance": {"S": [[1, 2], [2, 3], [3, 4]]},
        "seeds": [0, 1],
        "partition_count": 3,
    }
    base.update(overrides)
    return base


def _verdict(result: dict) -> dict:
    """A job result minus its per-run cache counters (which
    legitimately differ between cold and warm executions)."""
    return {k: v for k, v in result.items() if k != "cache"}


def _request(base_url: str, path: str, payload=None):
    if payload is None:
        req = urllib.request.Request(base_url + path)
    else:
        req = urllib.request.Request(
            base_url + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="class")
def service():
    st = ServiceThread(ServiceConfig(port=0, job_workers=2)).start()
    try:
        yield st
    finally:
        st.stop()


class TestHttpSurface:
    def test_healthz(self, service):
        status, body = _request(service.base_url, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["engine"]["lifetime"] == "serial"

    def test_unknown_route_404s(self, service):
        status, body = _request(service.base_url, "/nope")
        assert status == 404

    def test_unknown_job_404s(self, service):
        status, body = _request(service.base_url, "/jobs/job-missing")
        assert status == 404
        assert "job-missing" in body["error"]

    def test_bad_json_400s(self, service):
        req = urllib.request.Request(
            service.base_url + "/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "12x", "-1"])
    def test_bad_content_length_400s(self, service, length):
        # A raw socket: urllib would not send a malformed header.
        config = service.service.config
        with socket.create_connection(
            (config.host, config.port), timeout=30
        ) as conn:
            conn.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}".encode()
            )
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body) == {"error": "bad Content-Length"}

    def test_overlong_lines_answered_and_server_survives(self, service):
        # Lines over the reader's 64 KiB limit, which asyncio reports as
        # ValueError.  The 300,000-byte line also outgrows the reader's
        # buffer, so the server closes with input unread: that resets
        # the connection unless the server drains the input first.
        config = service.service.config
        cases = [
            (f"GET /{'a' * size} HTTP/1.1\r\nHost: x\r\n\r\n",
             b"HTTP/1.1 414 URI Too Long", "request line too long")
            for size in (70_000, 300_000)
        ] + [
            (f"GET /healthz HTTP/1.1\r\nX-Big: {'b' * 70_000}\r\n\r\n",
             b"HTTP/1.1 431 Request Header Fields Too Large",
             "header line too long"),
        ]
        for request, status_line, error in cases:
            with socket.create_connection(
                (config.host, config.port), timeout=30
            ) as conn:
                conn.sendall(request.encode())
                response = b""
                while chunk := conn.recv(4096):
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0] == status_line
            assert json.loads(body) == {"error": error}
        status, _ = _request(service.base_url, "/healthz")
        assert status == 200

    def test_bad_spec_400s_with_code(self, service):
        status, body = _request(
            service.base_url, "/jobs",
            {"kind": "consistency", "program": "p(X) :- q(X), not p(X)."},
        )
        assert status == 400
        assert body["code"] == "CALM009"

    def test_submit_poll_result_roundtrip(self, service):
        status, body = _request(service.base_url, "/jobs", _payload())
        assert status == 202
        job = service.service.orchestrator.wait(body["job_id"], timeout=120)
        status, seen = _request(service.base_url, f"/jobs/{body['job_id']}")
        assert status == 200
        assert seen["status"] == "done"
        assert seen["result"]["consistent"] is True
        assert seen["result"]["distinct_outputs"] == [
            [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
        ]
        # The static analyzer's report rides along on every job.
        assert seen["static_report"]["kind"] == "transducer"
        assert job.duration is not None and job.duration >= 0

    def test_event_stream_replays_to_terminal(self, service):
        status, body = _request(service.base_url, "/jobs", _payload(seeds=[5]))
        service.service.orchestrator.wait(body["job_id"], timeout=120)
        with urllib.request.urlopen(
            service.base_url + f"/jobs/{body['job_id']}/events", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            raw = resp.read().decode()
        events = [
            json.loads(line[len("data: "):])
            for line in raw.splitlines()
            if line.startswith("data: ")
        ]
        messages = [e["message"] for e in events if "message" in e]
        assert any("queued" in m for m in messages)
        assert "finished" in messages
        assert events[-1] == {"status": "done"}

    def test_metrics_json_and_text(self, service):
        status, snap = _request(service.base_url, "/metrics")
        assert status == 200
        assert "run_cache" in snap and "engine" in snap
        with urllib.request.urlopen(
            service.base_url + "/metrics?format=text", timeout=30
        ) as resp:
            text = resp.read().decode()
        assert "repro_run_cache_cache_hits" in text
        assert "repro_engine_lifetime" in text
        for line in text.splitlines():
            # Prometheus exposition: name[{labels}] <float>.
            head, value = line.rsplit(" ", 1)
            float(value)
            assert re.fullmatch(r'[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?', head), line

    def test_job_listing(self, service):
        status, listing = _request(service.base_url, "/jobs")
        assert status == 200
        assert listing["count"] >= 1
        assert all("id" in j and "status" in j for j in listing["jobs"])


class TestSharedCacheAcrossJobs:
    def test_identical_resubmission_serves_from_cache(self, service):
        payload = _payload(seeds=[11, 12], partition_count=4)
        _, first = _request(service.base_url, "/jobs", payload)
        job1 = service.service.orchestrator.wait(first["job_id"], timeout=240)
        assert job1.status == "done"
        cold_cache = job1.result["cache"]
        assert cold_cache["hits"] == 0 and cold_cache["misses"] > 0

        _, second = _request(service.base_url, "/jobs", payload)
        assert second["job_id"] != first["job_id"]
        job2 = service.service.orchestrator.wait(second["job_id"], timeout=240)
        # Same grid → same cells: the whole sweep is served from the
        # shared cache, zero recomputation.
        warm_cache = job2.result["cache"]
        assert warm_cache["misses"] == 0
        assert warm_cache["hits"] + warm_cache["dedup"] == (
            cold_cache["misses"] + cold_cache["dedup"]
        )
        assert _verdict(job2.result) == _verdict(job1.result)
        _, snap = _request(service.base_url, "/metrics")
        assert snap["run_cache"]["cache_hits"] >= warm_cache["hits"]

    def test_inflight_duplicate_attaches_to_running_job(self, service, monkeypatch):
        # A cold, non-trivial grid, held at the start of its run until
        # the duplicate is posted: the duplicate always lands while the
        # original is still queued/running on the 2-thread pool (a
        # cold grid can otherwise finish before the second POST).
        orchestrator = service.service.orchestrator
        release = threading.Event()
        run = orchestrator._run

        def held_run(job, request):
            release.wait(timeout=240)
            run(job, request)

        monkeypatch.setattr(orchestrator, "_run", held_run)
        payload = _payload(
            instance={"S": [[i, i + 1] for i in range(1, 7)]},
            seeds=[21, 22, 23],
            partition_count=4,
            network={"topology": "ring", "size": 4},
        )
        _, first = _request(service.base_url, "/jobs", payload)
        try:
            _, dup = _request(service.base_url, "/jobs", payload)
        finally:
            release.set()
        assert dup["deduplicated"] is True
        assert dup["job_id"] == first["job_id"]
        assert first["fingerprint"] == dup["fingerprint"]
        job = service.service.orchestrator.wait(first["job_id"], timeout=240)
        assert job.status == "done"
        _, snap = _request(service.base_url, "/metrics")
        assert snap["jobs"]["jobs_deduped"] >= 1

    def test_fault_job_never_aliases_clean_job(self, service):
        clean = _payload(seeds=[31], partition_count=2)
        faulty = _payload(
            seeds=[31], partition_count=2,
            faults={"seed": 9, "loss": 0.25, "duplication": 0.1},
        )
        _, a = _request(service.base_url, "/jobs", clean)
        job_a = service.service.orchestrator.wait(a["job_id"], timeout=240)
        _, b = _request(service.base_url, "/jobs", faulty)
        job_b = service.service.orchestrator.wait(b["job_id"], timeout=240)
        assert a["fingerprint"] != b["fingerprint"]
        # The faulted grid shares no run cells with the clean one: its
        # sweep is all misses even though the clean sweep just ran.
        assert job_b.result["cache"]["hits"] == 0
        assert job_b.result["cache"]["misses"] > 0
        # Both verdicts stand on their own runs.
        assert job_a.result["consistent"] is True
        assert job_b.result["consistent"] is True


class TestAllKindsOverHttp:
    @pytest.mark.parametrize(
        "kind,extra,checks",
        [
            ("consistency", {}, lambda r: r["consistent"] is True),
            (
                "topology-independence",
                {"seeds": [0], "partition_count": 2,
                 "instance": {"S": [[1, 2]]}},
                lambda r: r["independent"] is True,
            ),
            (
                "coordination-free",
                {"network": {"topology": "line", "size": 2},
                 "instance": {"S": [[1, 2]]}},
                lambda r: r["coordination_free"] is True,
            ),
            (
                "calm-verdict",
                {"static_first": True},
                lambda r: r["verdict_source"] == "static"
                and r["coordination_free"] is True,
            ),
        ],
    )
    def test_kind(self, service, kind, extra, checks):
        status, body = _request(
            service.base_url, "/jobs", _payload(kind=kind, **extra)
        )
        assert status in (200, 202)
        job = service.service.orchestrator.wait(body["job_id"], timeout=300)
        assert job.status == "done", job.error
        assert checks(job.result)

    def test_program_text_job(self, service):
        status, body = _request(service.base_url, "/jobs", {
            "kind": "consistency",
            "program": (
                "path(X, Y) :- edge(X, Y).\n"
                "path(X, Z) :- edge(X, Y), path(Y, Z)."
            ),
            "instance": {"edge": [[1, 2], [2, 3]]},
            "seeds": [0],
            "partition_count": 2,
        })
        assert status == 202
        job = service.service.orchestrator.wait(body["job_id"], timeout=240)
        assert job.status == "done", job.error
        assert job.result["consistent"] is True
        assert [[1, 2], [1, 3], [2, 3]] in job.result["distinct_outputs"]
        # Program jobs are linted as programs, not transducers.
        assert job.static_report["kind"] == "stratified-program"


class TestSharedTransducerObject:
    def test_concurrent_jobs_match_serial_verdicts(self, monkeypatch):
        # Small memo bounds, so the job threads evict while they share
        # the object's memos.
        monkeypatch.setattr(transducer_module, "MEMO_LIMIT", 64)
        monkeypatch.setattr(
            sys.modules[__name__], "SHARED_TC", transitive_closure_transducer()
        )
        assert load_spec(SHARED_TC_SPEC) is SHARED_TC
        payloads = [
            _payload(
                instance={"S": [[i, i + 1] for i in range(1, length + 1)]},
                seeds=[60 + length, 61 + length],
            )
            for length in range(3, 9)
        ]

        def verdicts(spec, job_workers):
            st = ServiceThread(ServiceConfig(port=0, job_workers=job_workers)).start()
            try:
                if job_workers == 1:
                    ids = []
                    for payload in payloads:
                        _, body = _request(st.base_url, "/jobs", {**payload, "spec": spec})
                        st.service.orchestrator.wait(body["job_id"], timeout=240)
                        ids.append(body["job_id"])
                else:
                    ids = [
                        _request(st.base_url, "/jobs", {**p, "spec": spec})[1]["job_id"]
                        for p in payloads
                    ]
                jobs = [st.service.orchestrator.wait(i, timeout=240) for i in ids]
            finally:
                st.stop()
            assert all(job.status == "done" for job in jobs), [j.error for j in jobs]
            return [_verdict(job.result) for job in jobs]

        serial = verdicts(TC_SPEC, job_workers=1)
        assert all(v["consistent"] for v in serial)
        assert verdicts(SHARED_TC_SPEC, job_workers=4) == serial
        assert "_evaluation_plan" in vars(SHARED_TC)  # the jobs ran on it


class TestWorkerDeathMidJob:
    def test_job_completes_via_engine_self_healing(self, tmp_path):
        global _KILL_DIR
        st = ServiceThread(ServiceConfig(
            port=0, job_workers=1, engine_workers=2, engine_lifetime="fork",
        )).start()
        _KILL_DIR = str(tmp_path)
        try:
            payload = {
                "kind": "consistency",
                "spec": "test_service:killer_relay_factory",
                "network": {"topology": "line", "size": 3},
                "instance": {"S": [[1], [2], [3]]},
                "seeds": [0, 1],
                "partition_count": 3,
            }
            status, body = _request(st.base_url, "/jobs", payload)
            assert status == 202
            job = st.service.orchestrator.wait(body["job_id"], timeout=300)
            assert job.status == "done", job.error
            assert job.result["consistent"] is True
            assert job.result["distinct_outputs"] == [[[1], [2], [3]]]
            # The kill really happened and the engine healed it.
            assert os.path.exists(os.path.join(str(tmp_path), "service-kill"))
            _, snap = _request(st.base_url, "/metrics")
            assert snap["engine"]["worker_deaths"] >= 1
            assert snap["engine"]["respawns"] >= 1
        finally:
            _KILL_DIR = None
            st.stop()


class TestRestartWarmFromDiskTier:
    def test_restarted_service_serves_warm_hits(self, tmp_path):
        disk = str(tmp_path / "service-cache.sqlite")
        store = str(tmp_path / "jobs.sqlite")
        payload = _payload(seeds=[41, 42], partition_count=3)

        # First life: a tiny memory bound forces every finished cell
        # to demote to the disk tier as fresher ones land.
        st = ServiceThread(ServiceConfig(
            port=0, job_workers=2, cache_max_entries=2, cache_max_bytes=None,
            cache_disk_path=disk, job_store_path=store,
        )).start()
        try:
            _, first = _request(st.base_url, "/jobs", payload)
            job1 = st.service.orchestrator.wait(first["job_id"], timeout=240)
            assert job1.status == "done"
            _, snap = _request(st.base_url, "/metrics")
            assert snap["run_cache"]["demotions"] > 0
            first_result = job1.result
        finally:
            st.stop()

        # Second life: same disk tier + job store.  The old job is
        # still addressable, and the re-run sweep is served warm from
        # disk — hits with zero recomputed cells.
        st2 = ServiceThread(ServiceConfig(
            port=0, job_workers=2, cache_max_entries=2, cache_max_bytes=None,
            cache_disk_path=disk, job_store_path=store,
        )).start()
        try:
            status, old = _request(st2.base_url, f"/jobs/{first['job_id']}")
            assert status == 200
            assert old["status"] == "done"
            assert _verdict(old["result"]) == _verdict(first_result)

            _, second = _request(st2.base_url, "/jobs", payload)
            job2 = st2.service.orchestrator.wait(second["job_id"], timeout=240)
            assert job2.status == "done"
            assert job2.result["cache"]["misses"] == 0
            assert job2.result["cache"]["hits"] > 0
            assert _verdict(job2.result) == _verdict(first_result)
            _, snap = _request(st2.base_url, "/metrics")
            assert snap["run_cache"]["cache_hits"] >= job2.result["cache"]["hits"]
            assert snap["run_cache"]["promotions"] > 0
            assert snap["jobs"]["jobs_restored"] >= 1
        finally:
            st2.stop()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))


class TestCleanShutdown:
    def test_stop_with_an_open_event_stream_reports_nothing(self, monkeypatch):
        # A job held at the start of its run keeps its SSE stream open
        # while the service stops; shutdown cancels the stream's
        # handler, and nothing may reach the loop's exception handler.
        st = ServiceThread(ServiceConfig(port=0, job_workers=1)).start()
        reported = []
        st._loop.call_soon_threadsafe(
            st._loop.set_exception_handler, lambda loop, context: reported.append(context)
        )
        orchestrator = st.service.orchestrator
        release = threading.Event()
        run = orchestrator._run

        def held_run(job, request):
            release.wait(timeout=60)
            run(job, request)

        monkeypatch.setattr(orchestrator, "_run", held_run)
        # The job is released once the loop thread is gone, so the
        # orchestrator's close() can drain it.
        releaser = threading.Thread(
            target=lambda: (st._thread.join(30), release.set())
        )
        stream = None
        try:
            _, job = _request(st.base_url, "/jobs", _payload(seeds=[51]))
            stream = socket.create_connection(
                (st.service.config.host, st.service.config.port), timeout=30
            )
            stream.sendall(
                f"GET /jobs/{job['job_id']}/events HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += stream.recv(4096)
            assert head.startswith(b"HTTP/1.1 200")
            releaser.start()
            st.stop()
        finally:
            release.set()
            if stream is not None:
                stream.close()
        assert not st._thread.is_alive()
        assert reported == []
