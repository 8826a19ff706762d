"""Thread-safety regressions for the shared run cache (PR 10).

The verification service multiplexes every client onto ONE
``RunCache``; before the locks landed, ``get``/``record``/
``_evict_over_bound`` interleavings could lose counter increments,
corrupt the byte ledger, or double-evict, the sqlite disk tier raised
``ProgrammingError`` on first cross-thread use, and two threads could
race ``runtime_token()``'s lazy init.  Each test here hammers one of
those paths from many threads and asserts the exact sequential
invariants — under CPython's GIL the races are windows, not
certainties, so the hammers iterate enough to have caught the old
bugs reliably (verified by reverting the locks).
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.net.runcache as runcache_mod
from repro.net.runcache import RunCache, runtime_token


@pytest.fixture(autouse=True)
def tight_thread_switching():
    """Shrink the GIL switch interval so the hammers actually interleave.

    At the default 5 ms interval the whole get/record critical section
    usually runs between switches and the old races never fire; at
    1 µs the unlocked cache fails these invariants on every trial
    (KeyError double-evicts, 'dictionary changed size', short
    ledgers) — that is the regression signal the locks must suppress.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(n: int, target, *args) -> list:
    """Start *n* threads at a barrier, join them, re-raise any error."""
    barrier = threading.Barrier(n)
    errors: list[BaseException] = []

    def _wrapped(idx: int):
        try:
            barrier.wait()
            target(idx, *args)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=_wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return errors


def _key(i: int) -> tuple:
    return ("fair-random", "netA", f"sha256:{i:04d}", "pd:hammer", i, ())


class TestCacheHammer:
    """Concurrent get/record/bump keep every ledger exact."""

    THREADS = 8
    OPS = 2000
    KEYS = 48

    def _hammer(self, cache: RunCache) -> tuple[int, int]:
        """Returns (total gets, total dedup bumps) across all threads."""
        per_thread_dedup = 25

        def work(idx: int):
            for op in range(self.OPS):
                key = _key((op * 7 + idx * 13) % self.KEYS)
                value = cache.get(key)
                if value is None:
                    cache.record(key, {"payload": "x" * 64, "cell": key[4]})
                else:
                    assert value["cell"] == key[4]
                if op % (self.OPS // per_thread_dedup) == 0:
                    cache.bump("cache_dedup")

        _run_threads(self.THREADS, work)
        dedups = self.THREADS * len(
            range(0, self.OPS, self.OPS // per_thread_dedup)
        )
        return self.THREADS * self.OPS, dedups

    def test_counters_cover_the_grid_unbounded(self):
        cache = RunCache()
        gets, dedups = self._hammer(cache)
        # Every get() is exactly one hit or one miss; every bump is
        # one dedup.  Lost increments (the old `+=` races) break this.
        assert cache.cache_hits + cache.cache_misses == gets
        assert cache.cache_dedup == dedups
        assert cache.cache_hits + cache.cache_misses + cache.cache_dedup == (
            gets + dedups
        )

    def test_ledger_is_sum_of_weights_under_eviction(self):
        # A byte bound small enough to evict constantly: record /
        # evict / re-record interleave across threads, and the ledger
        # must still be the exact sum of the retained weights.
        cache = RunCache(max_bytes=4096)
        gets, _dedups = self._hammer(cache)
        assert cache.cache_hits + cache.cache_misses == gets
        assert cache.bytes == sum(cache._weights.values())
        assert set(cache._weights) == set(cache.entries)
        assert cache.bytes <= cache.max_bytes
        assert cache.evictions > 0

    def test_entry_bound_holds_under_concurrency(self):
        cache = RunCache(max_entries=8)
        self._hammer(cache)
        assert len(cache.entries) <= 8
        assert cache.bytes == sum(cache._weights.values())


class TestConcurrentSweepCounts:
    """Each consistency report counts its own grid, not its neighbours'."""

    THREADS = 2
    CALLS = 8

    def test_report_counts_cover_their_own_grid(self):
        from repro.core import transitive_closure_transducer
        from repro.db import instance, schema
        from repro.net import check_consistency, line

        cache = RunCache()
        network = line(2)
        grid = 3 * 2  # partition_count × seeds
        reports: list = []

        def work(idx: int):
            for call in range(self.CALLS):
                # A fresh instance per call and thread, half of them
                # repeated across the two threads: grids overlap, so
                # hits, misses and dedup all occur concurrently.
                n = 2 + (call % 4)
                edges = [(i, i + 1) for i in range(n + idx * (call % 2))]
                reports.append(check_consistency(
                    network,
                    transitive_closure_transducer(),
                    instance(schema(S=2), S=edges),
                    partition_count=3,
                    seeds=(0, 1),
                    run_cache=cache,
                ))

        _run_threads(self.THREADS, work)
        assert len(reports) == self.THREADS * self.CALLS
        for report in reports:
            assert report.consistent
            total = report.cache_hits + report.cache_misses + report.cache_dedup
            assert total == grid
        assert sum(r.cache_hits for r in reports) == cache.cache_hits
        assert sum(r.cache_misses for r in reports) == cache.cache_misses
        assert sum(r.cache_dedup for r in reports) == cache.cache_dedup


class TestDiskTierThreads:
    """The sqlite tier works from threads other than its opener."""

    def test_cross_thread_get_and_promote(self, tmp_path):
        cache = RunCache(
            max_entries=4, disk_path=str(tmp_path / "tier.sqlite")
        )
        for i in range(32):
            cache.record(_key(i), {"cell": i})
        assert cache.demotions > 0
        hits = []

        def work(idx: int):
            # Every key is resolvable: either still in memory or on
            # disk.  Before check_same_thread=False this raised
            # sqlite3.ProgrammingError on the first disk read.
            for i in range(32):
                value = cache.get(_key((i + idx) % 32))
                assert value is not None and value["cell"] == (i + idx) % 32
                hits.append(1)

        _run_threads(6, work)
        assert len(hits) == 6 * 32
        assert cache.bytes == sum(cache._weights.values())

    def test_close_races_inflight_reads(self, tmp_path):
        cache = RunCache(
            max_entries=2, disk_path=str(tmp_path / "tier.sqlite")
        )
        for i in range(24):
            cache.record(_key(i), {"cell": i})
        stop = threading.Event()

        def reader(idx: int):
            i = 0
            while not stop.is_set():
                # After close() the tier must degrade to misses, never
                # raise from a half-torn-down connection.
                cache.get(_key(i % 24))
                i += 1

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        try:
            cache.close()
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_demote_while_reading(self, tmp_path):
        """Writers spilling to disk and readers promoting interleave."""
        cache = RunCache(
            max_entries=6, disk_path=str(tmp_path / "tier.sqlite")
        )

        def work(idx: int):
            for op in range(150):
                i = (op * 5 + idx * 11) % 40
                if cache.get(_key(i)) is None:
                    cache.record(_key(i), {"cell": i})

        _run_threads(6, work)
        assert cache.bytes == sum(cache._weights.values())
        assert len(cache.entries) <= 6

    def test_close_after_concurrent_records_keeps_every_key(self, tmp_path):
        # Eviction demotes and close() spills the rest, so a file
        # written by threads sharing one bounded cache holds every cell
        # any of them recorded — the warm start loses nothing.
        path = str(tmp_path / "tier.sqlite")
        cache = RunCache(max_entries=5, disk_path=path)

        def work(idx: int):
            for op in range(60):
                i = (op * 7 + idx * 3) % 48
                cache.record(_key(i), {"cell": i})

        _run_threads(4, work)
        cache.close()
        reopened = RunCache(disk_path=path)
        try:
            assert reopened.stats()["disk_entries"] == 48
            for i in range(48):
                assert reopened.get(_key(i)) == {"cell": i}
            assert reopened.cache_misses == 0
        finally:
            reopened.close()


class TestRuntimeTokenRace:
    def test_first_call_is_race_free(self, monkeypatch):
        # Clear the module-level memo so every thread races the lazy
        # first-call initialization; all must agree on one token.
        monkeypatch.setattr(runcache_mod, "_RUNTIME_TOKEN", None)
        tokens: list[str] = []
        lock = threading.Lock()

        def work(idx: int):
            token = runtime_token()
            with lock:
                tokens.append(token)

        _run_threads(16, work)
        assert len(tokens) == 16
        assert len(set(tokens)) == 1
        assert tokens[0] and tokens[0] == runtime_token()

    def test_token_matches_uncleared_value(self):
        # The double-checked path must compute the same digest as the
        # already-initialized fast path.
        before = runtime_token()
        runcache_mod._RUNTIME_TOKEN = None
        try:
            assert runtime_token() == before
        finally:
            runcache_mod._RUNTIME_TOKEN = before


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))
