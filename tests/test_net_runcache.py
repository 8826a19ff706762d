"""The run-level result cache and the sweep engine over it.

Property suites pinning the PR 4 guarantees (and the PR 5 LRU bound
and canonical partition digests):

* **cache determinism** — a :class:`~repro.net.runcache.RunCache` hit
  reproduces the exact :class:`~repro.net.run.RunResult` a fresh run
  computes (the run is a pure function of its key), for workers ∈
  {1, 2};
* **engine reuse determinism** — two back-to-back sweeps through one
  :class:`~repro.net.executor.SweepEngine` are observation-for-observation
  identical to the serial sweeps;
* **fingerprint soundness** — structurally identical transducers share
  a canonical fingerprint (what makes persisted entries reusable
  across processes), different transducers never do, and transducers
  with non-canonical queries get session-local fingerprints that the
  disk tier refuses to carry;
* **shutdown discipline** — clean session exits drain worker pools
  (``close``+``join``), only exceptional exits terminate them.
"""

import pickle
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import calm_verdict
from repro.core import (
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.core.schema import TransducerSchema
from repro.core.transducer import Transducer
from repro.db import Fact, Instance, schema
from repro.lang.query import PythonQuery
from repro.net import (
    RunCache,
    SweepEngine,
    check_consistency,
    check_coordination_free_on,
    computed_output,
    line,
    ring,
    sample_partitions,
    sweep_runs,
    transducer_fingerprint,
)
from repro.net.runcache import (
    instance_digest,
    partition_digest,
    resolve_run_cache,
    run_key,
)

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _identity(instance):
    return instance.relation("S")


class TestTransducerFingerprint:
    def test_structurally_identical_transducers_share_fingerprints(self):
        a = transducer_fingerprint(transitive_closure_transducer())
        b = transducer_fingerprint(transitive_closure_transducer())
        assert a == b
        assert a.startswith("sha256:")

    def test_different_transducers_differ(self):
        a = transducer_fingerprint(transitive_closure_transducer())
        b = transducer_fingerprint(relay_identity_transducer())
        assert a != b

    def test_fingerprint_cached_and_shipped_with_pickle(self):
        td = transitive_closure_transducer()
        token = transducer_fingerprint(td)
        assert transducer_fingerprint(td) is token
        clone = pickle.loads(pickle.dumps(td))
        assert transducer_fingerprint(clone) == token

    def test_module_level_python_query_is_canonical(self):
        tschema = TransducerSchema(S1, schema(), schema(), 1)
        td = Transducer(
            tschema,
            output=PythonQuery(_identity, 1, tschema.combined),
        )
        token = transducer_fingerprint(td)
        assert token.startswith("sha256:")
        again = Transducer(
            tschema,
            output=PythonQuery(_identity, 1, tschema.combined),
        )
        assert transducer_fingerprint(again) == token

    def test_closure_query_falls_back_to_session_token(self):
        tschema = TransducerSchema(S1, schema(), schema(), 1)

        def make():
            return Transducer(
                tschema,
                output=PythonQuery(
                    lambda inst: inst.relation("S"), 1, tschema.combined
                ),
            )

        a, b = make(), make()
        assert transducer_fingerprint(a).startswith("mem:")
        # session tokens are per-object: no accidental sharing
        assert transducer_fingerprint(a) != transducer_fingerprint(b)
        # but stable for one object
        assert transducer_fingerprint(a) == transducer_fingerprint(a)


# ---------------------------------------------------------------------------
# RunCache mechanics
# ---------------------------------------------------------------------------


class TestRunCache:
    def test_get_record_counters(self):
        cache = RunCache()
        key = ("k",)
        assert cache.get(key) is None
        cache.record(key, "value")
        assert cache.get(key) == "value"
        assert (cache.cache_hits, cache.cache_misses) == (1, 1)
        cache.record(("k2",), "v2")
        assert len(cache) == 2
        assert cache.stats()["entries"] == 2

    def test_resolve_run_cache(self):
        assert resolve_run_cache(None) is None
        cache = RunCache()
        assert resolve_run_cache(cache) is cache
        for knob in (False, True, 42):
            with pytest.raises(TypeError):
                resolve_run_cache(knob)

    def test_runcache_refuses_to_pickle(self):
        with pytest.raises(TypeError):
            pickle.dumps(RunCache())

    def test_cached_sweep_leaves_transducer_picklable(self):
        # The cache is passed to a sweep, never hung on the transducer,
        # so a transducer that served cached sweeps still pickles.
        td = relay_identity_transducer()
        cache = RunCache()
        partitions = sample_partitions(ELEMENTS, line(2), 2)
        sweep_runs(line(2), td, partitions, (0,), run_cache=cache)
        assert len(cache) > 0
        clone = pickle.loads(pickle.dumps(td))
        assert getattr(clone, "run_cache", None) is None
        assert transducer_fingerprint(clone) == transducer_fingerprint(td)

    def test_reopened_file_serves_a_recorded_sweep(self, tmp_path):
        td = transitive_closure_transducer()
        partitions = sample_partitions(GRAPH, line(2), 2)
        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        sweep_runs(line(2), td, partitions, (0, 1), run_cache=cache)
        recorded = dict(cache.entries)
        assert recorded
        cache.close()
        reopened = RunCache(disk_path=path)
        assert reopened.stats()["disk_entries"] == len(recorded)
        for key, value in recorded.items():
            assert reopened.get(key) == value
        assert reopened.cache_misses == 0
        assert reopened.promotions == len(recorded)
        reopened.close()

    def test_disk_stamp_is_the_runtime_token(self, tmp_path):
        import sqlite3

        from repro.net.runcache import runtime_token

        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=4, max_bytes=1 << 16, disk_path=path)
        cache.record(("k",), "v")
        cache.close()
        conn = sqlite3.connect(str(path))
        try:
            meta = dict(conn.execute("SELECT k, v FROM meta").fetchall())
            rows = conn.execute("SELECT k FROM entries").fetchall()
        finally:
            conn.close()
        # Only the runtime is stamped: bounds belong to whoever opens
        # the file, not to the file.
        assert meta == {"runtime": runtime_token()}
        assert len(rows) == 1

    def test_live_value_replaces_the_row_at_close(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        first = RunCache(disk_path=path)
        first.record(("k",), "stale")
        first.close()
        second = RunCache(disk_path=path)
        second.record(("k",), "fresh")
        assert second.get(("k",)) == "fresh"  # memory shadows disk
        assert second.promotions == 0
        second.close()
        third = RunCache(disk_path=path)
        assert third.get(("k",)) == "fresh"
        assert third.stats()["disk_entries"] == 1
        third.close()

    def test_sessions_accumulate_in_one_file(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        for session in range(3):
            cache = RunCache(disk_path=path)
            cache.record(("k", session), session)
            cache.close()
        reopened = RunCache(disk_path=path)
        assert reopened.stats()["disk_entries"] == 3
        assert [reopened.get(("k", s)) for s in range(3)] == [0, 1, 2]
        reopened.close()

    def test_stats_fields(self):
        # The service's /metrics endpoint reports stats() verbatim.
        assert set(RunCache().stats()) == {
            "entries", "bytes", "cache_hits",
            "cache_misses", "cache_dedup", "max_entries", "max_bytes",
            "evictions", "demotions", "promotions", "disk_entries",
        }

    def test_python_query_fingerprint_tracks_function_body(self):
        from repro.net.runcache import _code_digest

        def one(inst):
            return inst.relation("S")

        def two(inst):
            return frozenset()

        assert _code_digest(one.__code__) != _code_digest(two.__code__)
        assert _code_digest(one.__code__) == _code_digest(one.__code__)


# ---------------------------------------------------------------------------
# Cache determinism: a hit reproduces the exact RunResult
# ---------------------------------------------------------------------------

values = st.integers(min_value=0, max_value=3)


@st.composite
def sweep_cases(draw):
    pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    network = draw(st.sampled_from([line(2), line(3), ring(3)]))
    seed = draw(st.integers(0, 50))
    return Instance(S2, [Fact("S", p) for p in pairs]), network, seed


class TestRunCacheDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_cached_sweep_equals_fresh_sweep(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        fresh = sweep_runs(network, TC, partitions, (seed, seed + 1))
        cache = RunCache()
        first = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(workers=workers), run_cache=cache,
        )
        assert first == fresh
        hits0, dedup0 = cache.cache_hits, cache.cache_dedup
        second = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(workers=workers), run_cache=cache,
        )
        assert second == fresh  # bit-identical observations off the cache
        # Every cell is served without executing: distinct cells hit the
        # store, in-grid duplicates are resolved from their primary.
        assert (
            (cache.cache_hits - hits0) + (cache.cache_dedup - dedup0)
            == len(fresh)
        )
        # Misses (from the cold sweep) count only cells that actually
        # executed — the distinct keys, not the whole grid.
        distinct = len({
            (partition_digest(p), s)
            for p in partitions for s in (seed, seed + 1)
        })
        assert cache.cache_misses == distinct
        assert len(cache) == distinct
        for cached_obs, fresh_obs in zip(second, fresh):
            assert cached_obs.result == fresh_obs.result

    def test_cache_shared_between_sweep_and_computed_output(self):
        cache = RunCache()
        td = transitive_closure_transducer()
        out = computed_output(line(2), td, GRAPH, run_cache=cache)
        assert cache.cache_misses == 1
        again = computed_output(line(2), td, GRAPH, run_cache=cache)
        assert again == out
        assert cache.cache_hits == 1
        # a structurally identical transducer hits the same entries
        clone_out = computed_output(
            line(2), transitive_closure_transducer(), GRAPH, run_cache=cache
        )
        assert clone_out == out
        assert cache.cache_hits == 2

    def test_check_consistency_surfaces_cache_counters(self):
        cache = RunCache()
        td = transitive_closure_transducer()
        first = check_consistency(
            line(3), td, GRAPH, partition_count=3, seeds=(0, 1),
            run_cache=cache,
        )
        assert first.cache_misses == 6 and first.cache_hits == 0
        assert first.cache_dedup == 0  # the sampled grid has no duplicates
        second = check_consistency(
            line(3), td, GRAPH, partition_count=3, seeds=(0, 1),
            run_cache=cache,
        )
        assert second.cache_hits == 6 and second.cache_misses == 0
        assert second.cache_dedup == 0
        assert second.observations == first.observations
        assert second.consistent == first.consistent

    def test_coordination_probe_caching_keeps_report_identical(self):
        td = relay_identity_transducer()
        expected = computed_output(line(2), td, ELEMENTS)
        plain = check_coordination_free_on(line(2), td, ELEMENTS, expected)
        cache = RunCache()
        first = check_coordination_free_on(
            line(2), td, ELEMENTS, expected, run_cache=cache
        )
        misses = cache.cache_misses
        assert misses > 0
        second = check_coordination_free_on(
            line(2), td, ELEMENTS, expected, run_cache=cache
        )
        assert cache.cache_misses == misses  # all probes served from cache
        for report in (first, second):
            assert report.coordination_free == plain.coordination_free
            assert report.partitions_tried == plain.partitions_tried
            assert report.witness == plain.witness

    def test_calm_verdict_with_cache_and_pool_matches_plain(self):
        plain = calm_verdict(transitive_closure_transducer(), GRAPH)
        cache = RunCache()
        engine = SweepEngine(workers=2, lifetime="fork")
        cached = calm_verdict(
            transitive_closure_transducer(), GRAPH,
            run_cache=cache, engine=engine,
        )
        assert cache.cache_misses > 0
        rerun = calm_verdict(
            transitive_closure_transducer(), GRAPH,
            run_cache=cache, engine=engine,
        )
        assert cached == plain
        assert rerun == plain


# ---------------------------------------------------------------------------
# One engine, many sweeps: determinism
# ---------------------------------------------------------------------------


class TestEngineReuse:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_back_to_back_sweeps_match_serial(self, workers):
        partitions = sample_partitions(GRAPH, line(3), 3)
        serial_a = sweep_runs(line(3), TC, partitions, (0, 1))
        serial_b = sweep_runs(line(3), TC, partitions, (2, 3))
        engine = SweepEngine(workers=workers)
        pooled_a = sweep_runs(line(3), TC, partitions, (0, 1), engine=engine)
        pooled_b = sweep_runs(line(3), TC, partitions, (2, 3), engine=engine)
        assert pooled_a == serial_a
        assert pooled_b == serial_b

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_pooled_sweeps_deterministic(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        serial = sweep_runs(network, TC, partitions, (seed, seed + 1))
        pooled = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(workers=workers),
        )
        assert pooled == serial

    def test_consecutive_maps_preserve_order(self):
        engine = SweepEngine(workers=2)
        for _ in range(3):
            out = engine.map(_double, "ctx", list(range(7)))
            assert out == [("ctx", i * 2) for i in range(7)]

    def test_workers_one_is_serial(self):
        engine = SweepEngine(workers=1)
        assert not engine.parallel
        assert engine.map(_double, "c", [1, 2]) == [("c", 2), ("c", 4)]

    def test_session_close_is_idempotent(self):
        session = SweepEngine(workers=2).session(_double, "c")
        assert session.map([1, 2, 3]) == [("c", 2), ("c", 4), ("c", 6)]
        session.close()
        session.close()
        session.terminate()


def _double(context, item):
    return (context, item * 2)


# ---------------------------------------------------------------------------
# Shutdown discipline: close on the happy path, terminate on error
# ---------------------------------------------------------------------------


class _FakePool:
    def __init__(self):
        self.calls = []

    def close(self):
        self.calls.append("close")

    def terminate(self):
        self.calls.append("terminate")

    def join(self):
        self.calls.append("join")


class TestShutdownDiscipline:
    def test_session_clean_exit_closes_not_terminates(self):
        session = SweepEngine(workers=2, lifetime="fork").session(_double, "ctx")
        fake = _FakePool()
        session._pool = fake
        with session:
            pass
        assert fake.calls == ["close", "join"]

    def test_session_exceptional_exit_terminates(self):
        session = SweepEngine(workers=2, lifetime="fork").session(_double, "ctx")
        fake = _FakePool()
        session._pool = fake
        with pytest.raises(RuntimeError):
            with session:
                raise RuntimeError("boom")
        assert fake.calls == ["terminate", "join"]


# ---------------------------------------------------------------------------
# Distributed Dedalus caching
# ---------------------------------------------------------------------------


class TestDedalusRunCache:
    def test_sweep_distributed_cache_hits_reproduce_traces(self):
        from repro.dedalus import DedalusProgram
        from repro.dedalus.distributed import sweep_distributed
        from repro.net import full_replication, round_robin

        program = DedalusProgram.parse(
            """
            T(x, y) :- S(x, y).
            T(x, y) :- T(x, z), S(z, y).
            """,
            S2,
        )
        net = line(2)
        chain = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3))])
        partitions = [round_robin(chain, net), full_replication(chain, net)]
        plain = sweep_distributed(program, net, partitions, seeds=(0, 1),
                                  max_steps=300)
        cache = RunCache()
        first = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300,
            run_cache=cache,
        )
        assert cache.cache_misses == 4 and cache.cache_hits == 0
        second = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300,
            run_cache=cache,
        )
        assert cache.cache_hits == 4
        for a, b, c in zip(plain, first, second):
            assert a.stabilized_at == b.stabilized_at == c.stabilized_at
            assert a.final() == b.final() == c.final()


# ---------------------------------------------------------------------------
# Canonical instance / partition digests (monotonicity-probe key reuse)
# ---------------------------------------------------------------------------


class TestCanonicalDigests:
    def test_instance_digest_ignores_fact_order(self):
        facts = [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))]
        a = Instance(S2, facts)
        b = Instance(S2, list(reversed(facts)))
        assert instance_digest(a) == instance_digest(b)

    def test_instance_digest_separates_instances_and_schemas(self):
        a = Instance(S2, [Fact("S", (1, 2))])
        b = Instance(S2, [Fact("S", (2, 1))])
        assert instance_digest(a) != instance_digest(b)
        assert instance_digest(Instance.empty(S2)) != instance_digest(
            Instance.empty(S1)
        )

    def test_partition_digest_identifies_placement(self):
        from repro.net import all_at_one, full_replication

        net = line(2)
        full = full_replication(GRAPH, net)
        one = all_at_one(GRAPH, net)
        assert partition_digest(full) != partition_digest(one)
        # rebuilt-but-equal partitions digest identically
        again = full_replication(
            Instance(S2, list(reversed(sorted(GRAPH.facts())))), net
        )
        assert partition_digest(full) == partition_digest(again)

    def test_run_key_canonicalizes_partitions(self):
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        key = run_key("fair-random", line(2), "sha256:x", partition, 0, {})
        assert isinstance(key[3], str) and key[3].startswith("hp:")
        # pre-digested strings pass through untouched
        assert run_key("fair-random", line(2), "sha256:x", key[3], 0, {}) == key

    def test_monotonicity_probe_hits_across_equal_instances(self):
        # The regression the ROADMAP's "cross-harness key reuse audit"
        # asked for: the CALM monotonicity probes regenerate their
        # instances per diagnostic, so differently-ordered but equal
        # instances must land on the same RunCache cell.
        from repro.analysis.calm import ComputedQuery

        cache = RunCache()
        query = ComputedQuery(
            transitive_closure_transducer(), line(2), run_cache=cache
        )
        facts = [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))]
        first = query(Instance(S2, facts))
        assert (cache.cache_hits, cache.cache_misses) == (0, 1)
        second = query(Instance(S2, list(reversed(facts))))
        assert second == first
        assert (cache.cache_hits, cache.cache_misses) == (1, 1)  # same cell


# ---------------------------------------------------------------------------
# The LRU bound: never exceeded, LRU-by-last-hit, eviction-transparent
# ---------------------------------------------------------------------------


class TestRunCacheLRUBound:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            RunCache(max_entries=0)
        RunCache(max_entries=1)  # smallest legal bound

    def test_recording_trims_to_bound(self):
        cache = RunCache(max_entries=4)
        for i in range(6):
            cache.record(("k", i), i)
        assert len(cache) == 4
        assert list(cache.entries) == [("k", i) for i in range(2, 6)]
        assert cache.evictions == 2

    def test_reopen_takes_the_bounds_it_is_given(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=3, disk_path=path)
        for i in range(5):
            cache.record(("k", i), i)
        cache.close()  # 2 demoted by eviction + 3 spilled
        rebound = RunCache(max_entries=2, disk_path=path)
        assert rebound.max_entries == 2
        assert [rebound.get(("k", i)) for i in range(5)] == list(range(5))
        assert list(rebound.entries) == [("k", 3), ("k", 4)]
        assert rebound.stats()["disk_entries"] == 5
        rebound.close()
        unbound = RunCache(disk_path=path)
        assert unbound.max_entries is None
        assert [unbound.get(("k", i)) for i in range(5)] == list(range(5))
        assert len(unbound) == 5
        unbound.close()

    def test_promotion_order_is_recency_after_reopen(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        for i in range(3):
            cache.record(("k", i), i)
        cache.close()
        reopened = RunCache(max_entries=3, disk_path=path)
        for i in (2, 0, 1):
            reopened.get(("k", i))
        assert list(reopened.entries) == [("k", 2), ("k", 0), ("k", 1)]
        reopened.get(("k", 2))  # a memory hit: ("k", 0) is now stalest
        reopened.record(("k", 9), 9)
        assert list(reopened.entries) == [("k", 1), ("k", 2), ("k", 9)]
        assert reopened.evictions == 1
        reopened.close()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 5),
    )
    def test_lru_matches_reference_model(self, ops, bound):
        # The cache against an OrderedDict reference LRU: the store
        # never exceeds the bound, hits promote, eviction order is
        # LRU-by-last-hit.
        from collections import OrderedDict

        cache = RunCache(max_entries=bound)
        model: OrderedDict = OrderedDict()
        for is_record, k in ops:
            key = ("k", k)
            if is_record:
                cache.record(key, k)
                model.pop(key, None)
                model[key] = k
                while len(model) > bound:
                    model.popitem(last=False)
            else:
                got = cache.get(key)
                if key in model:
                    assert got == model[key]
                    model.move_to_end(key)
                else:
                    assert got is None
            assert len(cache) <= bound
            assert list(cache.entries) == list(model)

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_evict_then_recompute_equals_unbounded(self, case, workers):
        # An evict-then-recompute cycle is bit-identical to an
        # unbounded cache: results are pure functions of their keys,
        # so eviction costs time, never correctness.
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        seeds = (seed, seed + 1)
        unbounded = RunCache()
        bounded = RunCache(max_entries=2)
        for _ in range(2):
            reference = sweep_runs(
                network, TC, partitions, seeds,
                run_cache=unbounded, engine=SweepEngine(workers=workers),
            )
            churned = sweep_runs(
                network, TC, partitions, seeds,
                run_cache=bounded, engine=SweepEngine(workers=workers),
            )
            assert churned == reference
            assert len(bounded) <= 2

class _OpaqueValue:
    """A hashable dom value with a non-injective repr (all instances
    render alike) — the shape that must NOT be digest-canonicalized."""

    def __repr__(self):
        return "opaque"

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return self is other


class TestDigestFallback:
    def test_non_canonical_values_refuse_to_digest(self):
        from repro.net import full_replication

        inst = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        with pytest.raises(ValueError, match="canonical"):
            instance_digest(inst)
        with pytest.raises(ValueError, match="canonical"):
            partition_digest(full_replication(inst, line(2)))

    def test_run_key_falls_back_to_true_equality(self):
        # Two *distinct* opaque values render identically; the key must
        # keep the partition object (set equality), so the second
        # instance can never be served the first one's result.
        from repro.net import full_replication

        a = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        b = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        key_a = run_key(
            "fair-random", line(2), "sha256:x",
            full_replication(a, line(2)), 0, {},
        )
        key_b = run_key(
            "fair-random", line(2), "sha256:x",
            full_replication(b, line(2)), 0, {},
        )
        assert not isinstance(key_a[3], str)  # object, not digest
        assert key_a != key_b  # distinct values, distinct cells
        # equal partitions still share the fallback cell
        key_a2 = run_key(
            "fair-random", line(2), "sha256:x",
            full_replication(a, line(2)), 0, {},
        )
        assert key_a2 == key_a

    def test_digest_cached_on_immutable_objects(self):
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        token = partition_digest(partition)
        assert partition._digest == token
        assert partition_digest(partition) == token
        assert GRAPH._digest is None or isinstance(GRAPH._digest, str)
        d = instance_digest(GRAPH)
        assert GRAPH._digest == d


# ---------------------------------------------------------------------------
# Fingerprints cover default argument values (regression)
# ---------------------------------------------------------------------------


def _limited(inst, limit=1):
    return frozenset(t for t in inst.relation("S") if t[0] <= limit)


def _limited_kw(inst, *, limit=1):
    return frozenset(t for t in inst.relation("S") if t[0] <= limit)


def _opaque_default(inst, marker=object()):
    return inst.relation("S")


class TestFingerprintDefaults:
    """Regression: ``_python_query_token`` salted only ``__code__``.

    Editing a function's *default argument values* keeps its bytecode
    bit-identical, so the old fingerprint survived the edit and served
    the old behaviour's cached results.  Defaults are part of the salt
    now.
    """

    def _transducer(self, func):
        tschema = TransducerSchema(S1, schema(), schema(), 1)
        return Transducer(
            tschema, output=PythonQuery(func, 1, tschema.combined)
        )

    def test_editing_a_default_forces_a_cold_recompute(self):
        original = _limited.__defaults__
        try:
            td1 = self._transducer(_limited)
            fp1 = transducer_fingerprint(td1)
            cache = RunCache()
            out1 = computed_output(line(2), td1, ELEMENTS, run_cache=cache)
            assert out1 == frozenset({(1,)})
            assert cache.cache_misses == 1
            _limited.__defaults__ = (3,)  # "edit" the default in place
            td2 = self._transducer(_limited)
            fp2 = transducer_fingerprint(td2)
            assert fp2 != fp1  # the regression: these used to collide
            out2 = computed_output(line(2), td2, ELEMENTS, run_cache=cache)
            # Cold recompute under the new fingerprint — not td1's
            # stale cached result.
            assert cache.cache_misses == 2
            assert out2 == frozenset({(1,), (2,), (3,)})
        finally:
            _limited.__defaults__ = original

    def test_kwonly_defaults_salt_the_fingerprint(self):
        original = dict(_limited_kw.__kwdefaults__)
        try:
            fp1 = transducer_fingerprint(self._transducer(_limited_kw))
            _limited_kw.__kwdefaults__["limit"] = 2
            fp2 = transducer_fingerprint(self._transducer(_limited_kw))
            assert fp1 != fp2
            assert fp1.startswith("sha256:") and fp2.startswith("sha256:")
        finally:
            _limited_kw.__kwdefaults__.update(original)

    def test_tuple_and_frozenset_defaults_are_canonical(self):
        from repro.net.runcache import _default_token

        assert _default_token((1, "a")) == _default_token((1, "a"))
        assert _default_token((1, "a")) != _default_token((1, "b"))
        # frozensets render sorted, not in hash order
        assert _default_token(frozenset({1, 2, 3})) == _default_token(
            frozenset({3, 1, 2})
        )

    def test_non_canonical_default_falls_back_to_session_token(self):
        token = transducer_fingerprint(self._transducer(_opaque_default))
        assert token.startswith("mem:")


# ---------------------------------------------------------------------------
# Digest framing (regression)
# ---------------------------------------------------------------------------


class TestDigestFraming:
    def test_refactored_fact_boundaries_do_not_collide(self):
        # Regression: fact tokens were concatenated into the hash with
        # no length framing, so the token streams of these two distinct
        # instances were byte-identical —
        #   "R(str:'a')" + "S(str:'b')"  ==  "R(str:'a')S(str:'b')"
        # (relation names are arbitrary strings) — and they digested to
        # the same cache cell.  Length-prefixing each token makes the
        # encoding injective.
        from repro.db.schema import DatabaseSchema

        sch = DatabaseSchema({"R": 1, "S": 1, "R(str:'a')S": 1})
        a = Instance(sch, [Fact("R", ("a",)), Fact("S", ("b",))])
        b = Instance(sch, [Fact("R(str:'a')S", ("b",))])
        assert instance_digest(a) != instance_digest(b)

    def test_partition_digests_frame_fragments_apart(self):
        from repro.db.schema import DatabaseSchema
        from repro.net import full_replication

        sch = DatabaseSchema({"R": 1, "S": 1, "R(str:'a')S": 1})
        a = Instance(sch, [Fact("R", ("a",)), Fact("S", ("b",))])
        b = Instance(sch, [Fact("R(str:'a')S", ("b",))])
        pa = full_replication(a, line(2))
        pb = full_replication(b, line(2))
        assert partition_digest(pa) != partition_digest(pb)


# ---------------------------------------------------------------------------
# Splice accounting: duplicates are neither hits nor misses (regression)
# ---------------------------------------------------------------------------


class TestSpliceDedupAccounting:
    def test_in_grid_duplicates_count_dedup_not_misses(self):
        from repro.net import full_replication

        p = full_replication(GRAPH, line(2))
        cache = RunCache()
        obs = sweep_runs(line(2), TC, [p, p], (0,), run_cache=cache)
        assert obs[0] == obs[1]
        # Regression: the duplicate cell never executed, yet used to
        # count a cache_miss — one real miss, one dedup.
        assert cache.cache_misses == 1
        assert cache.cache_hits == 0
        assert cache.cache_dedup == 1
        again = sweep_runs(line(2), TC, [p, p], (0,), run_cache=cache)
        assert again == obs
        assert cache.cache_misses == 1  # warm pass adds no misses
        assert cache.cache_hits == 1  # one store hit...
        assert cache.cache_dedup == 2  # ...the duplicate resolved from it

    def test_consistency_report_surfaces_dedup(self):
        from repro.net import full_replication

        p = full_replication(GRAPH, line(2))
        cache = RunCache()
        report = check_consistency(
            line(2), TC, GRAPH, partitions=[p, p], seeds=(0,),
            run_cache=cache,
        )
        assert report.cache_misses == 1
        assert report.cache_dedup == 1
        assert report.cache_hits == 0
        assert (
            report.cache_hits + report.cache_misses + report.cache_dedup
            == len(report.observations)
        )


# ---------------------------------------------------------------------------
# The byte-weighted LRU bound
# ---------------------------------------------------------------------------


class TestRunCacheByteBound:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            RunCache(max_bytes=0)
        RunCache(max_bytes=1)  # smallest legal budget

    def test_bytes_ledger_is_exact(self):
        from repro.net.runcache import _weigh

        cache = RunCache()
        payloads = {("a",): "x" * 10, ("b",): "y" * 500, ("c",): 7}
        for key, value in payloads.items():
            cache.record(key, value)
        assert cache.bytes == sum(_weigh(v) for v in payloads.values())
        assert cache.stats()["bytes"] == cache.bytes
        cache.record(("a",), "x" * 400)  # re-record re-weighs
        expected = (
            _weigh("x" * 400) + _weigh("y" * 500) + _weigh(7)
        )
        assert cache.bytes == expected

    def test_byte_eviction_is_lru_by_last_hit(self):
        from repro.net.runcache import _weigh

        w = _weigh("x" * 50)
        cache = RunCache(max_bytes=3 * w)
        for name in ("a", "b", "c"):
            cache.record((name,), "x" * 50)
        assert list(cache.entries) == [("a",), ("b",), ("c",)]
        cache.get(("a",))  # promote: ("b",) becomes the stalest entry
        cache.record(("d",), "x" * 50)
        assert list(cache.entries) == [("c",), ("a",), ("d",)]
        assert cache.evictions == 1
        assert cache.bytes == 3 * w

    def test_entry_larger_than_budget_is_not_kept(self):
        cache = RunCache(max_bytes=8)
        cache.record(("big",), "x" * 1000)
        assert len(cache) == 0
        assert cache.bytes == 0
        assert cache.evictions == 1

    def test_oversized_entry_leaves_resident_entries(self):
        # Making room for an entry heavier than the whole budget used
        # to evict every resident entry before the heavy one itself.
        from repro.net.runcache import _weigh

        w = _weigh("x" * 50)
        cache = RunCache(max_bytes=3 * w)
        for name in ("a", "b", "c"):
            cache.record((name,), "x" * 50)
        cache.record(("big",), "x" * 1000)
        assert list(cache.entries) == [("a",), ("b",), ("c",)]
        assert cache.bytes == 3 * w
        assert cache.evictions == 1

    def test_recording_trims_to_byte_budget(self):
        from repro.net.runcache import _weigh

        w = _weigh("x" * 50)
        cache = RunCache(max_bytes=3 * w)
        for i in range(6):
            cache.record(("k", i), "x" * 50)
        assert list(cache.entries) == [("k", i) for i in range(3, 6)]
        assert cache.bytes == 3 * w
        assert cache.evictions == 3

    def test_reopen_under_a_byte_budget(self, tmp_path):
        from repro.net.runcache import _weigh

        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_bytes=1 << 16, disk_path=path)
        for i in range(4):
            cache.record(("k", i), "x" * 32)
        recorded_bytes = cache.bytes
        cache.close()
        w = _weigh("x" * 32)
        rebound = RunCache(max_bytes=2 * w, disk_path=path)
        for i in range(4):
            assert rebound.get(("k", i)) == "x" * 32
        assert list(rebound.entries) == [("k", 2), ("k", 3)]
        assert rebound.bytes <= 2 * w
        rebound.close()
        unbound = RunCache(disk_path=path)
        for i in range(4):
            unbound.get(("k", i))
        assert unbound.max_bytes is None
        assert len(unbound) == 4
        assert unbound.bytes == recorded_bytes
        unbound.close()

    def test_promoted_entries_are_weighed_like_records(self, tmp_path):
        from repro.net.runcache import _weigh

        path = tmp_path / "tier.sqlite"
        payloads = {("a",): "x" * 10, ("b",): "y" * 500, ("c",): 7}
        cache = RunCache(disk_path=path)
        for key, value in payloads.items():
            cache.record(key, value)
        cache.close()
        reopened = RunCache(max_bytes=1 << 16, disk_path=path)
        for key in payloads:
            reopened.get(key)
        assert reopened.bytes == sum(_weigh(v) for v in payloads.values())
        assert reopened.bytes == sum(reopened._weights.values())
        reopened.close()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 9), st.integers(0, 200)
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(64, 512),
    )
    def test_byte_bound_invariants(self, ops, budget):
        # Whatever the op sequence: the budget is never exceeded, the
        # ledger equals the sum of the weights of the present entries,
        # and weights track entries exactly.
        cache = RunCache(max_bytes=budget)
        for is_record, k, size in ops:
            key = ("k", k)
            if is_record:
                cache.record(key, "x" * size)
            else:
                cache.get(key)
            assert cache.bytes <= budget
            assert cache.bytes == sum(cache._weights.values())
            assert set(cache._weights) == set(cache.entries)

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_byte_evict_then_recompute_equals_unbounded(self, case, workers):
        # The byte-weighted mirror of the max_entries property: an
        # evict-then-recompute cycle under a byte budget is
        # bit-identical to the unbounded cache, for serial and
        # parallel sweeps alike.
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        seeds = (seed, seed + 1)
        unbounded = RunCache()
        reference = sweep_runs(
            network, TC, partitions, seeds,
            run_cache=unbounded, engine=SweepEngine(workers=workers),
        )
        budget = max(1, unbounded.bytes // 2)  # guarantees churn
        bounded = RunCache(max_bytes=budget)
        for _ in range(2):
            churned = sweep_runs(
                network, TC, partitions, seeds,
                run_cache=bounded, engine=SweepEngine(workers=workers),
            )
            assert churned == reference
            assert bounded.bytes <= budget
            assert bounded.bytes == sum(bounded._weights.values())

    def test_traced_results_round_trip(self, tmp_path):
        from repro.net import run_fair
        from repro.net.runcache import _weigh

        td = transitive_closure_transducer()
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        traced = run_fair(line(2), td, partition, seed=0, keep_trace=True)
        assert traced.trace  # the workload really carries a trace
        cache = RunCache()
        cache.record(("traced",), traced)
        assert cache.get(("traced",)) is traced  # stored as recorded
        assert cache.bytes == _weigh(traced)
        # ...and through the disk tier: spilled at close, promoted back
        # by a cache reopened over the same file.
        path = tmp_path / "traced.sqlite"
        disk = RunCache(disk_path=path)
        key = run_key("fair-random", line(2), "sha256:abc", "hp:t", 0, {})
        disk.record(key, traced)
        disk.close()
        reopened = RunCache(disk_path=path)
        assert reopened.get(key) == traced
        reopened.close()


# ---------------------------------------------------------------------------
# The disk tier: eviction demotes, a memory miss promotes
# ---------------------------------------------------------------------------


class TestDiskTier:
    def _key(self, i):
        return run_key("fair-random", line(2), "sha256:abc", f"hp:{i}", i, {})

    def test_eviction_demotes_and_get_promotes(self, tmp_path):
        cache = RunCache(max_entries=1, disk_path=tmp_path / "tier.sqlite")
        cache.record(self._key(1), "one")
        cache.record(self._key(2), "two")  # evicts and demotes key 1
        assert cache.demotions == 1
        assert cache.stats()["disk_entries"] == 1
        hits0 = cache.cache_hits
        assert cache.get(self._key(1)) == "one"  # promoted back
        assert cache.promotions == 1
        assert cache.cache_hits == hits0 + 1  # a disk hit is a hit
        assert cache.cache_misses == 0
        # the promotion demoted key 2 in turn (max_entries=1) — the
        # tiers cycle, they never discard
        assert cache.get(self._key(2)) == "two"
        assert cache.promotions == 2
        cache.close()

    def test_disk_tier_survives_reopen(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=1, disk_path=path)
        cache.record(self._key(1), "one")
        cache.record(self._key(2), "two")
        cache.close()
        reopened = RunCache(disk_path=path)
        assert len(reopened) == 0  # memory starts cold...
        assert reopened.get(self._key(1)) == "one"  # ...the tier is warm
        assert reopened.promotions == 1
        reopened.close()

    def test_runtime_token_mismatch_purges_tier(self, tmp_path, monkeypatch):
        from repro.net import runcache as runcache_module

        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=1, disk_path=path)
        cache.record(self._key(1), "one")
        cache.record(self._key(2), "two")
        assert cache.stats()["disk_entries"] == 1
        cache.close()
        # Same file, "next release": the library's source changed.
        monkeypatch.setattr(runcache_module, "_RUNTIME_TOKEN", "changed")
        stale = RunCache(disk_path=path)
        assert stale.stats()["disk_entries"] == 0  # purged at open
        assert stale.get(self._key(1)) is None
        assert stale.cache_misses == 1
        stale.close()

    def test_session_local_and_object_keys_never_spill(self, tmp_path):
        from repro.net import full_replication
        from repro.net.runcache import _disk_key_text

        cache = RunCache(max_entries=1, disk_path=tmp_path / "tier.sqlite")
        mem_key = run_key("fair-random", line(2), "mem:1:2", "hp:x", 0, {})
        cache.record(mem_key, "local")
        cache.record(self._key(1), "one")  # evicts mem_key
        assert cache.demotions == 0
        assert cache.stats()["disk_entries"] == 0
        assert _disk_key_text(mem_key) is None
        opaque = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        obj_key = run_key(
            "fair-random", line(2), "sha256:abc",
            full_replication(opaque, line(2)), 0, {},
        )
        assert _disk_key_text(obj_key) is None
        cache.close()

    def test_close_spills_only_cross_process_keys(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        mem_key = run_key("fair-random", line(2), "mem:1:2", "hp:x", 0, {})
        cache.record(mem_key, "local")
        cache.record(self._key(1), "one")
        cache.close()
        assert cache.demotions == 1  # the mem: entry stayed behind
        reopened = RunCache(disk_path=path)
        assert reopened.stats()["disk_entries"] == 1
        assert reopened.get(self._key(1)) == "one"
        assert reopened.get(mem_key) is None
        reopened.close()

    def test_stale_file_stamp_purges_rows(self, tmp_path):
        # The mirror of the token test above: the *file* was written by
        # other code (here: its stamp rewritten), the process is current.
        import sqlite3

        from repro.net.runcache import runtime_token

        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        cache.record(self._key(1), "one")
        cache.close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET v = 'older-release' WHERE k = 'runtime'")
        conn.commit()
        conn.close()
        reopened = RunCache(disk_path=path)
        assert reopened.stats()["disk_entries"] == 0
        assert reopened.get(self._key(1)) is None
        reopened.close()
        conn = sqlite3.connect(str(path))
        try:
            stamp = conn.execute(
                "SELECT v FROM meta WHERE k = 'runtime'"
            ).fetchone()[0]
        finally:
            conn.close()
        assert stamp == runtime_token()  # restamped for the next open

    def test_demote_promote_roundtrip_preserves_run_results(self, tmp_path):
        # Real RunResults through the whole cycle: record → evict →
        # sqlite → promote must be bit-identical to a fresh run.
        td = transitive_closure_transducer()
        partitions = sample_partitions(GRAPH, line(2), 2)
        reference = sweep_runs(line(2), td, partitions, (0, 1))
        cache = RunCache(
            max_bytes=1, disk_path=tmp_path / "tier.sqlite"
        )  # every entry demotes straight to disk
        churned = sweep_runs(
            line(2), td, partitions, (0, 1), run_cache=cache
        )
        assert churned == reference
        assert cache.demotions >= 1
        warm = sweep_runs(line(2), td, partitions, (0, 1), run_cache=cache)
        assert warm == reference
        assert cache.promotions >= 1  # the warm pass was served by disk
        cache.close()

    def test_oversized_disk_row_promotion_keeps_memory(self, tmp_path):
        # A row heavier than the memory budget is served from disk
        # without flushing the resident entries on its way through.
        from repro.net.runcache import _weigh

        w = _weigh("x" * 50)
        cache = RunCache(max_bytes=3 * w, disk_path=tmp_path / "tier.sqlite")
        cache.record(self._key(0), "x" * 1000)  # straight to disk
        assert (cache.evictions, cache.demotions) == (1, 1)
        assert len(cache) == 0
        for i in (1, 2, 3):
            cache.record(self._key(i), "x" * 50)
        assert cache.get(self._key(0)) == "x" * 1000
        assert cache.promotions == 1
        assert list(cache.entries) == [self._key(i) for i in (1, 2, 3)]
        assert cache.bytes == 3 * w
        assert cache.demotions == 1  # the row was already on disk
        cache.close()

    def test_warm_start_across_processes(self, tmp_path):
        # A check run in another process (with another hash seed) into
        # a disk-backed cache, then closed, leaves a file that a cache
        # reopened here serves every cell from, with an equal report.
        import dataclasses
        import os
        import subprocess
        import sys

        path = tmp_path / "warm.sqlite"
        cold_path = tmp_path / "cold.pkl"
        script = f"""
import pickle
from repro.core import transitive_closure_transducer
from repro.db import Fact, Instance, schema
from repro.net import RunCache, check_consistency, line
graph = Instance(schema(S=2), [Fact("S", p) for p in ((1, 2), (2, 3), (3, 1))])
cache = RunCache(disk_path={str(path)!r})
report = check_consistency(line(3), transitive_closure_transducer(), graph,
                           partition_count=3, seeds=(0, 1), run_cache=cache)
cache.close()
with open({str(cold_path)!r}, "wb") as handle:
    pickle.dump(report, handle)
"""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=120
        )
        cold = pickle.loads(cold_path.read_bytes())
        assert cold.cache_misses > 0

        cache = RunCache(disk_path=path)
        warm = check_consistency(
            line(3), transitive_closure_transducer(), GRAPH,
            partition_count=3, seeds=(0, 1), run_cache=cache,
        )
        cache.close()
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert cache.promotions == warm.cache_hits
        counters = {"cache_hits": 0, "cache_misses": 0, "cache_dedup": 0}
        assert dataclasses.replace(warm, **counters) == dataclasses.replace(
            cold, **counters
        )

    def test_delete_drops_one_row(self, tmp_path):
        from repro.net.runcache import _DiskTier

        tier = _DiskTier(tmp_path / "tier.sqlite")
        tier.put("a", b"1")
        tier.put("b", b"2")
        tier.delete("a")
        assert tier.get("a") is None
        assert tier.get("b") == b"2"
        assert len(tier) == 1
        tier.close()
        tier.delete("b")  # a closed tier ignores it

    def test_close_is_idempotent_and_cache_keeps_working(self, tmp_path):
        cache = RunCache(disk_path=tmp_path / "tier.sqlite")
        cache.record(self._key(1), "one")
        cache.close()
        cache.close()
        assert cache.get(self._key(1)) == "one"  # memory tier still live


# ---------------------------------------------------------------------------
# One writer: workers never see the cache
# ---------------------------------------------------------------------------


class TestParallelSweepCache:
    @pytest.mark.parametrize("workers", [2])
    def test_parallel_sweep_records_every_cell(self, workers):
        partitions = sample_partitions(GRAPH, line(3), 3)
        cache = RunCache()
        obs = sweep_runs(
            line(3), TC, partitions, (0, 1),
            run_cache=cache, engine=SweepEngine(workers=workers),
        )
        distinct = len({
            (partition_digest(p), s)
            for p in partitions for s in (0, 1)
        })
        # Every executed cell landed in the parent cache.
        assert len(cache) == distinct
        assert cache.cache_misses == distinct
        warm = sweep_runs(
            line(3), TC, partitions, (0, 1),
            run_cache=cache, engine=SweepEngine(workers=workers),
        )
        assert warm == obs
        assert cache.cache_misses == distinct  # no new misses warm

    def test_parallel_sweep_leaves_serial_cache_state(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        serial_cache = RunCache(max_entries=3)
        serial = sweep_runs(
            line(3), transitive_closure_transducer(), partitions, (0, 1),
            run_cache=serial_cache,
        )
        parallel_cache = RunCache(max_entries=3)
        parallel = sweep_runs(
            line(3), transitive_closure_transducer(), partitions, (0, 1),
            run_cache=parallel_cache,
            engine=SweepEngine(workers=2, lifetime="fork"),
        )
        assert parallel == serial
        got, want = parallel_cache.stats(), serial_cache.stats()
        # A weight is a pickled size, which follows object sharing, and
        # sharing depends on what the building process's caches held.
        del got["bytes"], want["bytes"]
        assert got == want
        assert list(parallel_cache.entries) == list(serial_cache.entries)


# ---------------------------------------------------------------------------
# Damage degradation: a corrupt disk tier never crashes a sweep
# ---------------------------------------------------------------------------


class TestCacheDamageDegradation:
    """A damaged persistence layer degrades, it does not crash.

    A corrupt sqlite disk tier is purged and recreated at open, an
    undecodable row is a dropped miss, and a tier that fails
    mid-session is disabled with a :class:`RuntimeWarning` — and in
    every case the sweep on top runs to completion.
    """

    def test_corrupt_disk_tier_is_purged_at_open(self, tmp_path):
        disk = tmp_path / "tier.sqlite"
        disk.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = RunCache(max_entries=1, disk_path=str(disk))
        try:
            # the fresh tier really works: evictions demote, misses promote
            for i in range(3):
                cache.record(("k", i), f"v{i}")
            assert cache.stats()["demotions"] > 0
            assert cache.get(("k", 0)) == "v0"
            assert cache.stats()["promotions"] > 0
        finally:
            cache.close()

    def _closed_tier(self, tmp_path, n=40):
        disk = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=str(disk))
        for i in range(n):
            cache.record(("k", i), f"v{i}" * 40)
        cache.close()
        return disk

    def test_truncated_disk_tier_opens_cold_with_a_warning(self, tmp_path):
        disk = self._closed_tier(tmp_path)
        blob = disk.read_bytes()
        disk.write_bytes(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = RunCache(disk_path=str(disk))
        try:
            assert cache.stats()["disk_entries"] == 0
            assert cache.get(("k", 0)) is None
            cache.record(("k", 0), "v0")  # cold but fully usable
            assert cache.get(("k", 0)) == "v0"
        finally:
            cache.close()

    def test_byte_flipped_disk_tier_never_raises(self, tmp_path):
        # Flip one byte at a time across the file: every position
        # opens (warm, partly warm or purged) and serves gets, records
        # and a close — no sqlite or decoder error ever escapes, and
        # no get serves a value other than the one recorded.
        disk = self._closed_tier(tmp_path)
        blob = disk.read_bytes()
        step = max(1, len(blob) // 40)
        for pos in range(0, len(blob), step):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            disk.write_bytes(bytes(flipped))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cache = RunCache(max_entries=4, disk_path=str(disk))
                for i in range(40):
                    assert cache.get(("k", i)) in (f"v{i}" * 40, None), pos
                cache.record(("k", 99), "fresh")
                cache.close()

    def test_byte_flipped_value_is_a_warned_miss(self, tmp_path):
        # A value blob damaged in place may still unpickle; its digest
        # does not match, so the row is dropped instead of served.
        import sqlite3

        disk = self._closed_tier(tmp_path, n=1)
        conn = sqlite3.connect(str(disk))
        (value,) = conn.execute("SELECT v FROM entries").fetchone()
        wrong = pickle.dumps("v1" * 40, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(wrong) == len(value) and pickle.loads(wrong) != pickle.loads(value)
        conn.execute("UPDATE entries SET v = ?", (wrong,))
        conn.commit()
        conn.close()
        cache = RunCache(disk_path=str(disk))
        try:
            with pytest.warns(RuntimeWarning, match="digest"):
                assert cache.get(("k", 0)) is None
            assert cache.stats()["disk_entries"] == 0
        finally:
            cache.close()

    def test_undecodable_schema_opens_as_a_corrupt_tier(self, tmp_path):
        # A flipped byte in a table's stored SQL makes sqlite's error
        # message undecodable: Python raises UnicodeDecodeError, not a
        # sqlite error, and that too must purge the tier.
        disk = self._closed_tier(tmp_path, n=1)
        blob = bytearray(disk.read_bytes())
        blob[blob.index(b"CREATE TABLE meta") + 2] ^= 0xFF
        disk.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = RunCache(disk_path=str(disk))
        try:
            assert cache.get(("k", 0)) is None
            cache.record(("k", 0), "v0")
        finally:
            cache.close()

    def test_spill_reopens_with_every_record(self, tmp_path):
        disk = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=str(disk))
        for i in range(200):
            cache.record(("k", i), i)
        cache.close()
        assert cache.stats()["demotions"] == 200
        reopened = RunCache(disk_path=str(disk))
        try:
            assert reopened.stats()["disk_entries"] == 200
            assert [reopened.get(("k", i)) for i in range(200)] == list(range(200))
            assert reopened.stats()["cache_hits"] == 200
        finally:
            reopened.close()

    def test_unopenable_disk_path_runs_memory_only(self, tmp_path):
        disk = tmp_path / "missing-dir" / "tier.sqlite"
        with pytest.warns(RuntimeWarning) as caught:
            cache = RunCache(max_entries=1, disk_path=str(disk))
        assert "disabling the tier" in str(caught[-1].message)
        cache.record(("k", 0), "v0")
        cache.record(("k", 1), "v1")  # the eviction has nowhere to go
        assert cache.get(("k", 1)) == "v1"
        assert cache.get(("k", 0)) is None
        assert cache.stats()["disk_entries"] == 0
        cache.close()
        assert not disk.exists()

    def test_corrupted_cache_start_never_crashes_a_sweep(self, tmp_path):
        partitions = sample_partitions(GRAPH, line(3), 3)
        reference = sweep_runs(line(3), TC, partitions, (0, 1))
        disk = tmp_path / "tier.sqlite"
        disk.write_bytes(b"\x00" * 512)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = RunCache(max_entries=3, disk_path=str(disk))
        try:
            got = sweep_runs(
                line(3), TC, partitions, (0, 1),
                run_cache=cache, engine=SweepEngine(workers=2),
            )
            assert got == reference
        finally:
            cache.close()

    def test_undecodable_disk_row_is_a_dropped_miss(self, tmp_path):
        import sqlite3

        disk = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=1, disk_path=str(disk))
        try:
            cache.record(("k", 0), "v0")
            cache.record(("k", 1), "v1")  # demotes ("k", 0)
            assert cache.stats()["disk_entries"] == 1
            conn = sqlite3.connect(str(disk))
            conn.execute("UPDATE entries SET v = ?", (b"\x80\x05garbage",))
            conn.commit()
            conn.close()
            with pytest.warns(RuntimeWarning, match="undecodable"):
                assert cache.get(("k", 0)) is None
            assert cache.cache_misses == 1
            assert cache.stats()["disk_entries"] == 0  # the row is gone
            # the tier stays live: the recomputed value takes its place
            cache.record(("k", 0), "v0")
            assert cache.get(("k", 1)) == "v1"
            assert cache.stats()["promotions"] == 1
        finally:
            cache.close()

    def test_undecodable_disk_rows_never_crash_a_sweep(self, tmp_path):
        import sqlite3

        partitions = sample_partitions(GRAPH, line(3), 3)
        reference = sweep_runs(line(3), TC, partitions, (0, 1))
        disk = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=1, disk_path=str(disk))
        try:
            sweep_runs(line(3), TC, partitions, (0, 1), run_cache=cache)
            assert cache.stats()["disk_entries"] > 0
            conn = sqlite3.connect(str(disk))
            conn.execute("UPDATE entries SET v = ?", (b"\x80\x05garbage",))
            conn.commit()
            conn.close()
            with pytest.warns(RuntimeWarning, match="undecodable"):
                got = sweep_runs(
                    line(3), TC, partitions, (0, 1), run_cache=cache
                )
            assert got == reference
        finally:
            cache.close()

    def test_mid_session_disk_failure_disables_the_tier(self, tmp_path):
        disk = tmp_path / "tier.sqlite"
        cache = RunCache(max_entries=1, disk_path=str(disk))
        try:
            for i in range(3):
                cache.record(("k", i), f"v{i}")
            assert cache.stats()["disk_entries"] > 0
            # Scribble over the database out from under the live
            # connection: the next disk read hits malformed pages.
            disk.write_bytes(b"\xde\xad\xbe\xef" * 4096)
            with pytest.warns(RuntimeWarning, match="disabling the tier"):
                assert cache.get(("k", 0)) is None  # demoted + lost
            # memory stays authoritative; the cache keeps working
            cache.record(("k", 9), "v9")
            assert cache.get(("k", 9)) == "v9"
            assert cache.stats()["disk_entries"] == 0
        finally:
            cache.close()
