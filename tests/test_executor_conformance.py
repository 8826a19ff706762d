"""Differential conformance of the unified sweep engine.

The engine's contract mirrors how the Canonical Amoebot Model
justifies concurrent executions by reduction to a sequential
reference: every backend must be *bit-identical* to the serial
baseline, and that is enforced here with tests rather than prose.
The same randomized sweep grids are pushed through every

    (lifetime × workers × warm/cold cache × tier configuration)

configuration and compared observation for observation — and, for
:func:`~repro.net.check_consistency`, report field for report field —
against the serial unbounded reference, including mid-sweep eviction
churn (a bounded cache small enough that recording evicts earlier
cells of the *same* grid).  Tier configurations cover the whole
storage hierarchy: unbounded, entry-bounded, byte-bounded, and
entry-bounded with a sqlite disk tier below (eviction demotes,
memory misses promote).  Every configuration must also leave the
serial sweep's cache state: the parent sweep is the cache's only
writer, so counters and LRU order cannot depend on the engine.

Also pinned here, per the executor-fusion acceptance criteria:

* the three hand-rolled cached/pending splice loops are gone — every
  sweep routes through the one shared
  :class:`~repro.net.executor.CacheSplice` helper;
* ``engine=`` is the only execution parameter of every sweep entry
  point, and the old executor names are gone;
* early-exiting a partially consumed probe search (witness found with
  candidates still unprobed) still drains and joins the worker pool —
  the leak-detection tests count live children before and after.
"""

import inspect
import multiprocessing
import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import calm_verdict
from repro.core import (
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import Fact, Instance, schema
from repro.net import (
    LIFETIMES,
    FaultPlan,
    RunCache,
    SweepEngine,
    check_consistency,
    check_coordination_free_on,
    computed_output,
    line,
    ring,
    sample_partitions,
    sweep_runs,
)

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()
RELAY = relay_identity_transducer()

# The execution matrix: every lifetime, workers ∈ {1, 2}.  An explicit
# fork lifetime requires workers > 1 by design (the strictness is
# pinned below), so its workers=1 point is covered by the auto path,
# which resolves workers=1 to serial.
ENGINE_CONFIGS = [
    ("auto-w1", lambda: {"engine": SweepEngine(workers=1)}),
    ("auto-w2", lambda: {"engine": SweepEngine(workers=2)}),
    ("serial-w2", lambda: {"engine": SweepEngine(workers=2, lifetime="serial")}),
    ("fork-w2", lambda: {"engine": SweepEngine(workers=2, lifetime="fork")}),
]

# Cache modes: no cache, then cold/warm × every tier configuration.
# The entry bound (3) and the byte budget (~2 RunResults) are both
# deliberately smaller than the 6-cell grid, so recording a sweep
# evicts earlier cells of the same sweep — the mid-churn case; the
# disk modes put a sqlite tier below the entry bound, so those same
# evictions demote instead of discarding.
CACHE_MODES = (
    "none",
    "cold",
    "warm",
    "cold-bounded",
    "warm-bounded",
    "cold-bytes",
    "warm-bytes",
    "cold-disk",
    "warm-disk",
)
BOUND = 3
BOUND_BYTES = 4096


def _make_cache(mode, network, partitions, seeds, disk_dir=None):
    """A cache in the requested state (warm = pre-recorded serially)."""
    if mode == "none":
        return None
    kwargs = {}
    if mode.endswith("bounded"):
        kwargs["max_entries"] = BOUND
    elif mode.endswith("bytes"):
        kwargs["max_bytes"] = BOUND_BYTES
    elif mode.endswith("disk"):
        kwargs["max_entries"] = BOUND
        kwargs["disk_path"] = os.path.join(disk_dir, f"tier-{mode}.sqlite")
    cache = RunCache(**kwargs)
    if mode.startswith("warm"):
        sweep_runs(network, TC, partitions, seeds, run_cache=cache)
    return cache


def _run_config(make_engine_kwargs, **sweep_kwargs):
    """Run a sweep under one engine configuration."""
    return sweep_runs(**sweep_kwargs, **make_engine_kwargs())


class TestFullMatrix:
    """Every configuration against the serial unbounded reference."""

    @pytest.fixture(scope="class")
    def grid(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = sweep_runs(line(3), TC, partitions, seeds)
        return partitions, seeds, reference

    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    def test_sweep_matches_serial_reference(
        self, grid, label, make_engine, cache_mode, tmp_path
    ):
        partitions, seeds, reference = grid
        cache = _make_cache(
            cache_mode, line(3), partitions, seeds, disk_dir=str(tmp_path)
        )
        misses_after_warm = cache.cache_misses if cache is not None else 0
        try:
            got = _run_config(
                make_engine,
                network=line(3),
                transducer=TC,
                partitions=partitions,
                seeds=seeds,
                run_cache=cache,
            )
            assert got == reference  # observation for observation
            if cache is not None:
                # every task resolved through the cache exactly once
                # (duplicate cells resolve as dedup, not hits/misses)
                assert (
                    cache.cache_hits + cache.cache_misses + cache.cache_dedup
                    >= len(reference)
                )
                if cache.max_entries is not None:
                    assert len(cache) <= cache.max_entries
                    assert cache.evictions > 0  # the bound really churned
                if cache.max_bytes is not None:
                    assert cache.bytes <= cache.max_bytes
                    assert cache.evictions > 0  # the budget really churned
                if cache_mode.endswith("disk"):
                    stats = cache.stats()
                    assert stats["demotions"] > 0  # evictions spilled down
                    assert stats["disk_entries"] > 0
                    if cache_mode == "warm-disk":
                        # nothing was ever discarded: every warm cell is
                        # in memory or on disk, so the sweep never misses
                        assert cache.cache_misses == misses_after_warm
                        assert stats["promotions"] > 0
                # The parent is the cache's only writer: any engine
                # leaves exactly the serial sweep's cache state.
                serial_dir = tmp_path / "serial"
                serial_dir.mkdir()
                serial = _make_cache(
                    cache_mode, line(3), partitions, seeds,
                    disk_dir=str(serial_dir),
                )
                try:
                    sweep_runs(
                        line(3), TC, partitions, seeds, run_cache=serial
                    )
                    # Every stats() field, bytes included: a weight is
                    # a pickled size, and fork workers inherit the
                    # parent's objects, so equal results weigh alike.
                    assert cache.stats() == serial.stats()
                    assert list(cache.entries) == list(serial.entries)
                finally:
                    serial.close()
        finally:
            if cache is not None:
                cache.close()

    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    def test_report_fields_match_serial_reference(
        self, label, make_engine, cache_mode, tmp_path
    ):
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds
        )
        cache = _make_cache(
            cache_mode, line(3), partitions, seeds, disk_dir=str(tmp_path)
        )
        try:
            got = check_consistency(
                line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                run_cache=cache, **make_engine(),
            )
        finally:
            if cache is not None:
                cache.close()
        # Report field for report field: the semantic evidence is
        # identical; only the cache effectiveness counters may vary by
        # configuration, and they must account for every grid cell.
        assert got.consistent == reference.consistent
        assert got.outputs == reference.outputs
        assert got.observations == reference.observations
        assert got.unconverged == reference.unconverged
        cells = len(reference.observations)
        if cache is None:
            assert (got.cache_hits, got.cache_misses) == (0, 0)
            assert got.cache_dedup == 0
        else:
            # hits + misses + dedup covers the grid exactly: dedup
            # cells resolve in-grid without consulting the store.
            assert got.cache_hits + got.cache_misses + got.cache_dedup == cells
            if cache_mode in ("warm", "warm-disk"):
                # unbounded warm and warm-with-disk-tier never discard,
                # so the sweep re-executes nothing
                assert got.cache_misses == 0
                assert got.cache_hits + got.cache_dedup == cells
            elif cache_mode == "cold":
                assert got.cache_hits == 0
                assert got.cache_misses + got.cache_dedup == cells

    def test_evicted_cells_recompute_identically(self):
        # Mid-sweep eviction churn, iterated: sweeping the same grid
        # repeatedly through a bounded cache keeps evicting and
        # recomputing cells, and every pass must equal the unbounded
        # reference bit for bit.
        partitions = sample_partitions(GRAPH, ring(3), 3)
        seeds = (0, 1)
        reference = sweep_runs(ring(3), TC, partitions, seeds)
        cache = RunCache(max_entries=2)
        for _ in range(3):
            got = sweep_runs(
                ring(3), TC, partitions, seeds, run_cache=cache,
                engine=SweepEngine(workers=2),
            )
            assert got == reference
            assert len(cache) <= 2
        assert cache.evictions > 0


class TestFaultColumn:
    """The fault column of the matrix: a seeded
    :class:`~repro.net.FaultPlan` threaded through ``sweep_runs`` must
    be bit-identical across every engine configuration — injected
    faults are part of the schedule, not of the executor — and faulty
    cells must never alias clean ones in a shared cache.
    """

    PLAN = FaultPlan(seed=7, loss=0.1, duplication=0.15, delay=0.2)

    @pytest.fixture(scope="class")
    def faulty_grid(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = sweep_runs(
            line(3), TC, partitions, seeds, faults=self.PLAN
        )
        return partitions, seeds, reference

    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    @pytest.mark.parametrize("cache_mode", ("none", "cold", "warm-disk"))
    def test_faulty_sweep_matches_serial_reference(
        self, faulty_grid, label, make_engine, cache_mode, tmp_path
    ):
        partitions, seeds, reference = faulty_grid
        cache = None
        if cache_mode != "none":
            kwargs = {}
            if cache_mode == "warm-disk":
                kwargs["max_entries"] = BOUND
                kwargs["disk_path"] = os.path.join(str(tmp_path), "tier.sqlite")
            cache = RunCache(**kwargs)
            if cache_mode.startswith("warm"):
                sweep_runs(line(3), TC, partitions, seeds,
                           run_cache=cache, faults=self.PLAN)
        try:
            got = _run_config(
                make_engine,
                network=line(3),
                transducer=TC,
                partitions=partitions,
                seeds=seeds,
                run_cache=cache,
                faults=self.PLAN,
            )
            assert got == reference  # observation for observation
            # the plan really disturbed the schedules
            assert any(
                obs.result.stats.messages_dropped
                + obs.result.stats.messages_duplicated
                + obs.result.stats.messages_delayed
                > 0
                for obs in got
            )
        finally:
            if cache is not None:
                cache.close()

    def test_faulty_and_clean_sweeps_share_a_cache_without_aliasing(self):
        partitions = sample_partitions(GRAPH, line(3), 2)
        seeds = (0,)
        cells = len(partitions) * len(seeds)
        cache = RunCache()
        clean = sweep_runs(line(3), TC, partitions, seeds, run_cache=cache)
        faulty = sweep_runs(
            line(3), TC, partitions, seeds, run_cache=cache, faults=self.PLAN
        )
        # every faulty cell missed: no clean cell was ever served for it
        assert cache.cache_misses == 2 * cells
        assert clean != faulty
        # reruns of either flavor now hit their own cells
        assert sweep_runs(
            line(3), TC, partitions, seeds, run_cache=cache
        ) == clean
        assert sweep_runs(
            line(3), TC, partitions, seeds, run_cache=cache, faults=self.PLAN
        ) == faulty
        assert cache.cache_misses == 2 * cells

    def test_faulty_report_matches_serial_reference(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=(0, 1),
            faults=self.PLAN,
        )
        got = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=(0, 1),
            faults=self.PLAN, engine=SweepEngine(workers=2),
        )
        assert got.consistent == reference.consistent
        assert got.outputs == reference.outputs
        assert got.observations == reference.observations
        assert got.fault_counts() == reference.fault_counts()
        assert sum(reference.fault_counts().values()) > 0


values = st.integers(min_value=0, max_value=3)


@st.composite
def sweep_cases(draw):
    pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    network = draw(st.sampled_from([line(2), line(3), ring(3)]))
    seed = draw(st.integers(0, 50))
    return Instance(S2, [Fact("S", p) for p in pairs]), network, seed


class TestRandomizedGrids:
    @settings(max_examples=6, deadline=None)
    @given(
        sweep_cases(),
        st.sampled_from(ENGINE_CONFIGS),
        st.sampled_from(CACHE_MODES),
    )
    def test_random_grid_matches_serial_reference(self, case, config, cache_mode):
        inst, network, seed = case
        _, make_engine = config
        partitions = sample_partitions(inst, network, 3)
        seeds = (seed, seed + 1)
        reference = sweep_runs(network, TC, partitions, seeds)
        # tempfile (not tmp_path) for the disk modes: Hypothesis reuses
        # the function-scoped fixture across examples, a fresh tier per
        # example is what the matrix promises.
        with tempfile.TemporaryDirectory() as disk_dir:
            cache = _make_cache(
                cache_mode, network, partitions, seeds, disk_dir=disk_dir
            )
            try:
                got = _run_config(
                    make_engine,
                    network=network,
                    transducer=TC,
                    partitions=partitions,
                    seeds=seeds,
                    run_cache=cache,
                )
            finally:
                if cache is not None:
                    cache.close()
        assert got == reference


class TestForkLifetime:
    def test_one_engine_serves_consecutive_sweeps_and_harnesses(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        serial_a = sweep_runs(line(3), TC, partitions, (0, 1))
        serial_b = sweep_runs(line(3), TC, partitions, (2, 3))
        plain_verdict = calm_verdict(transitive_closure_transducer(), GRAPH)
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork")
        pooled_a = sweep_runs(line(3), TC, partitions, (0, 1), engine=engine)
        pooled_b = sweep_runs(line(3), TC, partitions, (2, 3), engine=engine)
        verdict = calm_verdict(
            transitive_closure_transducer(), GRAPH,
            run_cache=RunCache(max_entries=8), engine=engine,
        )
        assert _live_children() <= before  # each sweep reaped its pool
        assert pooled_a == serial_a
        assert pooled_b == serial_b
        assert verdict == plain_verdict

    def test_smoke_fork_bounded(self):
        # The CI conformance smoke configuration: one 2-worker fork
        # engine over two sweeps, bounded cache max_entries=8, checked
        # against the serial unbounded reference.
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds
        )
        cache = RunCache(max_entries=8)
        engine = SweepEngine(workers=2, lifetime="fork")
        first = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
            run_cache=cache, engine=engine,
        )
        second = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
            run_cache=cache, engine=engine,
        )
        for got in (first, second):
            assert got.consistent == reference.consistent
            assert got.observations == reference.observations
        # warm pass: every cell resolves from the cache or as an
        # in-grid duplicate — nothing re-executes
        cells = len(reference.observations)
        assert second.cache_hits + second.cache_dedup == cells
        assert second.cache_misses == 0
        assert len(cache) <= 8

    def test_smoke_fork_shared_tier(self, tmp_path):
        # The second CI conformance smoke configuration: the full
        # hierarchy under one 2-worker fork engine — byte-bounded
        # memory with a sqlite disk tier below — checked against the
        # serial unbounded reference across two sweeps.
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds
        )
        cells = len(reference.observations)
        cache = RunCache(
            max_bytes=BOUND_BYTES, disk_path=tmp_path / "tier.sqlite"
        )
        engine = SweepEngine(workers=2, lifetime="fork")
        try:
            first = check_consistency(
                line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                run_cache=cache, engine=engine,
            )
            second = check_consistency(
                line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                run_cache=cache, engine=engine,
            )
            for got in (first, second):
                assert got.consistent == reference.consistent
                assert got.observations == reference.observations
            # cold pass executes everything; warm pass resolves every
            # cell from memory, disk (promote), or in-grid dedup
            assert first.cache_hits == 0
            assert first.cache_misses + first.cache_dedup == cells
            assert second.cache_misses == 0
            assert second.cache_hits + second.cache_dedup == cells
            stats = cache.stats()
            assert cache.bytes <= BOUND_BYTES
            assert stats["demotions"] > 0 and stats["disk_entries"] > 0
            assert stats["promotions"] > 0  # warm pass pulled from disk
        finally:
            cache.close()


class TestDedalusConformance:
    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    def test_sweep_distributed_matches_serial(self, label, make_engine):
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
        reference = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300
        )
        got = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300,
            run_cache=RunCache(max_entries=BOUND), **make_engine(),
        )
        for a, b in zip(reference, got):
            assert a.stabilized_at == b.stabilized_at
            assert a.final() == b.final()


# ---------------------------------------------------------------------------
# Shutdown on early exit: no leaked worker processes
# ---------------------------------------------------------------------------


def _live_children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


class TestNoWorkerLeaks:
    def test_early_exit_probe_search_reaps_workers(self):
        # 27 candidate partitions, witness found early: the splice
        # generator is abandoned mid-enumeration, and the session's
        # pool must still be close()d and join()ed deterministically.
        expected = computed_output(line(2), TC, GRAPH)
        before = _live_children()
        report = check_coordination_free_on(
            line(2), TC, GRAPH, expected,
            engine=SweepEngine(workers=2, lifetime="fork"),
        )
        assert report.coordination_free
        assert report.exhaustive and report.partitions_tried < 27  # early exit
        assert _live_children() <= before  # every forked worker reaped

    def test_consecutive_early_exit_searches_on_one_engine(self):
        expected = computed_output(line(2), TC, GRAPH)
        serial = check_coordination_free_on(line(2), TC, GRAPH, expected)
        before = _live_children()
        engine = SweepEngine(workers=2, lifetime="fork")
        first = check_coordination_free_on(
            line(2), TC, GRAPH, expected, engine=engine
        )
        assert _live_children() <= before  # the first search reaped
        # An early exit leaves the engine usable: a second search forks
        # its own session pool and reaps it too.
        second = check_coordination_free_on(
            line(2), TC, GRAPH, expected, engine=engine
        )
        assert _live_children() <= before
        for report in (first, second):
            assert report.coordination_free == serial.coordination_free
            assert report.partitions_tried == serial.partitions_tried
            assert report.witness == serial.witness

    def test_parallel_sweeps_leave_no_children(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        before = _live_children()
        sweep_runs(
            line(3), TC, partitions, (0, 1), engine=SweepEngine(workers=2)
        )
        assert _live_children() <= before


# ---------------------------------------------------------------------------
# Structural criteria: one splice helper, one execution parameter
# ---------------------------------------------------------------------------


class TestFusionStructure:
    def test_engine_is_the_only_execution_parameter(self):
        import repro.net
        from repro.dedalus.distributed import run_distributed, sweep_distributed
        from repro.net import (
            check_topology_independence,
            observe_runs,
        )

        entry_points = (
            sweep_runs,
            observe_runs,
            check_consistency,
            check_topology_independence,
            check_coordination_free_on,
            calm_verdict,
            run_distributed,
            sweep_distributed,
        )
        for fn in entry_points:
            params = inspect.signature(fn).parameters
            assert "engine" in params, fn.__name__
            for knob in ("workers", "backend", "pool"):
                assert knob not in params, (fn.__name__, knob)
        # The old executor, pool and session classes, the backend-name
        # table and its translator, and the knob resolver are all gone.
        exported = set(dir(repro.net)) | set(repro.net.__all__)
        assert {n for n in exported if n.startswith("Sweep")} == {"SweepEngine"}
        assert not {n for n in exported if "backend" in n.lower()}
        assert "resolve_engine" not in exported
        with pytest.raises(ImportError):
            import repro.net.sweep  # noqa: F401

    def test_one_way_to_configure_a_run(self):
        # Convergence is always tracked incrementally, and the query
        # engine is chosen per call (engine=) or per process
        # (REPRO_ENGINE): no knob or override scope is left for either.
        import repro.lang
        from repro.analysis import ComputedQuery
        from repro.core import Transducer
        from repro.dedalus.distributed import run_distributed, sweep_distributed
        from repro.net import (
            observe_runs,
            resolve_run_cache,
            run_fair,
            run_fifo_rounds,
            run_round_robin_batch,
            run_schedule,
        )

        for fn in (
            run_schedule, run_fair, run_fifo_rounds, run_round_robin_batch,
            sweep_runs, observe_runs, check_consistency, computed_output,
            ComputedQuery,
        ):
            assert "convergence" not in inspect.signature(fn).parameters, fn
        for fn in (run_distributed, sweep_distributed):
            assert "lang_engine" not in inspect.signature(fn).parameters, fn
        assert "engine" not in inspect.signature(Transducer).parameters
        assert not hasattr(Transducer(TC.schema), "engine")
        exported = set(dir(repro.lang)) | set(repro.lang.__all__)
        assert not {"engine_override", "set_default_engine"} & exported
        with pytest.raises(TypeError):
            resolve_run_cache(False)

    def test_single_shared_splice_helper(self):
        # The three hand-rolled cached/pending merge loops are gone:
        # every cached sweep routes through executor.CacheSplice.
        from repro.dedalus import distributed
        from repro.net import coordination, executor

        assert "CacheSplice" in inspect.getsource(executor.sweep_runs)
        for module in (coordination, distributed):
            source = inspect.getsource(module)
            assert "CacheSplice" in source
            assert "first_for_key" not in source  # the old inline dedup

    def test_all_lifetimes_exported(self):
        assert LIFETIMES == ("serial", "fork")
        with pytest.raises(ValueError, match="persistent"):
            SweepEngine(workers=2, lifetime="persistent")

    def test_engine_owns_no_pool(self):
        # Worker pools live and die with their sessions: an engine has
        # nothing to close, and only a session reaches the supervisor.
        from repro.net import executor

        engine = SweepEngine(workers=2)
        for name in ("close", "terminate", "__enter__", "__exit__",
                     "maps_served", "_pool"):
            assert not hasattr(engine, name), name
        source = inspect.getsource(executor)
        assert source.count("_supervised_map(") == 2  # definition + one call
        assert "_supervised_map(" in inspect.getsource(
            executor.EngineSession.map
        )
