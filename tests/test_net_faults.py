"""The deterministic fault plane (loss, duplication, delay, crash,
partition) and its composition with every scheduler.

Four suites pin the fault-plane guarantees:

* **plan hygiene** — :class:`~repro.net.faults.FaultPlan` validates its
  rates and bounds, canonicalizes link overrides, pickles, and renders
  a canonical cache token;
* **determinism** — any ``(plan, seed, scheduler)`` triple replays
  bit-identically (signature, output *and* fault counters), across
  repeated runs and across sweep worker counts (Hypothesis-driven);
* **CALM under faults** — duplication+delay-only plans preserve the
  consistency/NTI/CALM verdicts of CALM-positive workloads, and
  loss survives on transducers that retransmit on every heartbeat
  (the paper's monotone flooders);
* **isolation** — fault parameters are folded into every cache key, so
  faulty and clean runs never alias, in memory or on disk.
"""

import pickle

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
    FaultPlan,
    FaultyScheduler,
    SweepEngine,
    check_consistency,
    computed_output,
    line,
    ring,
    round_robin,
    run_fair,
    run_fifo_rounds,
    run_round_robin_batch,
    run_witness_guided,
    star,
    sweep_runs,
)
from repro.net.run import RunStats
from repro.net.runcache import RunCache, _disk_key_text, run_key

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()
RELAY = relay_identity_transducer()

#: Faulty-run wrappers that compose with an arbitrary FaultPlan, under
#: one ``(net, td, p, seed, **kw)`` shape — the deterministic
#: schedulers take no seed of their own, their fault draws still vary
#: with the *plan* seed.  (Heartbeat-only schedules deliver nothing,
#: so message faults are vacuous there — exercised via the noop test.)
RUNNERS = {
    "fair-random": lambda net, td, p, seed, **kw: run_fair(
        net, td, p, seed=seed, **kw
    ),
    "fifo-rounds": lambda net, td, p, seed, **kw: run_fifo_rounds(
        net, td, p, **kw
    ),
    "witness-guided": lambda net, td, p, seed, **kw: run_witness_guided(
        net, td, p, **kw
    ),
    "round-robin-batch": lambda net, td, p, seed, **kw: run_round_robin_batch(
        net, td, p, **kw
    ),
}

MIXED = FaultPlan(
    seed=11, loss=0.15, duplication=0.2, delay=0.25, crash=0.02,
    partition_rate=0.02,
)


def _signature(result):
    return (
        result.stats.steps,
        result.stats.heartbeats,
        result.stats.deliveries,
        result.stats.facts_sent,
        result.quiescence_step,
        result.output,
        result.converged,
        tuple(sorted(result.stats.fault_counts().items())),
    )


class TestFaultPlan:
    @pytest.mark.parametrize(
        "bad",
        [
            {"loss": -0.1},
            {"loss": 1.5},
            {"duplication": 2},
            {"delay": -1},
            {"crash": "high"},
            {"partition_rate": 1.01},
            {"max_delay": 0},
            {"restart_after": 0},
            {"heal_after": -3},
            {"max_crashes": -1},
            {"max_partitions": -2},
            {"link_loss": [("a", "b", 7.0)]},
        ],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            FaultPlan(**bad)

    def test_link_loss_canonicalized(self):
        a = FaultPlan(link_loss=[("n2", "n1", 0.5), ("n1", "n3", 0.1)])
        b = FaultPlan(link_loss={("n1", "n2"): 0.5, ("n3", "n1"): 0.1})
        assert a == b
        assert a.link_loss == (("n1", "n2", 0.5), ("n1", "n3", 0.1))
        assert a.loss_for("n2", "n1") == 0.5
        assert a.loss_for("n1", "n9") == a.loss == 0.0

    def test_is_noop(self):
        assert FaultPlan().is_noop()
        assert FaultPlan(seed=99, max_delay=7).is_noop()
        assert not FaultPlan(loss=0.01).is_noop()
        assert not FaultPlan(link_loss=[("a", "b", 0.2)]).is_noop()

    def test_token_is_canonical_and_injective_per_field(self):
        base = FaultPlan(seed=3, loss=0.1)
        assert base.token() == FaultPlan(seed=3, loss=0.1).token()
        tweaked = [
            FaultPlan(seed=4, loss=0.1),
            FaultPlan(seed=3, loss=0.2),
            FaultPlan(seed=3, loss=0.1, duplication=0.1),
            FaultPlan(seed=3, loss=0.1, retain_state=False),
            FaultPlan(seed=3, loss=0.1, max_crashes=None),
        ]
        tokens = {p.token() for p in tweaked} | {base.token()}
        assert len(tokens) == len(tweaked) + 1
        assert base.token().startswith("fault-plan(")

    def test_pickle_roundtrip(self):
        plan = FaultPlan(seed=5, loss=0.3, link_loss=[("a", "b", 0.9)],
                         crash=0.1, max_crashes=None)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and hash(clone) == hash(plan)
        assert clone.token() == plan.token()

    def test_double_wrapping_rejected(self):
        from repro.net import FairRandomScheduler

        wrapped = FaultyScheduler(FairRandomScheduler(seed=0), MIXED)
        assert wrapped.name == "faulty(fair-random)"
        with pytest.raises(ValueError):
            FaultyScheduler(wrapped, MIXED)


class TestNoopTransparency:
    """A zero-rate plan must not perturb the schedule at all — the
    property the ≤15 % overhead budget of BENCH_faults rests on."""

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_zero_rate_plan_replays_clean_run(self, name):
        net = ring(3)
        p = round_robin(GRAPH, net)
        clean = RUNNERS[name](net, TC, p, seed=1)
        noop = RUNNERS[name](net, TC, p, seed=1, faults=FaultPlan(seed=42))
        assert _signature(noop) == _signature(clean)

    def test_heartbeat_only_accepts_a_plan(self):
        from repro.net import full_replication, run_heartbeat_only

        p = full_replication(GRAPH, line(3))
        clean = run_heartbeat_only(line(3), TC, p)
        noop = run_heartbeat_only(line(3), TC, p, faults=FaultPlan(seed=1))
        assert noop.output == clean.output
        assert noop.stats.fault_counts() == clean.stats.fault_counts()


class TestDeterministicFaultReplay:
    @pytest.mark.parametrize("name", sorted(RUNNERS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_triple_is_bit_identical(self, name, seed):
        net = line(3)
        p = round_robin(GRAPH, net)
        a = RUNNERS[name](net, TC, p, seed=seed, faults=MIXED, keep_trace=True)
        b = RUNNERS[name](net, TC, p, seed=seed, faults=MIXED, keep_trace=True)
        assert _signature(a) == _signature(b)
        assert [type(t).__name__ for t in a.trace] == [
            type(t).__name__ for t in b.trace
        ]

    def test_counters_populate_under_a_heavy_plan(self):
        plan = FaultPlan(seed=2, loss=0.4, duplication=0.4, delay=0.5,
                         crash=0.05, partition_rate=0.05)
        result = run_fair(ring(4), TC, round_robin(GRAPH, ring(4)),
                          seed=3, faults=plan)
        counts = result.stats.fault_counts()
        assert counts["messages_dropped"] > 0
        assert counts["messages_duplicated"] > 0
        assert counts["messages_delayed"] > 0
        assert result.converged

    @given(
        plan_seed=st.integers(0, 10_000),
        run_seed=st.integers(0, 10_000),
        loss=st.sampled_from([0.0, 0.1, 0.3]),
        duplication=st.sampled_from([0.0, 0.2]),
        delay=st.sampled_from([0.0, 0.3]),
        crash=st.sampled_from([0.0, 0.03]),
        name=st.sampled_from(sorted(RUNNERS)),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_triples_replay(
        self, plan_seed, run_seed, loss, duplication, delay, crash, name
    ):
        plan = FaultPlan(seed=plan_seed, loss=loss, duplication=duplication,
                         delay=delay, crash=crash)
        net = line(3)
        p = round_robin(GRAPH, net)
        a = RUNNERS[name](net, TC, p, seed=run_seed, faults=plan)
        b = RUNNERS[name](net, TC, p, seed=run_seed, faults=plan)
        assert _signature(a) == _signature(b)

    @given(seeds=st.sets(st.integers(0, 50), min_size=2, max_size=3))
    @settings(max_examples=6, deadline=None)
    def test_faulty_sweep_identical_across_worker_counts(self, seeds):
        seeds = tuple(sorted(seeds))
        net = line(3)
        parts = [round_robin(GRAPH, net)]
        serial = sweep_runs(
            net, TC, parts, seeds, faults=MIXED, engine=SweepEngine(workers=1)
        )
        forked = sweep_runs(
            net, TC, parts, seeds, faults=MIXED, engine=SweepEngine(workers=2)
        )
        assert [_signature(o.result) for o in serial] == [
            _signature(o.result) for o in forked
        ]


class TestCalmUnderFaults:
    """Satellite: CALM-positive workloads tolerate the fault plane.

    Duplication and delay never destroy information, so a monotone,
    inflationary, oblivious transducer must still converge to the same
    output on every fair faulty run.  Loss *is* destructive in
    general, but these transducers retransmit their whole state on
    every heartbeat, so any lost copy is eventually resent — fair
    scheduling plus retransmission restores eventual delivery.
    """

    DUP_DELAY = [
        FaultPlan(seed=1, duplication=0.3, delay=0.3),
        FaultPlan(seed=8, duplication=0.5, delay=0.1, max_delay=6),
    ]
    LOSSY = [
        FaultPlan(seed=2, loss=0.3),
        FaultPlan(seed=5, loss=0.2, duplication=0.2, delay=0.2),
        FaultPlan(seed=9, link_loss=[("n1", "n2", 0.6)]),
    ]

    @pytest.mark.parametrize("plan", DUP_DELAY + LOSSY,
                             ids=lambda p: f"plan{p.seed}")
    @pytest.mark.parametrize("workload", ["tc", "relay"])
    def test_consistent_and_same_output_as_clean(self, plan, workload):
        td, inst = (TC, GRAPH) if workload == "tc" else (RELAY, ELEMENTS)
        net = ring(3)
        clean = check_consistency(net, td, inst, partition_count=2,
                                  seeds=(0, 1))
        faulty = check_consistency(net, td, inst, partition_count=2,
                                   seeds=(0, 1), faults=plan)
        assert faulty.consistent
        assert set(faulty.outputs) == set(clean.outputs)
        assert faulty.unconverged == 0

    def test_calm_verdict_survives_dup_delay(self):
        verdict = calm_verdict(TC, GRAPH, monotonicity_trials=4,
                               faults=self.DUP_DELAY[0])
        assert verdict.topology_independent
        assert verdict.consistent_with_calm()

    def test_loss_with_retransmit_converges_under_crashes_too(self):
        plan = FaultPlan(seed=4, loss=0.25, crash=0.05, partition_rate=0.05)
        expected = computed_output(star(4), TC, GRAPH)
        result = run_fair(star(4), TC, round_robin(GRAPH, star(4)),
                          seed=6, faults=plan)
        assert result.converged
        assert result.output == expected


class TestFaultCacheIsolation:
    def test_clean_and_faulty_cells_never_alias(self):
        cache = RunCache()
        net = line(3)
        p = round_robin(GRAPH, net)
        clean = sweep_runs(net, TC, [p], (0,), run_cache=cache)
        faulty = sweep_runs(net, TC, [p], (0,), run_cache=cache, faults=MIXED)
        assert cache.cache_misses == 2  # distinct cells, no alias
        again = sweep_runs(net, TC, [p], (0,), run_cache=cache, faults=MIXED)
        assert cache.cache_hits == 1
        assert _signature(again[0].result) == _signature(faulty[0].result)
        assert _signature(clean[0].result) != _signature(faulty[0].result) or (
            clean[0].result.output == faulty[0].result.output
        )

    def test_plan_has_a_disk_key_rendering(self):
        key = run_key("fair-random", line(2), "abc", "hp:000", 0,
                      {"max_steps": 10, "faults": MIXED})
        text = _disk_key_text(key)
        assert text is not None and MIXED.token() in text
        other = run_key("fair-random", line(2), "abc", "hp:000", 0,
                        {"max_steps": 10})
        assert _disk_key_text(other) != text

    def test_report_aggregates_fault_counters(self):
        report = check_consistency(line(3), TC, GRAPH, partition_count=2,
                                   seeds=(0, 1), faults=MIXED)
        totals = report.fault_counts()
        per_run = [o.result.stats.fault_counts() for o in report.observations]
        for name in totals:
            assert totals[name] == sum(c[name] for c in per_run)
        assert totals["messages_dropped"] > 0

    def test_clean_report_fault_counters_are_zero(self):
        report = check_consistency(line(3), TC, GRAPH, partition_count=2,
                                   seeds=(0, 1))
        zero = {name: 0 for name in RunStats().fault_counts()}
        assert report.observations
        assert report.fault_counts() == zero


class TestDedalusFaults:
    def _setup(self):
        from repro.dedalus.parser import parse_dedalus_rules
        from repro.dedalus.program import DedalusProgram
        from repro.db.schema import DatabaseSchema

        rules = parse_dedalus_rules(
            """
            T(x, y) :- E(x, y).
            T(x, z) :- E(x, y), T(y, z).
            """
        )
        prog = DedalusProgram(rules, DatabaseSchema({"E": 2}))
        inst = Instance(
            DatabaseSchema({"E": 2}),
            [Fact("E", (1, 2)), Fact("E", (2, 3)), Fact("E", (3, 4))],
        )
        net = line(2)
        part = round_robin(inst, net)
        return prog, net, part

    def test_dup_delay_preserves_stabilized_views(self):
        from repro.dedalus.distributed import node_view, run_distributed

        prog, net, part = self._setup()
        plan = FaultPlan(seed=5, duplication=0.4, delay=0.4)
        clean = run_distributed(prog, net, part, seed=0)
        faulty = run_distributed(prog, net, part, seed=0, faults=plan)
        replay = run_distributed(prog, net, part, seed=0, faults=plan)
        assert faulty.stable
        for node in net.sorted_nodes():
            assert node_view(faulty.final(), "T", node) == node_view(
                clean.final(), "T", node
            )
            assert node_view(replay.final(), "T", node) == node_view(
                faulty.final(), "T", node
            )

    def test_faulty_trace_gets_its_own_cache_cell(self):
        from repro.dedalus.distributed import run_distributed

        prog, net, part = self._setup()
        plan = FaultPlan(seed=5, duplication=0.4, delay=0.4)
        cache = RunCache()
        run_distributed(prog, net, part, seed=0, run_cache=cache)
        run_distributed(prog, net, part, seed=0, faults=plan, run_cache=cache)
        assert cache.cache_misses == 2
        run_distributed(prog, net, part, seed=0, faults=plan, run_cache=cache)
        assert cache.cache_hits == 1
