"""The parallel sweep executor, warm transducers, and witness guidance.

Three property suites pin the executor's guarantees:

* **determinism** — the parallel sweep returns an observation list
  identical, observation for observation, to the serial sweep for
  workers ∈ {1, 2, 4} (same seeds, same runs, just concurrent);
* **warm == fresh** — a tracker on a transducer whose summary memo
  earlier runs warmed produces verdicts equal to a tracker on a fresh
  copy at every checkpoint of a random schedule prefix (certificates
  are pure functions of the transducer), and sweeps on a warm
  transducer, serial or forked, observe what a fresh one does;
* **witness guidance soundness** — witness-guided runs reach the same
  fixpoint output as fair runs on batchable transducers (it is just
  another fair schedule).
"""

import inspect
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import ComputedQuery, calm_verdict
from repro.core import (
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import Fact, Instance, schema
from repro.net import (
    ConvergenceTracker,
    SweepEngine,
    check_consistency,
    check_coordination_free_on,
    check_topology_independence,
    computed_output,
    deliver,
    heartbeat,
    initial_configuration,
    line,
    observe_runs,
    random_partition,
    ring,
    run_fair,
    run_fifo_rounds,
    run_round_robin_batch,
    run_schedule,
    run_witness_guided,
    sample_partitions,
    star,
    sweep_runs,
)

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()
RELAY = relay_identity_transducer()

_NETWORKS = [line(2), line(3), ring(3), star(4)]


# ---------------------------------------------------------------------------
# Executor mechanics
# ---------------------------------------------------------------------------


def _double(context, item):
    return (context, item * 2)


class TestSweepEngine:
    def test_lifetime_resolution(self):
        assert SweepEngine(workers=1).lifetime == "serial"
        assert SweepEngine(workers=4, lifetime="serial").lifetime == "serial"
        # the *default* path quietly resolves workers=1 to serial ...
        assert SweepEngine(workers=1, lifetime=None).lifetime == "serial"
        assert not SweepEngine(workers=1).parallel

    def test_explicit_lifetime_with_one_worker_rejected(self):
        # ... but an explicitly requested parallel lifetime that
        # cannot parallelize is a misconfiguration, not a preference.
        with pytest.raises(ValueError, match="workers=1"):
            SweepEngine(workers=1, lifetime="fork")

    def test_explicit_lifetime_without_fork_rejected(self, monkeypatch):
        from repro.net import executor as executor_module

        monkeypatch.setattr(executor_module, "_fork_context", lambda: None)
        with pytest.raises(ValueError, match="fork"):
            SweepEngine(workers=2, lifetime="fork")
        # the default path still degrades quietly
        assert SweepEngine(workers=2, lifetime=None).lifetime == "serial"

    def test_unknown_lifetime_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=2, lifetime="threads")

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_map_preserves_item_order(self, workers):
        engine = SweepEngine(workers=workers)
        items = list(range(17))
        assert engine.map(_double, "ctx", items) == [
            ("ctx", i * 2) for i in items
        ]

    @pytest.mark.parametrize("lifetime", ["serial", "fork"])
    def test_every_lifetime_maps_in_order(self, lifetime):
        engine = SweepEngine(workers=2, lifetime=lifetime)
        items = list(range(9))
        assert engine.map(_double, "ctx", items) == [
            ("ctx", i * 2) for i in items
        ]

    @pytest.mark.parametrize("lifetime", ["serial", "fork"])
    def test_single_item_maps_run_in_process(self, lifetime, monkeypatch):
        # A pool for one task costs a fork and buys nothing; the map
        # calls fn inline without even opening a session.
        from repro.net import executor as executor_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-item map reached the pool")

        monkeypatch.setattr(executor_module, "_supervised_map", no_pool)
        monkeypatch.setattr(executor_module, "EngineSession", no_pool)
        engine = SweepEngine(workers=2, lifetime=lifetime)
        assert engine.map(_double, "ctx", [3]) == [("ctx", 6)]
        assert engine.map(_double, "ctx", []) == []

    def test_serial_maps_open_no_session(self, monkeypatch):
        from repro.net import executor as executor_module

        def no_session(*args, **kwargs):
            raise AssertionError("a serial map opened a session")

        monkeypatch.setattr(executor_module, "EngineSession", no_session)
        engine = SweepEngine(workers=2, lifetime="serial")
        items = list(range(5))
        assert engine.map(_double, "ctx", items) == [
            ("ctx", i * 2) for i in items
        ]


# Summaries live on the transducer, so no entry point takes a memo knob.
_RUN_ENTRY_POINTS = [
    run_schedule, run_fair, run_fifo_rounds, run_round_robin_batch,
    run_witness_guided, sweep_runs, observe_runs, check_consistency,
    computed_output, check_topology_independence, calm_verdict,
    ComputedQuery, ConvergenceTracker,
]


@pytest.mark.parametrize(
    "entry", _RUN_ENTRY_POINTS, ids=lambda entry: entry.__name__
)
def test_entry_point_takes_no_memo(entry):
    params = inspect.signature(entry).parameters
    assert "memo" not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


# ---------------------------------------------------------------------------
# Determinism: parallel sweep == serial sweep
# ---------------------------------------------------------------------------

values = st.integers(min_value=0, max_value=3)


@st.composite
def sweep_cases(draw):
    pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    network = draw(st.sampled_from([line(2), line(3), ring(3)]))
    seed = draw(st.integers(0, 50))
    return Instance(S2, [Fact("S", p) for p in pairs]), network, seed


class TestParallelSweepDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2, 4]))
    def test_parallel_equals_serial(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        serial = sweep_runs(network, TC, partitions, (seed, seed + 1))
        parallel = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(
                workers=workers, lifetime="fork" if workers > 1 else None
            ),
        )
        assert serial == parallel  # observation-for-observation

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([2, 4]))
    def test_parallel_on_warm_transducer_equals_serial(self, case, workers):
        # Forked workers inherit the parent's warm memos.
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        fresh = pickle.loads(pickle.dumps(TC))
        serial = sweep_runs(network, fresh, partitions, (seed,))
        parallel = sweep_runs(
            network, fresh, partitions, (seed,),
            engine=SweepEngine(workers=workers, lifetime="fork"),
        )
        assert serial == parallel

    def test_check_consistency_workers_agree(self):
        serial = check_consistency(line(3), TC, GRAPH, partition_count=3,
                                   seeds=(0, 1))
        parallel = check_consistency(
            line(3), TC, GRAPH, partition_count=3, seeds=(0, 1),
            engine=SweepEngine(workers=2, lifetime="fork"),
        )
        assert serial.consistent == parallel.consistent
        assert serial.outputs == parallel.outputs
        assert serial.observations == parallel.observations

    def test_coordination_report_identical_under_workers(self):
        expected = computed_output(line(2), RELAY, ELEMENTS)
        serial = check_coordination_free_on(
            line(2), RELAY, ELEMENTS, expected
        )
        parallel = check_coordination_free_on(
            line(2), RELAY, ELEMENTS, expected,
            engine=SweepEngine(workers=2, lifetime="fork"),
        )
        assert serial.coordination_free == parallel.coordination_free
        assert serial.partitions_tried == parallel.partitions_tried
        assert serial.witness == parallel.witness
        assert serial.exhaustive == parallel.exhaustive


# ---------------------------------------------------------------------------
# Warm transducers: warmed verdicts == fresh verdicts
# ---------------------------------------------------------------------------


def _fair_walk(network, transducer, partition, seed, steps):
    rng = random.Random(seed)
    nodes = network.sorted_nodes()
    config = initial_configuration(network, transducer, partition)
    produced: set = set()
    yield config, frozenset(produced)
    for _ in range(steps):
        node = rng.choice(nodes)
        buffer = config.buffer(node)
        if buffer and rng.random() < 0.75:
            choices = buffer.distinct()
            transition = deliver(
                network, transducer, config, node,
                choices[rng.randrange(len(choices))],
            )
        else:
            transition = heartbeat(network, transducer, config, node)
        config = transition.after
        produced |= transition.output
        yield config, frozenset(produced)


@st.composite
def walk_cases(draw):
    name = draw(st.sampled_from(["relay", "tc"]))
    network = draw(st.sampled_from(_NETWORKS))
    part_seed = draw(st.integers(0, 10))
    seed = draw(st.integers(0, 500))
    steps = draw(st.integers(0, 18))
    transducer, inst = {
        "relay": (RELAY, ELEMENTS),
        "tc": (TC, GRAPH),
    }[name]
    partition = random_partition(inst, network, part_seed)
    return transducer, network, partition, seed, steps


class TestMemoWarmedVerdicts:
    @settings(max_examples=20, deadline=None)
    @given(walk_cases())
    def test_warm_tracker_equals_fresh_tracker(self, case):
        transducer, network, partition, seed, steps = case
        # The pickle copy's memos are empty; warm the original with one
        # full run plus the walk itself.
        cold = pickle.loads(pickle.dumps(transducer))
        run_fair(network, transducer, partition, seed=seed)
        warmup = ConvergenceTracker(network, transducer)
        for config, produced in _fair_walk(
            network, transducer, partition, seed, steps
        ):
            warmup.check(config, produced)
        # Fresh tracker on the cold copy vs a tracker on the warm
        # transducer, same checkpoints.
        fresh = ConvergenceTracker(network, cold)
        warmed = ConvergenceTracker(network, transducer)
        for config, produced in _fair_walk(
            network, transducer, partition, seed, steps
        ):
            assert warmed.check(config, produced) == fresh.check(
                config, produced
            )
        # Every summary the walk needs was proven by the warm-up.
        assert warmed.summaries_built == 0

    def test_warm_transducer_sweeps_equal_fresh(self):
        def sweep(transducer, engine=None):
            return check_consistency(
                line(3), transducer, GRAPH, partition_count=3, seeds=(0, 1),
                engine=engine,
            ).observations

        expected = sweep(transitive_closure_transducer())
        td = transitive_closure_transducer()
        assert sweep(td) == expected
        proven = len(td.summary_memo)
        assert proven > 0
        assert sweep(td, SweepEngine(workers=2, lifetime="fork")) == expected
        assert sweep(td) == expected
        # The repeated serial sweep proved nothing new.
        assert len(td.summary_memo) == proven

    def test_warm_transducer_calm_verdict_equals_fresh(self):
        td = relay_identity_transducer()
        first = calm_verdict(td, ELEMENTS)
        assert len(td.summary_memo) > 0
        assert calm_verdict(td, ELEMENTS) == first
        assert first == calm_verdict(relay_identity_transducer(), ELEMENTS)


# ---------------------------------------------------------------------------
# Witness guidance: same fixpoint as fair runs on batchable transducers
# ---------------------------------------------------------------------------


class TestWitnessGuidedFixpoint:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["relay", "tc"]),
        st.sampled_from(_NETWORKS),
        st.integers(0, 10),
        st.integers(0, 200),
        st.booleans(),
    )
    def test_same_output_as_fair(self, name, network, part_seed, seed, batch):
        transducer, inst = {
            "relay": (RELAY, ELEMENTS),
            "tc": (TC, GRAPH),
        }[name]
        partition = random_partition(inst, network, part_seed)
        fair = run_fair(network, transducer, partition, seed=seed)
        guided = run_witness_guided(
            network, transducer, partition, batch_delivery=batch
        )
        assert fair.converged and guided.converged
        assert guided.output == fair.output
        assert guided.scheduler == "witness-guided"

    def test_works_for_non_batchable_when_unbatched(self):
        # Unbatched witness-guided runs are legal for any transducer;
        # for non-batchable ones different fair schedules may reach
        # different outputs (that is what inconsistency means), so only
        # convergence — not output equality — is asserted here.
        from repro.core import first_element_transducer

        td = first_element_transducer()
        partition = random_partition(ELEMENTS, line(2), 0)
        guided = run_witness_guided(line(2), td, partition)
        assert guided.converged
        assert len(guided.output) == 1
