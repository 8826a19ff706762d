"""The scheduler abstraction: implementations, batching gate, tracker."""

import pytest

from repro.core import (
    ab_nonempty_transducer,
    build_transducer,
    emptiness_transducer,
    first_element_transducer,
    ping_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import instance, schema
from repro.net import (
    SCHEDULERS,
    BatchingError,
    ConvergenceTracker,
    FifoRoundsScheduler,
    HeartbeatOnlyScheduler,
    RoundRobinBatchScheduler,
    batching_allowed,
    deliver_batch,
    heartbeat,
    initial_configuration,
    is_converged,
    line,
    require_batchable,
    ring,
    round_robin,
    run_fair,
    run_fifo_rounds,
    run_round_robin_batch,
    run_schedule,
)

S2 = schema(S=2)
GRAPH = instance(S2, S=[(1, 2), (2, 3), (3, 1)])
TC = transitive_closure_transducer()


@pytest.fixture
def flood():
    return build_transducer(
        inputs={"S": 1},
        messages={"M": 1},
        memory={"R": 1},
        output_arity=1,
        rules="""
            send M(x)   :- S(x).
            send M(x)   :- M(x).
            insert R(x) :- M(x).
            out(x)      :- R(x).
        """,
        name="flood1",
    )


class TestRegistry:
    def test_all_five_schedulers_registered(self):
        assert set(SCHEDULERS) == {
            "fair-random",
            "heartbeat-only",
            "fifo-rounds",
            "round-robin-batch",
            "witness-guided",
        }

    def test_result_carries_scheduler_name(self):
        net = ring(3)
        p = round_robin(GRAPH, net)
        assert run_fair(net, TC, p).scheduler == "fair-random"
        assert run_fifo_rounds(net, TC, p).scheduler == "fifo-rounds"
        assert run_round_robin_batch(net, TC, p).scheduler == "round-robin-batch"
        assert (
            run_schedule(net, TC, p, HeartbeatOnlyScheduler(), max_steps=None)
            .scheduler
            == "heartbeat-only"
        )


class TestBatchingGate:
    def test_tc_is_batchable(self):
        assert batching_allowed(TC)
        require_batchable(TC)  # no raise

    @pytest.mark.parametrize(
        "make",
        [
            emptiness_transducer,  # uses Id and All
            ping_identity_transducer,  # uses All
            ab_nonempty_transducer,  # uses Id and All
            first_element_transducer,  # oblivious but not monotone
        ],
    )
    def test_non_batchable_transducers_rejected(self, make):
        t = make()
        assert not batching_allowed(t)
        with pytest.raises(BatchingError):
            require_batchable(t)
        I = instance(t.schema.inputs, **{
            name: [] for name in t.schema.inputs.relation_names()
        })
        with pytest.raises(BatchingError):
            run_fair(line(2), t, round_robin(I, line(2)), batch_delivery=True)
        with pytest.raises(BatchingError):
            run_round_robin_batch(line(2), t, round_robin(I, line(2)))

    def test_monotone_oblivious_but_deleting_transducer_rejected(self):
        # Monotone queries + no Id/All is NOT enough: with deletions the
        # coalesced update can reach states (and outputs) no
        # one-fact-at-a-time interleaving produces — delivering {a, b}
        # in one batch applies both inserts before either delete, while
        # sequential delivery always deletes one of P/Q first.
        t = build_transducer(
            inputs={"S": 1},
            messages={"Ma": 0, "Mb": 0},
            memory={"P": 0, "Q": 0},
            output_arity=0,
            rules="""
                send Ma()   :- S(x).
                insert P()  :- Ma().
                delete Q()  :- Ma().
                insert Q()  :- Mb().
                delete P()  :- Mb().
                out()       :- P(), Q().
            """,
            name="deleting_monotone",
        )
        from repro.core import is_inflationary, is_monotone, is_oblivious

        assert is_oblivious(t) and is_monotone(t) and not is_inflationary(t)
        assert not batching_allowed(t)
        with pytest.raises(BatchingError):
            require_batchable(t)

    def test_batch_rejection_happens_before_any_transition(self):
        t = first_element_transducer()
        I = instance(schema(S=1), S=[(1,), (2,)])
        with pytest.raises(BatchingError):
            run_schedule(
                line(2),
                t,
                round_robin(I, line(2)),
                RoundRobinBatchScheduler(),
            )


class TestBatchedDelivery:
    def test_deliver_batch_drains_buffer(self, flood):
        net = line(2)
        I = instance(schema(S=1), S=[(1,), (2,)])
        from repro.net import all_at_one

        config = initial_configuration(
            net, flood, all_at_one(I, net, net.sorted_nodes()[0])
        )
        config = heartbeat(net, flood, config, "n1").after
        config = heartbeat(net, flood, config, "n1").after
        assert len(config.buffer("n2")) == 4
        t = deliver_batch(net, flood, config, "n2")
        assert len(t.after.buffer("n2")) == 0
        assert t.after.state("n2").relation("R") == frozenset({(1,), (2,)})

    def test_deliver_batch_rejects_empty_buffer(self, flood):
        net = line(2)
        I = instance(schema(S=1), S=[(1,)])
        config = initial_configuration(net, flood, round_robin(I, net))
        with pytest.raises(ValueError):
            deliver_batch(net, flood, config, "n1")

    def test_batched_fair_run_matches_unbatched_output(self):
        net = ring(4)
        p = round_robin(GRAPH, net)
        unbatched = run_fair(net, TC, p, seed=5)
        batched = run_fair(net, TC, p, seed=5, batch_delivery=True)
        assert batched.converged and unbatched.converged
        assert batched.output == unbatched.output

    def test_round_robin_batch_converges_in_fewer_steps(self):
        net = ring(4)
        p = round_robin(GRAPH, net)
        fair = run_fair(net, TC, p, seed=0)
        batched = run_round_robin_batch(net, TC, p)
        assert batched.converged
        assert batched.output == fair.output
        assert batched.stats.steps < fair.stats.steps

    def test_round_robin_unbatched_variant(self):
        net = line(3)
        p = round_robin(GRAPH, net)
        result = run_round_robin_batch(net, TC, p, batch_delivery=False)
        assert result.converged
        assert result.output == run_fair(net, TC, p, seed=0).output


class TestConvergenceEngines:
    def test_exact_check_drives_the_same_run(self, convergence_checks):
        # Runs acting on the exact from-scratch verdict equal runs acting
        # on the tracker's, under every kind of schedule.
        net = line(3)
        p = round_robin(GRAPH, net)
        runs = [
            lambda: run_fair(net, TC, p, seed=1),
            lambda: run_fair(net, TC, p, seed=2, check_every=1),
            lambda: run_fifo_rounds(net, TC, p),
            lambda: run_round_robin_batch(net, TC, p),
        ]
        for run in runs:
            convergence_checks("incremental")
            a = run()
            verdicts = convergence_checks("exact")
            b = run()
            assert verdicts and all(v == e for v, e in verdicts)
            assert a.converged and b.converged
            assert a.output == b.output
            assert a.stats == b.stats
            assert a.quiescence_step == b.quiescence_step

    def test_tracker_standalone_matches_exact_on_initial_config(self):
        quiet = build_transducer(inputs={"S": 1}, output_arity=0)
        net = line(2)
        I = instance(schema(S=1), S=[(1,)])
        config = initial_configuration(net, quiet, round_robin(I, net))
        tracker = ConvergenceTracker(net, quiet)
        assert tracker.check(config, frozenset()) is True
        assert is_converged(net, quiet, config, frozenset()) is True

    def test_tracker_witness_fast_path_counts(self, flood):
        net = line(3)
        I = instance(schema(S=1), S=[(1,), (2,)])
        config = initial_configuration(net, flood, round_robin(I, net))
        tracker = ConvergenceTracker(net, flood)
        assert tracker.check(config, frozenset()) is False
        # Unchanged configuration: the cached verdict replays.
        assert tracker.check(config, frozenset()) is False
        assert tracker.fast_replays >= 1
        # A heartbeat elsewhere leaves the witness enabled.
        config2 = heartbeat(net, flood, config, "n3").after
        assert tracker.check(config2, frozenset()) is False


class TestSchedulerCustomization:
    def test_custom_scheduler_instance_via_run_fair(self):
        net = ring(3)
        p = round_robin(GRAPH, net)
        result = run_fair(
            net, TC, p, scheduler=FifoRoundsScheduler(), max_steps=None
        )
        assert result.converged
        assert result.scheduler == "fifo-rounds"

    def test_fifo_skip_nodes_still_never_act(self, flood):
        net = ring(4)
        I = instance(schema(S=1), S=[(1,), (2,)])
        p = round_robin(I, net)
        skipped = net.sorted_nodes()[2]
        result = run_fifo_rounds(
            net, flood, p, skip_nodes=frozenset({skipped})
        )
        assert result.config.state(skipped).relation("R") == frozenset()

    def test_fair_scheduler_check_every_knob(self):
        net = line(2)
        p = round_robin(GRAPH, net)
        a = run_fair(net, TC, p, seed=0, check_every=1)
        b = run_fair(net, TC, p, seed=0, check_every=1000)
        assert a.output == b.output
        assert a.converged and b.converged
