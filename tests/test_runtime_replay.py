"""Seeded-replay regression: the scheduler refactor preserves runs.

The pre-scheduler runtime produced a specific schedule for every seed;
the refactor (PR 2) must replay those schedules bit-for-bit.  The
golden values below were captured from the seed implementation on the
E01/E03 example networks (the Example 3/9 transitive-closure flooder
and the Example 4 relay) *before* the refactor — steps, heartbeat /
delivery split, facts sent, quiescence step, output size and the
convergence verdict all have to match exactly, whether the incremental
tracker's verdicts or those of the exact from-scratch test
``is_converged`` drive the run, and at every convergence check the two
must agree.
"""

import pytest

from repro.core import relay_identity_transducer, transitive_closure_transducer
from repro.db import instance, schema
from repro.net import (
    FairRandomScheduler,
    full_replication,
    line,
    ring,
    round_robin,
    run_fair,
    run_fifo_rounds,
    run_heartbeat_only,
    run_schedule,
    run_witness_guided,
    star,
)

TC = transitive_closure_transducer()
GRAPH = instance(schema(S=2), S=[(1, 2), (2, 3), (3, 1)])
RELAY = relay_identity_transducer()
ELEMENTS = instance(schema(S=1), S=[(1,), (2,), (3,)])

WORKLOADS = {
    "tc-line3": (TC, GRAPH, line(3)),
    "tc-ring4": (TC, GRAPH, ring(4)),
    "relay-line2": (RELAY, ELEMENTS, line(2)),
    "relay-star5": (RELAY, ELEMENTS, star(5)),
}

# (steps, heartbeats, deliveries, facts_sent, quiescence_step, |out|, converged)
GOLDEN_FAIR = {
    ("tc-line3", 0): (48, 20, 28, 67, 28, 9, True),
    ("tc-line3", 1): (48, 15, 33, 72, 17, 9, True),
    ("tc-line3", 2): (48, 14, 34, 72, 21, 9, True),
    ("tc-ring4", 0): (66, 20, 46, 90, 24, 9, True),
    ("tc-ring4", 1): (48, 11, 37, 61, 20, 9, True),
    ("tc-ring4", 2): (80, 25, 55, 103, 20, 9, True),
    ("relay-line2", 0): (24, 8, 16, 45, 13, 3, True),
    ("relay-line2", 1): (40, 11, 29, 78, 8, 3, True),
    ("relay-line2", 2): (24, 9, 15, 45, 11, 3, True),
    ("relay-star5", 0): (102, 33, 69, 116, 48, 3, True),
    ("relay-star5", 1): (100, 32, 68, 109, 26, 3, True),
    ("relay-star5", 2): (120, 33, 87, 139, 44, 3, True),
}

GOLDEN_FIFO = {
    "tc-line3": (48, 24, 24, 67, 21, 9, True),
    "relay-ring4": (56, 28, 28, 65, 18, 3, True),
}


#: (name, batch_delivery) -> signature, captured before full
#: convergence checks stopped at their first refutation: a
#: witness-guided run still delivers the same witness facts.
GOLDEN_WITNESS = {
    ("tc-line3", False): (33, 15, 18, 46, 26, 9, True),
    ("tc-line3", True): (24, 12, 12, 47, 17, 9, True),
    ("tc-ring4", False): (41, 20, 21, 47, 32, 9, True),
    ("tc-ring4", True): (32, 16, 16, 59, 22, 9, True),
    ("relay-line2", False): (18, 8, 10, 35, 15, 3, True),
    ("relay-line2", True): (8, 4, 4, 18, 6, 3, True),
    ("relay-star5", False): (41, 20, 21, 41, 32, 3, True),
    ("relay-star5", True): (20, 10, 10, 36, 12, 3, True),
}


def _signature(result):
    return (
        result.stats.steps,
        result.stats.heartbeats,
        result.stats.deliveries,
        result.stats.facts_sent,
        result.quiescence_step,
        len(result.output),
        result.converged,
    )


class TestGoldenReplay:
    @pytest.mark.parametrize("name,seed", sorted(GOLDEN_FAIR))
    @pytest.mark.parametrize("convergence", ["incremental", "exact"])
    def test_run_fair_matches_prerefactor_goldens(
        self, name, seed, convergence, convergence_checks
    ):
        verdicts = convergence_checks(convergence)
        transducer, I, net = WORKLOADS[name]
        result = run_fair(net, transducer, round_robin(I, net), seed=seed)
        assert _signature(result) == GOLDEN_FAIR[(name, seed)]
        assert result.scheduler == "fair-random"
        assert verdicts and all(verdict == exact for verdict, exact in verdicts)
        assert verdicts[-1] == (True, True)

    def test_run_fifo_rounds_matches_goldens(self):
        result = run_fifo_rounds(line(3), TC, round_robin(GRAPH, line(3)))
        assert _signature(result) == GOLDEN_FIFO["tc-line3"]
        result = run_fifo_rounds(ring(4), RELAY, round_robin(ELEMENTS, ring(4)))
        assert _signature(result) == GOLDEN_FIFO["relay-ring4"]

    @pytest.mark.parametrize("name,batched", sorted(GOLDEN_WITNESS))
    def test_run_witness_guided_matches_goldens(self, name, batched):
        transducer, I, net = WORKLOADS[name]
        result = run_witness_guided(net, transducer, round_robin(I, net),
                                    batch_delivery=batched)
        assert _signature(result) == GOLDEN_WITNESS[(name, batched)]

    def test_run_heartbeat_only_matches_goldens(self):
        result = run_heartbeat_only(line(3), TC, full_replication(GRAPH, line(3)))
        assert (result.stats.steps, len(result.output), result.converged) == (
            12, 9, True,
        )
        assert result.config.total_buffered() == 48
        result = run_heartbeat_only(
            ring(4), RELAY, full_replication(ELEMENTS, ring(4))
        )
        assert (result.stats.steps, len(result.output), result.converged) == (
            4, 0, True,
        )
        assert result.config.total_buffered() == 24


class TestDeterministicReplayAcrossSchedulers:
    """Same seed ⇒ same trace, for every scheduler construction path."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_run_fair_trace_replays(self, seed):
        net = ring(3)
        p = round_robin(GRAPH, net)
        a = run_fair(net, TC, p, seed=seed, keep_trace=True)
        b = run_fair(net, TC, p, seed=seed, keep_trace=True)
        assert [
            (t.node, t.kind, t.received) for t in a.trace
        ] == [(t.node, t.kind, t.received) for t in b.trace]
        assert a.output == b.output
        assert a.stats == b.stats

    @pytest.mark.parametrize("seed", [0, 7])
    def test_explicit_scheduler_equals_wrapper(self, seed):
        net = line(3)
        p = round_robin(GRAPH, net)
        wrapper = run_fair(net, TC, p, seed=seed)
        explicit = run_schedule(
            net, TC, p, FairRandomScheduler(seed=seed)
        )
        assert _signature(wrapper) == _signature(explicit)

    def test_fifo_trace_replays(self):
        net = ring(4)
        p = round_robin(ELEMENTS, net)
        a = run_fifo_rounds(net, RELAY, p, keep_trace=True)
        b = run_fifo_rounds(net, RELAY, p, keep_trace=True)
        assert [(t.node, t.kind) for t in a.trace] == [
            (t.node, t.kind) for t in b.trace
        ]
