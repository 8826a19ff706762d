"""Configurations: shape invariants of Section 3."""

import pytest

from repro.core import transitive_closure_transducer
from repro.db import FactMultiset, fact, instance, schema
from repro.net import (
    Configuration,
    HorizontalPartition,
    WorkingConfiguration,
    initial_configuration,
    line,
    round_robin,
)


def with_buffer(config, node, buffer):
    return Configuration(config.states, {**config.buffers, node: buffer})


@pytest.fixture
def setup():
    t = transitive_closure_transducer()
    I = instance(schema(S=2), S=[(1, 2), (2, 3)])
    net = line(2)
    config = initial_configuration(net, t, round_robin(I, net))
    return t, I, net, config


class TestInitialConfiguration:
    def test_id_and_all_set_correctly(self, setup):
        t, I, net, config = setup
        for v in net.nodes:
            state = config.state(v)
            assert state.relation("Id") == frozenset({(v,)})
            assert state.relation("All") == frozenset(
                {(w,) for w in net.nodes}
            )

    def test_buffers_and_memory_empty(self, setup):
        t, I, net, config = setup
        assert config.buffers_empty()
        for v in net.nodes:
            assert config.state(v).relation("R") == frozenset()
            assert config.state(v).relation("T") == frozenset()

    def test_inputs_are_the_fragments(self, setup):
        t, I, net, config = setup
        union = set()
        for v in net.nodes:
            union |= config.state(v).relation("S")
        assert union == set(I.relation("S"))

    def test_partition_network_mismatch_rejected(self, setup):
        t, I, net, _ = setup
        other = line(3)
        partition = round_robin(I, net)
        with pytest.raises(ValueError):
            initial_configuration(other, t, partition)


class TestConfigurationValueSemantics:
    def test_states_and_buffers_must_align(self, setup):
        t, I, net, config = setup
        with pytest.raises(ValueError):
            Configuration(config.states, {})

    def test_total_buffered(self, setup):
        t, I, net, config = setup
        v = net.sorted_nodes()[0]
        buf = FactMultiset([fact("M", 1, 2), fact("M", 1, 2)])
        assert with_buffer(config, v, buf).total_buffered() == 2

    def test_states_key_detects_state_changes_only(self, setup):
        t, I, net, config = setup
        v = net.sorted_nodes()[0]
        buffered = with_buffer(config, v, FactMultiset([fact("M", 1, 2)]))
        assert buffered.states_key() == config.states_key()
        assert buffered != config

    def test_hash_equality(self, setup):
        t, I, net, config = setup
        clone = Configuration(config.states, config.buffers)
        assert clone == config
        assert hash(clone) == hash(config)


def read_side(config):
    """Everything the schedulers and convergence checks read."""
    nodes = sorted(config.states, key=repr)
    return (
        dict(config.states),
        {v: config.distinct_buffer(v) for v in nodes},
        {v: config.distinct_set(v) for v in nodes},
        {v: {f: config.buffer(v).count(f) for f in config.distinct_buffer(v)}
         for v in nodes},
        {v: (bool(config.buffer(v)), len(config.buffer(v)), tuple(config.buffer(v)))
         for v in nodes},
        config.buffers_empty(),
        config.total_buffered(),
        config.nonempty_buffer_nodes(),
        config.states_key(),
    )


def recomputed(work):
    """*work*'s snapshot with every buffer rebuilt from its counts, so
    no cached view of the working configuration reaches it."""
    snapshot = work.snapshot()
    return Configuration(snapshot.states, {
        v: FactMultiset([f for f, n in buf._counts.items() for _ in range(n)])
        for v, buf in snapshot.buffers.items()
    })


class TestWorkingConfiguration:
    def test_edits_leave_the_loaded_configuration_intact(self, setup):
        t, I, net, config = setup
        v, w = net.sorted_nodes()
        work = WorkingConfiguration(config)
        work.duplicate(v, fact("M", 1, 2))
        work.send([v, w], frozenset({fact("M", 2, 3)}))
        assert work.snapshot() == with_buffer(
            with_buffer(config, v, FactMultiset([fact("M", 1, 2), fact("M", 2, 3)])),
            w, FactMultiset([fact("M", 2, 3)]),
        )
        assert config.buffers_empty()

    def test_read_side_equals_its_snapshot_after_every_edit(self, setup):
        t, I, net, config = setup
        v, w = net.sorted_nodes()
        f, g, h = fact("M", 1, 2), fact("M", 2, 3), fact("M", 3, 4)
        work = WorkingConfiguration(config)
        edits = [
            lambda: work.send([v, w], frozenset({f, g})),
            lambda: work.duplicate(v, g),
            lambda: work.distinct_buffer(v),  # warm the sorted view
            lambda: work.deliver(v, g),
            lambda: work.deliver(v, g),  # the last g: the sorted view shrinks
            lambda: work.duplicate(v, h),
            lambda: work.drop(w, h),  # absent: no-op
            lambda: work.drop(w, f),
            lambda: work.crash(v),
            lambda: work.set_state(w, config.state(v)),
        ]
        for edit in edits:
            edit()
            assert read_side(work) == read_side(recomputed(work))
        assert work.total_buffered() == 1  # g at w

    def test_edits_report_what_they_removed(self, setup):
        t, I, net, config = setup
        v, _ = net.sorted_nodes()
        work = WorkingConfiguration(config)
        work.send([v], frozenset({fact("M", 1, 2), fact("M", 2, 3)}))
        work.duplicate(v, fact("M", 1, 2))
        assert work.drop(v, fact("M", 9, 9)) == 0
        assert work.drop(v, fact("M", 1, 2)) == 1
        assert work.crash(v) == 2
        assert work.buffers_empty() and not work.buffer(v)
        with pytest.raises(ValueError):
            work.deliver(v, fact("M", 1, 2))
        with pytest.raises(ValueError):
            work.set_state("elsewhere", config.state(v))

    def test_snapshot_shares_what_did_not_change(self, setup):
        t, I, net, config = setup
        v, w = net.sorted_nodes()
        work = WorkingConfiguration(config)
        assert work.snapshot() is config  # nothing changed yet
        version = work.version
        work.send([v], frozenset({fact("M", 1, 2)}))
        assert work.version > version
        first = work.snapshot()
        assert work.snapshot() is first  # cached until the next edit
        assert first.states is config.states  # no state changed
        assert first.buffer(w) is config.buffer(w)
        work.set_state(w, config.state(v))
        second = work.snapshot()
        assert second.buffers is first.buffers  # no buffer changed
        assert second.states is not first.states
        assert second.state(w) == config.state(v)
        assert first.state(w) == config.state(w)  # snapshots stay frozen


class TestPartitionNodesProperty:
    def test_nodes_views(self, setup):
        t, I, net, config = setup
        partition = round_robin(I, net)
        assert partition.nodes == net.nodes
        assert isinstance(partition, HorizontalPartition)
