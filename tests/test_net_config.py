"""Configurations: shape invariants of Section 3."""

import pytest

from repro.core import transitive_closure_transducer
from repro.db import FactMultiset, fact, instance, schema
from repro.net import (
    Configuration,
    HorizontalPartition,
    initial_configuration,
    line,
    round_robin,
)


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

    def test_replace_is_functional(self, setup):
        t, I, net, config = setup
        v = net.sorted_nodes()[0]
        buf = FactMultiset([fact("M", 1, 2)])
        updated = config.replace(v, buffer=buf)
        assert updated.buffer(v) == buf
        assert config.buffer(v) == FactMultiset.empty()  # original intact

    def test_replace_rejects_an_unknown_node(self, setup):
        t, I, net, config = setup
        v = net.sorted_nodes()[0]
        buf = FactMultiset([fact("M", 1, 2)])
        with pytest.raises(ValueError):
            config.replace("elsewhere", state=config.state(v), buffer=buf)
        with pytest.raises(ValueError):
            config.replace_buffers({v: buf, "elsewhere": buf})
        assert config.nodes == net.nodes

    def test_total_buffered(self, setup):
        t, I, net, config = setup
        v = net.sorted_nodes()[0]
        buf = FactMultiset([fact("M", 1, 2), fact("M", 1, 2)])
        updated = config.replace(v, buffer=buf)
        assert updated.total_buffered() == 2

    def test_states_key_detects_state_changes_only(self, setup):
        t, I, net, config = setup
        v = net.sorted_nodes()[0]
        buffered = config.replace(
            v, buffer=FactMultiset([fact("M", 1, 2)])
        )
        assert buffered.states_key() == config.states_key()
        assert buffered != config

    def test_hash_equality(self, setup):
        t, I, net, config = setup
        clone = Configuration(config.states, config.buffers)
        assert clone == config
        assert hash(clone) == hash(config)


class TestPartitionNodesProperty:
    def test_nodes_views(self, setup):
        t, I, net, config = setup
        partition = round_robin(I, net)
        assert partition.nodes == net.nodes
        assert isinstance(partition, HorizontalPartition)
