"""Horizontal partitions (Section 4)."""

import pickle
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import Fact, Instance, instance, schema
from repro.net import (
    HorizontalPartition,
    all_at_one,
    enumerate_partitions,
    full_replication,
    line,
    random_partition,
    round_robin,
    sample_partitions,
    single,
)


@pytest.fixture
def s1():
    return schema(S=1)


@pytest.fixture
def I(s1):
    return instance(s1, S=[(1,), (2,), (3,)])


@pytest.fixture
def net():
    return line(3)


class TestValidity:
    def test_fragments_must_cover(self, s1, I, net):
        empty = Instance.empty(s1)
        with pytest.raises(ValueError, match="cover"):
            HorizontalPartition(I, {v: empty for v in net.nodes})

    def test_fragments_must_be_subsets(self, s1, I, net):
        alien = instance(s1, S=[(9,)])
        frags = {v: I for v in net.nodes}
        frags[net.sorted_nodes()[0]] = alien
        with pytest.raises(ValueError, match="subset"):
            HorizontalPartition(I, frags)

    def test_overlap_allowed(self, s1, I, net):
        # horizontal partitions may replicate facts
        HorizontalPartition(I, {v: I for v in net.nodes})


class TestNamedPartitions:
    def test_full_replication(self, I, net):
        p = full_replication(I, net)
        for v in net.nodes:
            assert p.fragment(v) == I

    def test_all_at_one(self, I, net):
        p = all_at_one(I, net)
        sizes = sorted(len(p.fragment(v)) for v in net.nodes)
        assert sizes == [0, 0, 3]

    def test_all_at_one_specific_node(self, I, net):
        target = net.sorted_nodes()[-1]
        p = all_at_one(I, net, target)
        assert len(p.fragment(target)) == 3

    @pytest.mark.parametrize("facts", [[(1,)], []])
    def test_all_at_one_rejects_a_foreign_node(self, s1, net, facts):
        with pytest.raises(ValueError):
            all_at_one(instance(s1, S=facts), net, "elsewhere")

    def test_round_robin_disjoint_and_covering(self, I, net):
        p = round_robin(I, net)
        union = set()
        total = 0
        for v in net.nodes:
            frag = p.fragment(v).facts()
            total += len(frag)
            union |= frag
        assert union == I.facts()
        assert total == len(I)  # disjoint

    def test_random_partition_reproducible(self, I, net):
        a = random_partition(I, net, seed=4, replication=0.5)
        b = random_partition(I, net, seed=4, replication=0.5)
        for v in net.nodes:
            assert a.fragment(v) == b.fragment(v)

    def test_sample_partitions_all_valid(self, I, net):
        for p in sample_partitions(I, net, 8):
            assert p.nodes == net.nodes

    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_partitions_needs_a_positive_count(self, I, net, count):
        with pytest.raises(ValueError, match="count"):
            sample_partitions(I, net, count)


# ---------------------------------------------------------------------------
# The library builds its partitions without re-proving them
# ---------------------------------------------------------------------------

S12 = schema(S=1, E=2)
VALUES = st.integers(min_value=1, max_value=4)
NETWORKS = [single(), line(2), line(3), line(4)]


@st.composite
def small_instances(draw):
    unary = draw(st.lists(st.tuples(VALUES), max_size=4))
    binary = draw(st.lists(st.tuples(VALUES, VALUES), max_size=4))
    return Instance(S12, [Fact("S", r) for r in unary] + [Fact("E", r) for r in binary])


def _checked(instance, buckets):
    """A partition as the checked constructor builds it from fact buckets."""
    return HorizontalPartition(
        instance, {v: Instance(instance.schema, bucket) for v, bucket in buckets.items()}
    )


def _reference_sample(instance, network, count, seed):
    """The sample built eagerly through the checked constructor: full
    replication, all at one node and round robin, then seeded random
    partitions, cut to *count*."""
    nodes = network.sorted_nodes()
    facts = sorted(instance.facts())
    empty = Instance.empty(instance.schema)
    out = [
        HorizontalPartition(instance, {v: instance for v in network.nodes}),
        HorizontalPartition(
            instance, {v: (instance if v == nodes[0] else empty) for v in network.nodes}
        ),
    ]
    buckets = {v: set() for v in nodes}
    for i, f in enumerate(facts):
        buckets[nodes[i % len(nodes)]].add(f)
    out.append(_checked(instance, buckets))
    for i in range(max(0, count - 3)):
        rng = random.Random(seed + i)
        replication = [0.0, 0.3, 0.7][i % 3]
        buckets = {v: set() for v in nodes}
        for f in facts:
            home = rng.choice(nodes)
            buckets[home].add(f)
            for v in nodes:
                if v != home and rng.random() < replication:
                    buckets[v].add(f)
        out.append(_checked(instance, buckets))
    return out[:count]


def _rechecked(partition):
    return HorizontalPartition(
        partition.instance, {v: partition.fragment(v) for v in partition.nodes}
    )


class TestLibraryBuiltPartitions:
    @settings(max_examples=60, deadline=None)
    @given(
        small_instances(),
        st.sampled_from(NETWORKS),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    def test_sample_equals_the_checked_sample(self, inst, net, count, seed):
        from repro.net import partition as partition_module

        with mock.patch.object(
            partition_module, "_unpickle_partition",
            wraps=partition_module._unpickle_partition,
        ) as built, mock.patch.object(
            HorizontalPartition, "__init__", side_effect=AssertionError("checked")
        ):
            sample = sample_partitions(inst, net, count, seed=seed)
        expected = _reference_sample(inst, net, count, seed)
        assert built.call_count == len(sample) == count
        assert sample == expected
        assert [p.describe() for p in sample] == [p.describe() for p in expected]
        # Fragments are laid out as the checked path lays them out, so
        # the runs they seed pickle byte for byte as before.
        assert pickle.dumps(sample) == pickle.dumps(expected)
        assert all(_rechecked(p) == p for p in sample)

    @settings(max_examples=30, deadline=None)
    @given(small_instances(), st.sampled_from(NETWORKS[:3]))
    def test_enumerated_partitions_pass_the_checks(self, inst, net):
        for p in enumerate_partitions(inst, net, max_count=20):
            assert _rechecked(p) == p


class TestEnumeration:
    def test_count_on_tiny_case(self, s1):
        I = instance(s1, S=[(1,)])
        net = line(2)
        # one fact, 2 nodes: nonempty subsets of nodes = 3
        assert sum(1 for _ in enumerate_partitions(I, net)) == 3

    def test_count_two_facts(self, s1):
        I = instance(s1, S=[(1,), (2,)])
        net = line(2)
        assert sum(1 for _ in enumerate_partitions(I, net)) == 9

    def test_max_count_caps(self, s1):
        I = instance(s1, S=[(1,), (2,)])
        net = line(2)
        assert sum(1 for _ in enumerate_partitions(I, net, max_count=4)) == 4

    def test_empty_instance_single_partition(self, s1, net):
        I = Instance.empty(s1)
        parts = list(enumerate_partitions(I, net))
        assert len(parts) == 1

    def test_enumerated_partitions_are_valid(self, s1):
        I = instance(s1, S=[(1,), (2,)])
        net = single()
        for p in enumerate_partitions(I, net):
            assert p.fragment("n1") == I
