"""Consistency, topology independence, coordination-freeness checkers."""

import pytest

from repro.core import (
    emptiness_transducer,
    first_element_transducer,
    ping_identity_transducer,
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import Instance, instance, schema
from repro.net import (
    SweepEngine,
    check_consistency,
    check_coordination_free_on,
    check_topology_independence,
    computed_output,
    full_replication_suffices,
    line,
    observe_runs,
    ring,
    single,
)
from repro.net.consistency import TopologyIndependenceReport


@pytest.fixture
def tc():
    return transitive_closure_transducer()


@pytest.fixture
def I2():
    return instance(schema(S=2), S=[(1, 2), (2, 3)])


class TestConsistencyChecker:
    def test_consistent_transducer_passes(self, tc, I2):
        report = check_consistency(line(2), tc, I2, seeds=(0, 1))
        assert report.consistent
        assert len(report.distinct_outputs) == 1
        assert report.unconverged == 0

    def test_no_partitions_is_no_evidence(self, tc, I2):
        with pytest.raises(ValueError, match="count"):
            check_consistency(line(2), tc, I2, partition_count=0)

    def test_no_seeds_is_no_evidence(self, tc, I2):
        with pytest.raises(ValueError, match="seed"):
            check_consistency(line(2), tc, I2, seeds=())

    @pytest.mark.parametrize("check", [observe_runs, check_consistency])
    def test_an_empty_partition_list_is_no_evidence(self, tc, I2, check):
        with pytest.raises(ValueError, match="partition"):
            check(line(2), tc, I2, partitions=[])

    def test_inconsistent_transducer_caught(self):
        t = first_element_transducer()
        I = instance(schema(S=1), S=[(1,), (2,)])
        report = check_consistency(
            line(2), t, I, seeds=tuple(range(8))
        )
        assert not report.consistent
        witness = report.witness_pair()
        assert witness is not None
        a, b = witness
        assert a.result.output != b.result.output

    def test_default_engine_matches_an_explicit_serial_engine(self):
        t = first_element_transducer()
        I = instance(schema(S=1), S=[(1,), (2,)])
        default = check_consistency(line(2), t, I, seeds=tuple(range(4)))
        serial = check_consistency(
            line(2), t, I, seeds=tuple(range(4)), engine=SweepEngine()
        )
        assert default.consistent == serial.consistent
        assert [
            (o.partition, o.seed, o.result.output, o.result.stats.steps)
            for o in default.observations
        ] == [
            (o.partition, o.seed, o.result.output, o.result.stats.steps)
            for o in serial.observations
        ]


class TestTopologyIndependence:
    def test_tc_is_topology_independent(self, tc, I2):
        report = check_topology_independence(
            tc, I2, networks=[single(), line(2), line(3), ring(3)],
            partition_count=2, seeds=(0,),
        )
        assert report.independent

    def test_relay_identity_is_not(self):
        t = relay_identity_transducer()
        I = instance(schema(S=1), S=[(1,)])
        report = check_topology_independence(
            t, I, networks=[single(), line(2)], partition_count=2, seeds=(0,)
        )
        assert not report.independent
        assert len(report.distinct_outputs()) == 2

    def test_distinct_outputs_keep_first_seen_order(self):
        a, b = frozenset({1}), frozenset({2})
        report = TopologyIndependenceReport(
            independent=False,
            per_network={"single": b, "line(2)": a, "ring(3)": b},
        )
        assert report.distinct_outputs() == [b, a]

    def test_single_node_always_included(self, tc, I2):
        report = check_topology_independence(
            tc, I2, networks=[line(2)], partition_count=1, seeds=(0,)
        )
        assert "single" in report.per_network


class TestCoordinationFreeness:
    def test_tc_coordination_free_exhaustive(self, tc):
        I = instance(schema(S=2), S=[(1, 2)])
        expected = computed_output(line(2), tc, I)
        report = check_coordination_free_on(line(2), tc, I, expected)
        assert report.coordination_free
        assert report.witness is not None

    def test_full_replication_witnesses_oblivious(self, tc, I2):
        expected = computed_output(line(2), tc, I2)
        assert full_replication_suffices(line(2), tc, I2, expected)

    def test_emptiness_not_coordination_free(self):
        t = emptiness_transducer()
        I = Instance.empty(schema(S=1))
        expected = computed_output(line(2), t, I)
        assert expected == frozenset({()})
        report = check_coordination_free_on(line(2), t, I, expected)
        assert not report.coordination_free
        assert report.exhaustive  # empty instance: only one partition

    def test_ping_identity_not_coordination_free(self):
        t = ping_identity_transducer()
        I = instance(schema(S=1), S=[(1,)])
        expected = computed_output(line(2), t, I)
        assert expected == frozenset({(1,)})
        report = check_coordination_free_on(line(2), t, I, expected)
        assert not report.coordination_free
        assert report.exhaustive  # 1 fact on 2 nodes: 3 partitions

    def test_everything_free_on_single_node(self):
        t = emptiness_transducer()
        I = Instance.empty(schema(S=1))
        expected = computed_output(single(), t, I)
        report = check_coordination_free_on(single(), t, I, expected)
        assert report.coordination_free
