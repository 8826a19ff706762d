"""Pickle round-trips for the runtime's immutable core types.

The multiprocessing sweep backend ships tasks (partitions), results
(observations with configurations and run stats) and transducers
between processes.  The frozen-slots layout of the core types breaks
*default* pickling (unpickling would go through the raising
``__setattr__`` guards), so each type carries an explicit
``__reduce__`` — these tests pin that every shipped type round-trips
to an equal object with a working hash, and that the rebuild paths
skip re-validation without losing it.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import given

from repro.core import transitive_closure_transducer
from repro.db import Fact, FactMultiset, Instance, schema
from repro.db.instance import instance
from repro.net import (
    initial_configuration,
    line,
    ring,
    round_robin,
    run_fair,
)

S2 = schema(S=2)
GRAPH = instance(S2, S=[(1, 2), (2, 3), (3, 1)])
TC = transitive_closure_transducer()

values = st.integers(min_value=0, max_value=4)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestScalarTypes:
    def test_fact(self):
        f = Fact("S", (1, "a"))
        g = roundtrip(f)
        assert g == f and hash(g) == hash(f)

    def test_schema(self):
        s = schema(S=2, T=1)
        assert roundtrip(s) == s

    def test_instance(self):
        i = roundtrip(GRAPH)
        assert i == GRAPH
        assert hash(i) == hash(GRAPH)
        assert i.schema == GRAPH.schema
        assert i.active_domain() == GRAPH.active_domain()

    def test_empty_instance(self):
        e = Instance.empty(S2)
        assert roundtrip(e) == e

    def test_multiset_keeps_multiplicities(self):
        ms = FactMultiset([Fact("S", (1, 2))] * 3 + [Fact("S", (2, 3))])
        ms2 = roundtrip(ms)
        assert ms2 == ms
        assert ms2.count(Fact("S", (1, 2))) == 3
        assert hash(ms2) == hash(ms)

    def test_network(self):
        for net in (line(3), ring(4)):
            net2 = roundtrip(net)
            assert net2 == net and net2.name == net.name
            assert net2.sorted_nodes() == net.sorted_nodes()

    def test_partition(self):
        p = round_robin(GRAPH, line(3))
        p2 = roundtrip(p)
        assert p2 == p
        for node in line(3).sorted_nodes():
            assert p2.fragment(node) == p.fragment(node)

    def test_configuration(self):
        config = initial_configuration(line(3), TC, round_robin(GRAPH, line(3)))
        config2 = roundtrip(config)
        assert config2 == config and hash(config2) == hash(config)


class TestRuntimeObjects:
    def test_transducer_state_roundtrips(self):
        state = TC.make_state(
            GRAPH.restrict(["S"]), "n1", frozenset(["n1", "n2"])
        )
        state2 = roundtrip(state)
        assert state2 == state

    def test_transducer_drops_caches(self):
        td = transitive_closure_transducer()
        run_fair(line(2), td, round_robin(GRAPH, line(2)), seed=0)
        memos = (
            "_transition_cache", "_group_memo", "_received_by_fact",
            "summary_memo",
        )
        assert all(len(getattr(td, m)) for m in memos)  # warmed by the run
        td2 = roundtrip(td)
        assert [len(getattr(td2, m)) for m in memos] == [0, 0, 0, 0]
        assert [getattr(td2, m).limit for m in memos] == [
            getattr(td, m).limit for m in memos
        ]
        assert td2.name == td.name
        # and the copy still runs, rebuilding its caches
        result = run_fair(line(2), td2, round_robin(GRAPH, line(2)), seed=0)
        assert result.converged

    def test_run_result(self):
        result = run_fair(line(3), TC, round_robin(GRAPH, line(3)), seed=0)
        result2 = roundtrip(result)
        assert result2 == result


class TestPropertyRoundTrips:
    @given(st.lists(st.tuples(values, values), max_size=8))
    def test_instances(self, pairs):
        i = Instance(S2, [Fact("S", p) for p in pairs])
        i2 = roundtrip(i)
        assert i2 == i and hash(i2) == hash(i)

    @given(st.lists(st.tuples(values), max_size=6))
    def test_multisets(self, tuples):
        ms = FactMultiset([Fact("M", t) for t in tuples])
        ms2 = roundtrip(ms)
        assert ms2 == ms and hash(ms2) == hash(ms)

    @given(st.integers(0, 10))
    def test_sampled_partitions(self, seed):
        from repro.net import random_partition

        p = random_partition(GRAPH, line(3), seed, replication=0.3)
        assert roundtrip(p) == p
