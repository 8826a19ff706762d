"""Distributed Dedalus via location specifiers (Section 8's extension)."""

import pytest

from repro.db import Instance, SchemaError, instance, schema
from repro.dedalus import (
    DedalusProgram,
    LINK_RELATION,
    localize,
    node_view,
    place,
    run_distributed,
    run_program,
    sweep_distributed,
)
from repro.net import (
    RunCache,
    SweepEngine,
    full_replication,
    line,
    ring,
    round_robin,
)

S2 = schema(S=2)

TC_LOCAL = """
T(x, y) :- S(x, y).
T(x, y) :- T(x, z), T(z, y).
"""

EXPECTED_TC = frozenset(
    {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}
)


@pytest.fixture
def chain():
    return instance(S2, S=[(1, 2), (2, 3), (3, 4)])


class TestLocalize:
    def test_schema_gains_location_column(self):
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        dist = localize(prog)
        assert dist.edb_schema["S"] == 3
        assert dist.edb_schema[LINK_RELATION] == 2

    def test_rule_counts(self):
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        dist = localize(prog)
        kinds = [r.kind.value for r in dist.rules]
        assert kinds.count("async") == 1  # one shipping rule for S
        # persistence: Link twin + S twin + Sent ledger (insert & persist)
        assert kinds.count("inductive") == 4

    def test_broadcast_subset(self):
        sch = schema(A=1, B=1)
        prog = DedalusProgram.parse("Out(x) :- A(x), B(x).", sch)
        dist = localize(prog, broadcast={"A"})
        async_rules = [r for r in dist.rules if r.kind.value == "async"]
        assert len(async_rules) == 1
        assert async_rules[0].head.relation == "A_loc"

    def test_unknown_broadcast_rejected(self):
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        with pytest.raises(SchemaError):
            localize(prog, broadcast={"Nope"})

    def test_single_location_variable_per_rule(self):
        """The 'oblivious Dedalus' restriction: no joins on locations."""
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        dist = localize(prog)
        for drule in dist.rules:
            if drule.kind.value == "async":
                continue  # the shipping rule necessarily uses two locations
            locations = set()
            for atom in drule.rule.positive_body_atoms():
                if atom.relation in dist.schema and atom.terms:
                    locations.add(atom.terms[0])
            assert len(locations) <= 1


class TestPlace:
    def test_link_facts_bidirectional(self, chain):
        net = line(2)
        edb = place(round_robin(chain, net), net)
        links = edb.relation(LINK_RELATION)
        assert ("n1", "n2") in links and ("n2", "n1") in links

    def test_fragments_tagged(self, chain):
        net = line(2)
        partition = round_robin(chain, net)
        edb = place(partition, net)
        for node in net.sorted_nodes():
            expected = partition.fragment(node).relation("S")
            got = frozenset(
                row[1:] for row in edb.relation("S") if row[0] == node
            )
            assert got == expected


class TestDistributedRun:
    @pytest.mark.parametrize("make_net", [lambda: line(2), lambda: ring(3)])
    def test_all_nodes_reach_global_tc(self, chain, make_net):
        net = make_net()
        dist = localize(DedalusProgram.parse(TC_LOCAL, S2))
        edb = place(round_robin(chain, net), net)
        trace = run_program(dist, edb, seed=0, max_steps=200)
        assert trace.stable
        final = trace.final()
        for v in net.sorted_nodes():
            assert node_view(final, "T", v) == EXPECTED_TC

    def test_async_seed_invariance(self, chain):
        """Coordination-free: any async schedule converges to the same
        answer (the program is monotone in the EDB relations)."""
        net = ring(3)
        dist = localize(DedalusProgram.parse(TC_LOCAL, S2))
        edb = place(round_robin(chain, net), net)
        for seed in range(5):
            trace = run_program(dist, edb, seed=seed, max_steps=300)
            assert trace.stable
            for v in net.sorted_nodes():
                assert node_view(trace.final(), "T", v) == EXPECTED_TC

    def test_partition_invariance(self, chain):
        net = line(2)
        dist = localize(DedalusProgram.parse(TC_LOCAL, S2))
        for partition in (
            round_robin(chain, net),
            full_replication(chain, net),
        ):
            trace = run_program(dist, place(partition, net), seed=0,
                                max_steps=300)
            assert trace.stable
            for v in net.sorted_nodes():
                assert node_view(trace.final(), "T", v) == EXPECTED_TC

    def test_intermediate_results_sound(self, chain):
        """Monotonicity: every node's T only ever under-approximates."""
        net = ring(3)
        dist = localize(DedalusProgram.parse(TC_LOCAL, S2))
        edb = place(round_robin(chain, net), net)
        trace = run_program(dist, edb, seed=1, max_steps=300)
        for t in trace.states:
            for v in net.sorted_nodes():
                assert node_view(trace.states[t], "T", v) <= EXPECTED_TC

    def test_empty_input(self):
        net = line(2)
        dist = localize(DedalusProgram.parse(TC_LOCAL, S2))
        edb = place(full_replication(Instance.empty(S2), net), net)
        trace = run_program(dist, edb, seed=0, max_steps=100)
        assert trace.stable
        for v in net.sorted_nodes():
            assert node_view(trace.final(), "T", v) == frozenset()


class TestDistributedSweep:
    """The PR 3 sweep path: seeds × partitions grids, serial == parallel."""

    def test_run_distributed_seed_sweep(self, chain):
        net = ring(3)
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        traces = run_distributed(
            prog, net, round_robin(chain, net),
            seeds=(0, 1, 2), max_steps=300,
        )
        assert len(traces) == 3
        for trace in traces:
            assert trace.stable
            for v in net.sorted_nodes():
                assert node_view(trace.final(), "T", v) == EXPECTED_TC

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_grid_order_is_deterministic(self, chain, workers):
        net = line(2)
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        partitions = [round_robin(chain, net), full_replication(chain, net)]
        serial = sweep_distributed(
            prog, net, partitions, seeds=(0, 1), max_steps=300,
        )
        swept = sweep_distributed(
            prog, net, partitions, seeds=(0, 1), max_steps=300,
            engine=SweepEngine(
                workers=workers, lifetime="fork" if workers > 1 else None
            ),
        )
        assert len(swept) == len(serial) == 4
        for a, b in zip(serial, swept):
            assert a.stabilized_at == b.stabilized_at
            assert a.steps == b.steps
            assert a.final() == b.final()

    def test_run_cache_serves_distributed_runs(self, chain):
        # A RunCache memoizes whole traces, as for a transducer: the
        # subject fingerprinted into every key is the Dedalus program.
        net = line(2)
        prog = DedalusProgram.parse(TC_LOCAL, S2)
        partition = round_robin(chain, net)
        plain = run_distributed(prog, net, partition, max_steps=300)
        cache = RunCache()
        first = run_distributed(
            prog, net, partition, max_steps=300, run_cache=cache
        )
        misses = cache.cache_misses
        second = run_distributed(
            prog, net, partition, max_steps=300, run_cache=cache
        )
        assert cache.cache_hits == 1 and cache.cache_misses == misses
        assert first == second == plain
        swept = sweep_distributed(
            prog, net, [partition], seeds=(0,), max_steps=300,
            run_cache=cache,
        )
        assert swept == [plain]
        assert cache.cache_hits == 2  # same cell as the seed-0 run
        with pytest.raises(TypeError, match="run_cache"):
            run_distributed(prog, net, partition, run_cache="yes")
        with pytest.raises(TypeError, match="run_cache"):
            sweep_distributed(prog, net, [partition], run_cache="yes")
