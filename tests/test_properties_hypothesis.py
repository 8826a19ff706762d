"""Property-based tests (hypothesis) on the core data structures and
semantic invariants the paper's arguments rest on."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    emptiness_transducer,
    first_element_transducer,
    ping_identity_transducer,
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import (
    Fact,
    FactMultiset,
    Instance,
    Permutation,
    schema,
)
from repro.lang import DatalogQuery, FOQuery, check_generic
from repro.lang.datalog import DatalogProgram, naive_fixpoint, seminaive_fixpoint
from repro.net import (
    BatchingError,
    ConvergenceTracker,
    batching_allowed,
    deliver,
    heartbeat,
    initial_configuration,
    is_converged,
    line,
    random_partition,
    ring,
    run_fair,
    run_round_robin_batch,
    star,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

values = st.integers(min_value=0, max_value=4)

s2 = schema(S=2)
s21 = schema(S=2, T=1)


@st.composite
def instances2(draw, max_facts=8):
    """Random instances over S/2 with a tiny domain."""
    pairs = draw(
        st.lists(st.tuples(values, values), max_size=max_facts)
    )
    return Instance(s2, [Fact("S", p) for p in pairs])


@st.composite
def instances21(draw, max_facts=8):
    pairs = draw(st.lists(st.tuples(values, values), max_size=max_facts))
    singles = draw(st.lists(st.tuples(values), max_size=max_facts))
    return Instance(
        s21,
        [Fact("S", p) for p in pairs] + [Fact("T", v) for v in singles],
    )


@st.composite
def fact_multisets(draw):
    facts = draw(st.lists(st.tuples(values), max_size=6))
    return FactMultiset([Fact("M", f) for f in facts])


permutations = st.sampled_from(
    [
        Permutation({}),
        Permutation.swap(0, 1),
        Permutation.swap(2, 3),
        Permutation.cycle([0, 1, 2]),
        Permutation.cycle([0, 1, 2, 3, 4]),
    ]
)


# ---------------------------------------------------------------------------
# Instance algebra laws
# ---------------------------------------------------------------------------


class TestInstanceLaws:
    @given(instances2(), instances2())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(instances2(), instances2(), instances2())
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(instances2())
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(instances2(), instances2())
    def test_difference_disjoint_from_other(self, a, b):
        diff = a.difference(b)
        assert not (diff.facts() & b.facts())

    @given(instances2(), instances2())
    def test_containment_of_union(self, a, b):
        u = a.union(b)
        assert a.issubset(u) and b.issubset(u)

    @given(instances2())
    def test_adom_covers_all_values(self, a):
        adom = a.active_domain()
        for f in a.facts():
            assert all(v in adom for v in f.values)

    @given(instances2(), permutations)
    def test_permutation_preserves_cardinality(self, a, h):
        assert len(a.apply(h)) == len(a)

    @given(instances2(), permutations)
    def test_permutation_invertible(self, a, h):
        assert a.apply(h).apply(h.inverse()) == a


# ---------------------------------------------------------------------------
# Multiset laws (message buffers)
# ---------------------------------------------------------------------------


class TestMultisetLaws:
    @given(fact_multisets(), fact_multisets())
    def test_union_adds_lengths(self, a, b):
        assert len(a.union(b)) == len(a) + len(b)

    @given(fact_multisets(), fact_multisets())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(fact_multisets(), fact_multisets())
    def test_difference_then_union_bounds(self, a, b):
        # (a - b) ⊆ a
        assert a.contains_multiset(a.difference(b))

    @given(fact_multisets())
    def test_remove_then_add_round_trip(self, a):
        for f in a.distinct():
            assert a.remove(f).add(f) == a

    @given(fact_multisets(), fact_multisets())
    def test_containment_consistent_with_counts(self, a, b):
        contains = a.contains_multiset(b)
        counts_ok = all(a.count(f) >= b.count(f) for f in b.distinct())
        assert contains == counts_ok


# ---------------------------------------------------------------------------
# Query semantics invariants
# ---------------------------------------------------------------------------

TC_QUERY = DatalogQuery.parse(
    "T(x, y) :- S(x, y). T(x, y) :- S(x, z), T(z, y).", "T", s2
)
ASYM_QUERY = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", s2)
EXISTS_QUERY = FOQuery.parse("exists y: S(x, y) & T(y)", "x", s21)


class TestQueryInvariants:
    @settings(max_examples=40)
    @given(instances2(), permutations)
    def test_datalog_generic(self, inst, h):
        assert check_generic(TC_QUERY, inst, h)

    @settings(max_examples=40)
    @given(instances2(), permutations)
    def test_fo_generic(self, inst, h):
        assert check_generic(ASYM_QUERY, inst, h)

    @settings(max_examples=40)
    @given(instances21(), permutations)
    def test_fo_exists_generic(self, inst, h):
        assert check_generic(EXISTS_QUERY, inst, h)

    @settings(max_examples=40)
    @given(instances2())
    def test_fo_answers_in_adom(self, inst):
        adom = inst.active_domain()
        for t in ASYM_QUERY(inst):
            assert all(v in adom for v in t)

    @settings(max_examples=40)
    @given(instances2(), instances2())
    def test_datalog_monotone(self, a, b):
        u = a.union(b)
        assert TC_QUERY(a) <= TC_QUERY(u)

    @settings(max_examples=30)
    @given(instances2())
    def test_naive_equals_seminaive(self, inst):
        program = DatalogProgram.parse(
            "T(x, y) :- S(x, y). T(x, y) :- S(x, z), T(z, y).", s2
        )
        assert naive_fixpoint(program, inst) == seminaive_fixpoint(program, inst)

    @settings(max_examples=40)
    @given(instances2())
    def test_tc_is_transitive_and_contains_base(self, inst):
        closure = TC_QUERY(inst)
        assert inst.relation("S") <= closure
        for (a, b) in closure:
            for (c, d) in closure:
                if b == c:
                    assert (a, d) in closure


# ---------------------------------------------------------------------------
# The transducer update formula, property-based
# ---------------------------------------------------------------------------


class TestUpdateFormulaProperty:
    @given(
        st.frozensets(st.tuples(values), max_size=6),
        st.frozensets(st.tuples(values), max_size=6),
        st.frozensets(st.tuples(values), max_size=6),
    )
    def test_reference_semantics_per_tuple(self, old, ins, dele):
        updated = (
            (ins - dele) | (ins & dele & old) | (old - (ins | dele))
        )
        for t in old | ins | dele:
            if t in ins and t in dele:
                assert (t in updated) == (t in old)  # conflict: unchanged
            elif t in ins:
                assert t in updated
            elif t in dele:
                assert t not in updated
            else:
                assert (t in updated) == (t in old)

    @given(
        st.frozensets(st.tuples(values), max_size=6),
        st.frozensets(st.tuples(values), max_size=6),
    )
    def test_inflationary_when_no_deletion(self, old, ins):
        updated = (ins - frozenset()) | (old - ins) | (old & ins)
        assert old <= updated


# ---------------------------------------------------------------------------
# The incremental network runtime (PR 2): convergence tracking and
# batched delivery, property-tested against the reference semantics
# ---------------------------------------------------------------------------

# (constructor, instance) pool: unary-input set transducers and the
# binary transitive-closure flooder, spanning the CALM corners —
# batchable (relay, tc), oblivious non-monotone
# (first_element), and non-oblivious (emptiness, ping).
_UNARY = Instance(schema(S=1), [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
_BINARY = Instance(
    schema(S=2), [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))]
)
RUNTIME_POOL = {
    "relay": (relay_identity_transducer, _UNARY),
    "tc": (transitive_closure_transducer, _BINARY),
    "first_element": (first_element_transducer, _UNARY),
    "emptiness": (emptiness_transducer, _UNARY),
    "ping": (ping_identity_transducer, _UNARY),
}
_TRANSDUCERS = {name: make() for name, (make, _) in RUNTIME_POOL.items()}
_NETWORKS = [line(2), line(3), ring(3), star(4)]


@st.composite
def schedule_prefixes(draw):
    """A (transducer, network, partition, schedule seed, length) case."""
    name = draw(st.sampled_from(sorted(RUNTIME_POOL)))
    network = draw(st.sampled_from(_NETWORKS))
    part_seed = draw(st.integers(0, 10))
    seed = draw(st.integers(0, 1_000))
    steps = draw(st.integers(0, 20))
    _, instance = RUNTIME_POOL[name]
    partition = random_partition(instance, network, part_seed)
    return name, network, partition, seed, steps


def _fair_walk(network, transducer, partition, seed, steps):
    """Replay run_fair's schedule shape, yielding each configuration."""
    rng = random.Random(seed)
    nodes = network.sorted_nodes()
    config = initial_configuration(network, transducer, partition)
    produced: set = set()
    yield config, frozenset(produced), None
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
        yield config, frozenset(produced), transition


class TestIncrementalConvergenceEquality:
    """The tracker's verdicts equal the exact from-scratch test, at
    every prefix of a random schedule (the tracker is stateful — the
    walk exercises witness caching, memoized summaries and the
    version-keyed verdict replay)."""

    @settings(max_examples=30, deadline=None)
    @given(schedule_prefixes())
    def test_incremental_equals_exact_along_prefix(self, case):
        name, network, partition, seed, steps = case
        transducer = _TRANSDUCERS[name]
        tracker = ConvergenceTracker(network, transducer)
        for config, produced, transition in _fair_walk(
            network, transducer, partition, seed, steps
        ):
            assert tracker.check(config, produced) == is_converged(
                network, transducer, config, produced
            )

    @settings(max_examples=15, deadline=None)
    @given(schedule_prefixes())
    def test_cold_tracker_agrees_at_final_prefix_config(self, case):
        name, network, partition, seed, steps = case
        transducer = _TRANSDUCERS[name]
        final = None
        for final in _fair_walk(network, transducer, partition, seed, steps):
            pass
        config, produced, _ = final
        cold = ConvergenceTracker(network, transducer)
        assert cold.check(config, produced) == is_converged(
            network, transducer, config, produced
        )


class TestBatchedDeliveryInvariance:
    """The CALM schedule-invariance guarantee: for oblivious, monotone,
    inflationary transducers batched-delivery runs produce the same output as the
    one-fact-at-a-time reference runs — and the runtime rejects
    batching for everything else."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["relay", "tc"]),
        st.sampled_from(_NETWORKS),
        st.integers(0, 10),
        st.integers(0, 200),
    )
    def test_batched_output_equals_unbatched(self, name, network, part_seed, seed):
        transducer = _TRANSDUCERS[name]
        assert batching_allowed(transducer)
        _, instance = RUNTIME_POOL[name]
        partition = random_partition(instance, network, part_seed)
        unbatched = run_fair(network, transducer, partition, seed=seed)
        batched = run_fair(
            network, transducer, partition, seed=seed, batch_delivery=True
        )
        round_based = run_round_robin_batch(network, transducer, partition)
        assert unbatched.converged and batched.converged and round_based.converged
        assert batched.output == unbatched.output == round_based.output

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["first_element", "emptiness", "ping"]),
        st.sampled_from(_NETWORKS),
        st.integers(0, 10),
    )
    def test_batching_rejected_for_non_oblivious_or_non_monotone(
        self, name, network, part_seed
    ):
        transducer = _TRANSDUCERS[name]
        assert not batching_allowed(transducer)
        _, instance = RUNTIME_POOL[name]
        partition = random_partition(instance, network, part_seed)
        with pytest.raises(BatchingError):
            run_fair(network, transducer, partition, batch_delivery=True)
        with pytest.raises(BatchingError):
            run_round_robin_batch(network, transducer, partition)
