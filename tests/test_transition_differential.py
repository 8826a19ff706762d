"""``Transducer.transition`` against whole-query evaluation.

A transition answers each group of UCQ¬ rules that read the same
relations from a memo keyed by the extents of those relations, and
runs only the groups whose extents it has not seen, through the
compiled slot-tuple kernels.  The reference here is the definition
(Section 2.1): every role query evaluated whole on ``state ∪ received``
with the nested-loop engine, then the update formula.  Transducers come
from the generators of ``test_static_differential`` with the message
relation ``T``, so rules read messages positively and negated; extra
literals add constants, repeated variables and an unbound equality, and
some roles are FO, Python or empty queries.  A second generator aims
at the memo: negated memory atoms, rules joining state and message
relations, active-domain rules and roles that read the same relations,
walked through chains of transitions so that extents recur.  Both draw
copy rules, which a transition answers with the copied extent itself,
and near-copies that must stay rule groups: a permuted head, a
repeated variable, a constant and a projection.

The step tests check that a heartbeat and a single-fact delivery,
which reuse the transducer's received instances, make the same global
transition as the general path for several facts.

The guards below pin what must not change: nothing is built before the
first transition, and a used transducer and its fingerprint pickle as
a fresh one.  They also pin the pickled size of run results.
"""

import os
import pickle
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    build_transducer,
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.core.transducer import copied_relation
from repro.db import Fact, FactMultiset, Instance, instance, schema
from repro.db.columnar import HAVE_NUMPY
from repro.lang import FOQuery, PythonQuery
from repro.lang.parser import parse_rule
from repro.lang.ucq import RuleGroup
from repro.net import (
    Configuration,
    FaultPlan,
    GlobalTransition,
    Step,
    WorkingConfiguration,
    apply_step,
    general_transition,
    initial_configuration,
    line,
    run_fifo_rounds,
    run_round_robin_batch,
    run_witness_guided,
)
from repro.net.partition import random_partition
from repro.net.run import run_fair
from repro.net.runcache import RunCache, transducer_fingerprint

from test_net_config import read_side, recomputed
from test_static_differential import fo_formulas, ucq_rules

NODES = frozenset({"a", "b"})
VALUES = st.integers(min_value=1, max_value=3)
#: Literals the static generators do not draw: constants, a repeated
#: variable, and ``z = w`` with both sides unbound (ranges over adom).
EXTRA = ["S(x, 1)", "S(x, x)", "x = 2", "T(2)", "not T(3)", "z = w", "y = z"]
#: Whole unary bodies: copies of the message relation T and the memory
#: relation Ans, and near-copies (a projection, a repeated variable, a
#: constant) that must stay rule groups.
UNARY_COPIES = ["T(x)", "Ans(x)", "S(x, y)", "S(x, x)", "S(x, 1)"]
#: Bodies of the binary memory relation P: copies of S and of P, and
#: near-copies (permuted heads, a join).
PAIR_BODIES = ["S(x, y)", "P(x, y)", "S(y, x)", "P(y, x)", "S(x, y), not P(x, y)",
               "P(x, z), S(z, y)"]


def answer_count(instance: Instance):
    """A Python role: one row while at most one message is received."""
    return [()] if len(instance.relation("T")) <= 1 else []


@st.composite
def rule_texts(draw):
    """``ucq_rules`` with some :data:`EXTRA` literals appended per rule,
    and up to two whole :data:`UNARY_COPIES` bodies."""
    lines = []
    for rule in draw(ucq_rules()).splitlines():
        extra = draw(st.lists(st.sampled_from(EXTRA), max_size=2))
        lines.append(rule[:-1] + "".join(f", {lit}" for lit in extra) + ".")
    for body in draw(st.lists(st.sampled_from(UNARY_COPIES), max_size=2)):
        lines.append(f"Ans(x) :- {body}.")
    return lines


def pair_rules(draw) -> str:
    """Rules inserting into P, and sometimes deleting from it, with
    bodies from :data:`PAIR_BODIES`."""
    heads = ["insert P(x, y)"] + (["delete P(x, y)"] if draw(st.booleans()) else [])
    return "\n".join(
        f"{head} :- {body}."
        for head in heads
        for body in draw(st.lists(st.sampled_from(PAIR_BODIES), min_size=1, max_size=3))
    )


#: The schema of both generators: inputs S/2, message T/1, memory
#: Ans/1, Flag/0 and P/2.
SCHEMA = {"inputs": {"S": 2}, "messages": {"T": 1}, "memory": {"Ans": 1, "Flag": 0, "P": 2}}


@st.composite
def transducers(draw):
    """Over :data:`SCHEMA`, output arity 1."""
    roles = {
        "send T(x)": draw(rule_texts()),
        "insert Ans(x)": draw(rule_texts()),
        "out(x)": draw(rule_texts()),
    }
    if draw(st.booleans()):
        roles["delete Ans(x)"] = draw(rule_texts())
    text = "\n".join(
        f"{head} :- {rule.split(':-', 1)[1].strip()}"
        for head, rules in roles.items()
        for rule in rules
    ) + "\n" + pair_rules(draw)
    combined = build_transducer(**SCHEMA, output_arity=1).schema.combined
    insert = {}
    delete = {}
    if draw(st.booleans()):
        insert["Flag"] = FOQuery.parse(draw(fo_formulas()), "", combined)
    if draw(st.booleans()):
        delete["Flag"] = PythonQuery(answer_count, 0, combined, reads=["T"])
    return build_transducer(
        **SCHEMA, output_arity=1, rules=text, insert=insert, delete=delete,
    )


@st.composite
def states(draw, transducer):
    pairs = draw(st.lists(st.tuples(VALUES, VALUES), max_size=5))
    local = Instance.from_relations(schema(S=2), {"S": pairs})
    state = transducer.make_state(local, "a", NODES)
    state = state.set_relation("Ans", draw(st.lists(st.tuples(VALUES), max_size=3)))
    state = state.set_relation("P", draw(st.lists(st.tuples(VALUES, VALUES), max_size=3)))
    if draw(st.booleans()):
        state = state.set_relation("Flag", [()])
    return state


@st.composite
def deliveries(draw, transducer):
    """A heartbeat, a single fact or a batch, as received instances."""
    count = draw(st.sampled_from([0, 1, 1, 2, 3]))
    values = draw(st.lists(VALUES, min_size=count, max_size=count, unique=True))
    return Instance(transducer.schema.messages, [Fact("T", (v,)) for v in values])


def reference(transducer, state, received):
    """Section 2.1 literally: each query whole on ``state ∪ received``."""
    current = Instance(transducer.schema.combined, state.facts() | received.facts())
    with mock.patch.dict(os.environ, {"REPRO_ENGINE": "nested"}):
        sent = Instance(transducer.schema.messages, {
            Fact(rel, row)
            for rel, query in transducer.send_queries.items()
            for row in query(current)
        })
        output = frozenset(transducer.output_query(current))
        new_state = state
        for rel in transducer.schema.memory:
            inserted = transducer.insert_queries[rel](current)
            deleted = transducer.delete_queries[rel](current)
            old = state.relation(rel)
            updated = (
                (inserted - deleted)
                | (inserted & deleted & old)
                | (old - (inserted | deleted))
            )
            if updated != old:
                new_state = new_state.set_relation(rel, updated)
    return new_state, sent, output


ENGINES = ["indexed", "nested"] + (["columnar"] if HAVE_NUMPY else [])


class TestTransitionDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_transition_equals_whole_evaluation(self, data):
        transducer = data.draw(transducers())
        engine = data.draw(st.sampled_from(ENGINES))
        # Several states and deliveries per transducer, each state met
        # more than once: its state-side results are reused.
        cases = [
            (state, data.draw(deliveries(transducer)))
            for state in data.draw(st.lists(states(transducer), min_size=1, max_size=3))
            for _ in range(3)
        ]
        for state, received in cases:
            expected = reference(transducer, state, received)
            with mock.patch.dict(os.environ, {"REPRO_ENGINE": engine}):
                local = transducer.transition(state, received)
            assert (local.new_state, local.sent, local.output) == expected


# ---------------------------------------------------------------------------
# The group memo
# ---------------------------------------------------------------------------

#: Rule bodies over S/2 (input), Ans/1 and Flag/0 (memory) and T/1
#: (message), each binding the head variable ``x``.  ``T(x)`` and
#: ``Ans(x)`` are copies; ``T(x)`` shares its relation with the rules
#: joining T, in any role that draws both.
MEMO_BODIES = [
    "S(x, y)",
    "S(x, x)",
    "S(x, 1)",
    "Ans(x)",
    "S(x, y), not Ans(x)",
    "S(x, y), not Flag()",
    "Ans(x), not Ans(y), S(y, x)",
    "T(x)",
    "S(x, y), T(y)",
    "Ans(x), T(x), not S(x, x)",
    "Ans(x), not T(x)",
    "T(x), not Ans(x), not Flag()",
    "S(x, y), z = w",
    "T(x), x = y",
    "Ans(x), x = 2",
]


@st.composite
def memo_transducers(draw):
    """Roles built from :data:`MEMO_BODIES` and, for P, from
    :data:`PAIR_BODIES`; the output query reuses the send query's
    bodies half the time, so two roles read the same relations with
    different heads."""
    def bodies():
        return draw(st.lists(st.sampled_from(MEMO_BODIES), min_size=1, max_size=3))

    send = bodies()
    roles = {
        "send T(x)": send,
        "out(x)": send if draw(st.booleans()) else bodies(),
        "insert Ans(x)": bodies(),
    }
    if draw(st.booleans()):
        roles["delete Ans(x)"] = bodies()
    if draw(st.booleans()):
        roles["insert Flag()"] = bodies()
    text = "\n".join(f"{head} :- {body}." for head, group in roles.items() for body in group)
    text += "\n" + pair_rules(draw)
    return build_transducer(**SCHEMA, output_arity=1, rules=text)


def _result_view(result):
    return (result.output, result.outputs_by_node, result.config,
            result.converged, result.stats.steps)


class TestGroupMemo:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chained_transitions_equal_whole_evaluation(self, data):
        transducer = data.draw(memo_transducers())
        # Each next state is the last transition's result, so the
        # extents a transition leaves alone recur as the same objects
        # and their groups are answered from the memo.
        seen = [data.draw(states(transducer))]
        for _ in range(8):
            state = data.draw(st.sampled_from(seen)) if data.draw(st.booleans()) else seen[-1]
            received = data.draw(deliveries(transducer))
            local = transducer.transition(state, received)
            assert (local.new_state, local.sent, local.output) == reference(
                transducer, state, received
            )
            seen.append(local.new_state)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_warm_transducer_runs_like_fresh_ones(self, data):
        transducer = data.draw(memo_transducers())
        pristine = pickle.dumps(transducer)
        network = line(2)
        inputs = data.draw(st.lists(
            st.lists(st.tuples(VALUES, VALUES), max_size=4), min_size=2, max_size=4
        ))
        for seed, pairs in enumerate(inputs):
            partition = random_partition(
                Instance.from_relations(schema(S=2), {"S": pairs}), network, seed=seed
            )
            warm = run_fair(network, transducer, partition, seed=seed, max_steps=150)
            fresh = run_fair(network, pickle.loads(pristine), partition,
                             seed=seed, max_steps=150)
            assert _result_view(warm) == _result_view(fresh)

    def test_roles_reading_the_same_relations_keep_their_own_answers(self):
        transducer = build_transducer(
            inputs={"S": 2}, messages={"T": 1}, memory={"Ans": 1}, output_arity=1,
            rules="""
                send T(x)     :- S(x, y).
                insert Ans(x) :- S(y, x).
                out(x)        :- S(x, x).
            """,
        )
        state = transducer.make_state(
            instance(schema(S=2), S=[(1, 2), (3, 3)]), "a", NODES
        )
        local = transducer.heartbeat(state)
        assert local.sent.relation("T") == {(1,), (3,)}
        assert local.new_state.relation("Ans") == {(2,), (3,)}
        assert local.output == {(3,)}

    def test_a_group_reruns_only_when_an_extent_it_reads_changes(self, monkeypatch):
        calls = []
        call = RuleGroup.__call__

        def counting(group, instance):
            calls.append(tuple(sorted(group.relations())))
            return call(group, instance)

        monkeypatch.setattr(RuleGroup, "__call__", counting)
        # No rule is a copy, so every role runs as a rule group.
        transducer = build_transducer(
            inputs={"S": 2}, messages={"M": 2}, memory={"R": 2, "T": 2}, output_arity=2,
            rules="""
                send M(x, y)   :- S(x, y), not R(x, y).
                insert R(y, x) :- M(x, y).
                insert T(x, z) :- R(x, y), S(y, z).
                out(x, x)      :- T(x, y).
            """,
        )
        state = transducer.make_state(
            instance(schema(S=2), S=[(1, 2), (2, 3)]), "a", NODES
        )
        transducer.heartbeat(state)
        assert sorted(calls) == [("M",), ("R", "S"), ("R", "S"), ("T",)]
        calls.clear()
        transducer.deliver(state, Fact("M", (3, 4)))
        assert calls == [("M",)]
        calls.clear()
        # Only R differs from the first state: the send and insert T
        # groups read it, insert R and out do not.
        transducer.heartbeat(state.set_relation("R", [(3, 4)]))
        assert calls == [("R", "S"), ("R", "S")]


# ---------------------------------------------------------------------------
# Copy rules
# ---------------------------------------------------------------------------


class TestCopyRules:
    @pytest.mark.parametrize("text, copied", [
        ("H(x, y) :- R(x, y).", "R"),
        ("H() :- F().", "F"),
        ("H(y, x) :- R(x, y).", None),
        ("H(x) :- R(x, x).", None),
        ("H(x, x) :- R(x, x).", None),
        ("H(x) :- R(x, 1).", None),
        ("H(x) :- R(x, y).", None),
        ("H(x, y) :- R(x, y), x != y.", None),
        ("H(x, y) :- R(x, y), R(x, y).", None),
        ("H(x) :- U(x).", None),  # U has arity 2: an ill-formed atom
    ])
    def test_only_exact_copies_read_through(self, text, copied):
        assert copied_relation(parse_rule(text), schema(R=2, F=0, U=2)) == copied

    def test_relay_identity_answers_with_extents_and_runs_no_group(self, monkeypatch):
        def fail(group, instance):
            raise AssertionError(f"{group!r} ran")

        monkeypatch.setattr(RuleGroup, "__call__", fail)
        transducer = relay_identity_transducer()
        state = transducer.make_state(instance(schema(S=1), S=[(1,), (2,)]), "a", NODES)
        local = transducer.heartbeat(state)
        assert local.sent.relation("M") is state.relation("S")
        received = transducer.deliver(state, Fact("M", (3,)))
        assert received.new_state.relation("Rcv") == {(3,)}
        assert received.sent.relation("M") == {(1,), (2,), (3,)}
        later = transducer.heartbeat(received.new_state)
        assert later.output is received.new_state.relation("Rcv")
        network = line(3)
        result = run_fair(network, transducer, random_partition(
            instance(schema(S=1), S=[(1,), (2,), (3,)]), network, seed=0), seed=0)
        assert result.converged and result.output == {(1,), (2,), (3,)}

    @pytest.mark.parametrize("engine", ["indexed"] + (["columnar"] if HAVE_NUMPY else []))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_chained_transitions_with_copies_equal_whole_evaluation(self, engine, data):
        transducer = data.draw(st.one_of(transducers(), memo_transducers()))
        seen = [data.draw(states(transducer))]
        with mock.patch.dict(os.environ, {"REPRO_ENGINE": engine}):
            for _ in range(6):
                state = data.draw(st.sampled_from(seen))
                received = data.draw(deliveries(transducer))
                local = transducer.transition(state, received)
                assert (local.new_state, local.sent, local.output) == reference(
                    transducer, state, received
                )
                seen.append(local.new_state)


# ---------------------------------------------------------------------------
# Heartbeats and deliveries against the general step
# ---------------------------------------------------------------------------


def with_buffer(config, node, buffer):
    return Configuration(config.states, {**config.buffers, node: buffer})


def general_step(network, transducer, config, node, received):
    """A global transition through one path for any number of facts: a
    fresh received instance and a multiset difference."""
    buffer = config.buffer(node)
    taken = FactMultiset(received)
    assert buffer.contains_multiset(taken)
    local = transducer.transition(
        config.state(node), Instance(transducer.schema.messages, set(received))
    )
    updates = {node: buffer.difference(taken)}
    if local.sent.facts():
        for neighbor in network.neighbors(node):
            updates[neighbor] = updates.get(neighbor, config.buffer(neighbor)).union(
                local.sent.facts()
            )
    return local, Configuration(
        {**config.states, node: local.new_state}, {**config.buffers, **updates}
    )


class TestStepFastPaths:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_heartbeat_and_delivery_equal_the_general_step(self, data):
        transducer = data.draw(st.one_of(transducers(), memo_transducers()))
        # The reference runs on a clone, so it shares no cache with
        # the transducer under test.
        clone = pickle.loads(pickle.dumps(transducer))
        network = line(3)
        pairs = data.draw(st.lists(st.tuples(VALUES, VALUES), max_size=4))
        config = initial_configuration(network, transducer, random_partition(
            Instance.from_relations(schema(S=2), {"S": pairs}), network, seed=0
        ))
        node = data.draw(st.sampled_from(network.sorted_nodes()))
        buffered = data.draw(st.lists(VALUES, max_size=4))
        config = with_buffer(config, node, FactMultiset(Fact("T", (v,)) for v in buffered))
        for received in [()] + [(f,) for f in config.buffer(node).distinct()]:
            step = general_transition(network, transducer, config, node, received)
            local, after = general_step(network, clone, config, node, received)
            assert step.after == after
            assert step.local == local
            assert step.sent_facts == local.sent.facts()
            assert step.kind == ("delivery" if received else "heartbeat")

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_deliver_equals_the_transition_on_its_received_instance(self, data):
        transducer = data.draw(st.one_of(transducers(), memo_transducers()))
        clone = pickle.loads(pickle.dumps(transducer))
        state = data.draw(states(transducer))
        values = data.draw(st.lists(VALUES, min_size=1, max_size=4))
        # The first delivery of each fact misses on a fresh transducer;
        # the later ones hit a cache that transition() or an earlier
        # delivery warmed, and walk on through the new states.
        for v in values + values:
            f = Fact("T", (v,))
            received = Instance(transducer.schema.messages, [f])
            expected = clone.transition(state, received)
            if data.draw(st.booleans()):
                assert transducer.transition(state, received) == expected
            local = transducer.deliver(state, f)
            assert local == expected
            assert transducer.deliver(state, f) is local
            if data.draw(st.booleans()):
                state = local.new_state

    def test_absent_facts_raise(self):
        transducer = transitive_closure_transducer()
        network = line(2)
        config = initial_configuration(network, transducer, random_partition(
            CHAIN, network, seed=0
        ))
        node = network.sorted_nodes()[0]
        config = with_buffer(config, node, FactMultiset([Fact("M", (1, 2))]))
        with pytest.raises(ValueError):
            general_transition(network, transducer, config, node, (Fact("M", (2, 1)),))
        with pytest.raises(ValueError):
            general_transition(network, transducer, config, node, (Fact("M", (1, 2)),) * 2)
        assert general_transition(
            network, transducer, config, node, (Fact("M", (1, 2)),)
        ).after.buffer(node) == FactMultiset()


# ---------------------------------------------------------------------------
# The run loop: one working configuration, snapshots only where observed
# ---------------------------------------------------------------------------

#: Every scheduler shape, bounded: generated transducers may never converge.
RUNNERS = {
    "fair": lambda net, t, p, seed, **kw: run_fair(net, t, p, seed=seed, max_steps=200, **kw),
    "fifo": lambda net, t, p, seed, **kw: run_fifo_rounds(net, t, p, max_rounds=12, **kw),
    "round-robin": lambda net, t, p, seed, **kw: run_round_robin_batch(
        net, t, p, max_rounds=12, batch_delivery=False, **kw),
    "witness": lambda net, t, p, seed, **kw: run_witness_guided(net, t, p, max_rounds=12, **kw),
}
LOSSY = FaultPlan(seed=3, loss=0.2, duplication=0.2, delay=0.2, crash=0.05,
                  partition_rate=0.05, retain_state=False)


@st.composite
def run_cases(draw):
    transducer = draw(st.one_of(transducers(), memo_transducers()))
    network = line(3)
    pairs = draw(st.lists(st.tuples(VALUES, VALUES), max_size=4))
    partition = random_partition(
        Instance.from_relations(schema(S=2), {"S": pairs}), network,
        seed=draw(st.integers(0, 5)),
    )
    return transducer, network, partition, draw(st.sampled_from(sorted(RUNNERS)))


def _fields(result):
    return (result.config, result.output, result.outputs_by_node, result.converged,
            result.stats, result.quiescence_step, result.scheduler)


class TestRunLoop:
    @settings(max_examples=25, deadline=None)
    @given(run_cases(), st.integers(0, 50), st.booleans())
    def test_traced_and_untraced_runs_agree(self, case, seed, faulty):
        transducer, network, partition, runner = case
        faults = LOSSY if faulty else None
        plain = RUNNERS[runner](network, transducer, partition, seed, faults=faults)
        traced = RUNNERS[runner](network, transducer, partition, seed, faults=faults,
                                 keep_trace=True)
        assert _fields(traced) == _fields(plain)
        assert plain.trace == []
        assert len([t for t in traced.trace if isinstance(t, GlobalTransition)]) == (
            traced.stats.steps
        )

    @settings(max_examples=25, deadline=None)
    @given(run_cases(), st.integers(0, 50))
    def test_traces_chain_and_each_step_equals_the_reference(self, case, seed):
        transducer, network, partition, runner = case
        clone = pickle.loads(pickle.dumps(transducer))
        result = RUNNERS[runner](network, transducer, partition, seed, keep_trace=True)
        befores = [initial_configuration(network, transducer, partition)]
        befores += [t.after for t in result.trace]
        assert befores[-1] == result.config
        for t, before in zip(result.trace, befores):
            assert t.before == before
        for a, b in zip(result.trace, result.trace[1:]):
            assert a.after is b.before
        trace = result.trace
        for t in trace:
            local, after = general_step(network, clone, t.before, t.node, t.received)
            assert t.after == after
            assert (t.local.new_state, t.output, t.sent_facts) == (
                local.new_state, local.output, local.sent.facts()
            )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_general_transition_equals_a_working_step(self, data):
        transducer, network, partition, _ = data.draw(run_cases())
        work = WorkingConfiguration(initial_configuration(network, transducer, partition))
        for _ in range(data.draw(st.integers(1, 12))):
            node = data.draw(st.sampled_from(network.sorted_nodes()))
            buffered = list(work.buffer(node))
            received = tuple(data.draw(st.lists(
                st.sampled_from(buffered), max_size=3, unique_by=id
            ))) if buffered and data.draw(st.booleans()) else ()
            before = work.snapshot()
            expected = general_transition(network, transducer, before, node, received)
            local = apply_step(work, network, transducer, node, received)
            assert local == expected.local
            assert work.snapshot() == expected.after
            assert read_side(work) == read_side(recomputed(work))

    def test_an_untraced_run_builds_no_per_step_values(self, monkeypatch):
        from repro.net import config as config_module, run as run_module

        built = {"transitions": 0, "configurations": 0, "multisets": 0}

        def counting(name, make):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(run_module, "GlobalTransition",
                            counting("transitions", GlobalTransition))
        monkeypatch.setattr(config_module, "_configuration",
                            counting("configurations", config_module._configuration))
        monkeypatch.setattr(config_module, "_from_counts",
                            counting("multisets", config_module._from_counts))
        for name in ("add", "union", "remove", "difference"):
            monkeypatch.setattr(FactMultiset, name, None)
        network = line(3)
        result = run_fair(network, transitive_closure_transducer(),
                          random_partition(CHAIN, network, seed=1), seed=1)
        assert result.converged and result.stats.steps > 40
        # The initial configuration and the final snapshot only: two
        # configurations, one multiset per node whose buffer changed.
        assert built == {"transitions": 0, "configurations": 2, "multisets": 3}
        traced = run_fair(network, transitive_closure_transducer(),
                          random_partition(CHAIN, network, seed=1), seed=1, keep_trace=True)
        assert built["transitions"] == traced.stats.steps

    @pytest.mark.parametrize("runner", ["fair", "fifo", "witness", "faulty", "crashy"])
    def test_a_step_is_built_only_for_a_scheduler_that_reads_it(self, runner, monkeypatch):
        from repro.net import run as run_module

        built = []

        def counting(*args):
            built.append(args)
            return Step(*args)

        monkeypatch.setattr(run_module, "Step", counting)
        network = line(3)
        partition = random_partition(CHAIN, network, seed=1)
        if runner == "faulty":
            result = run_fair(network, transitive_closure_transducer(), partition,
                              seed=1, faults=FaultPlan(seed=1, loss=0.1))
        elif runner == "crashy":
            # The fault wrapper reads a step only to act on what it sent.
            result = run_fair(network, transitive_closure_transducer(), partition,
                              seed=1, faults=FaultPlan(seed=1, crash=0.05, delay=0.1))
        else:
            result = RUNNERS[runner](network, transitive_closure_transducer(),
                                     partition, seed=1)
        assert result.stats.steps > 40
        assert len(built) == (0 if runner in ("fair", "crashy") else result.stats.steps)


# ---------------------------------------------------------------------------
# Laziness and pickle guards
# ---------------------------------------------------------------------------

CHAIN = instance(schema(S=2), S=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
#: Pickled sizes of the RunResults of ``_chain_runs``: the run cache
#: weighs cells by these sizes.  Sent and output rows of copy rules are
#: the row tuples of the extents they copy, so they pickle once.
RUN_RESULT_BYTES = [1469, 1430, 1497, 1503]
TRACED_RUN_RESULT_BYTES = [19770, 11992, 21622, 20708]
#: The same sizes before a result shared its equal rows.
UNSHARED_RUN_RESULT_BYTES = [2055, 1988, 2091, 2142]
UNSHARED_TRACED_RUN_RESULT_BYTES = [31619, 18368, 35136, 32245]


def _chain_runs(transducer, keep_trace=False):
    network = line(3)
    return [
        run_fair(network, transducer, random_partition(CHAIN, network, seed=seed),
                 seed=seed, keep_trace=keep_trace)
        for seed in range(4)
    ]


def _built_state(transducer) -> set[str]:
    return {"_evaluation_plan"} & set(vars(transducer))


class TestLazyAndPickleStable:
    def test_fresh_transducer_has_built_nothing(self):
        transducer = transitive_closure_transducer()
        assert _built_state(transducer) == set()
        _chain_runs(transducer)
        assert _built_state(transducer) == {"_evaluation_plan"}

    def test_used_transducer_pickles_as_fresh(self):
        used = transitive_closure_transducer()
        results = _chain_runs(used)
        fresh = transitive_closure_transducer()
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert transducer_fingerprint(used) == transducer_fingerprint(fresh)
        clone = pickle.loads(pickle.dumps(used))
        assert _built_state(clone) == set()
        assert [r.output for r in _chain_runs(clone)] == [r.output for r in results]

    def test_run_result_pickle_sizes(self):
        def sizes(results):
            return [len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results]

        plain = sizes(_chain_runs(transitive_closure_transducer()))
        traced = sizes(_chain_runs(transitive_closure_transducer(), keep_trace=True))
        assert plain == RUN_RESULT_BYTES
        assert traced == TRACED_RUN_RESULT_BYTES
        assert all(map(int.__lt__, plain, UNSHARED_RUN_RESULT_BYTES))
        assert all(map(int.__lt__, traced, UNSHARED_TRACED_RUN_RESULT_BYTES))

    def test_run_result_shares_equal_rows(self):
        # Rows are shared in the pickled form, which a run cache weighs
        # and keeps, and which crosses processes and the disk tier.
        cache = RunCache()
        for seed, result in enumerate(_chain_runs(transitive_closure_transducer())):
            cache.record(("chain", seed), result)
            for shared in (pickle.loads(pickle.dumps(result)), cache.get(("chain", seed))):
                canonical = {row: row for row in shared.output}
                rows = [row for extent in shared.outputs_by_node.values() for row in extent]
                rows += [row for state in shared.config.states.values()
                         for row in state.relation("T")]
                assert rows and all(canonical[row] is row for row in rows)

    def test_run_result_shares_its_rows_once(self, monkeypatch):
        from repro.net import run as run_module

        calls = []

        def counting(*args):
            calls.append(args)
            return shared_rows(*args)

        shared_rows = run_module._shared_rows
        monkeypatch.setattr(run_module, "_shared_rows", counting)
        result = _chain_runs(transitive_closure_transducer())[0]
        unshared = result.config
        cache = RunCache()
        cache.record(("chain",), result)
        first = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL) == first
        assert len(calls) == 1 and cache.bytes == len(first) == RUN_RESULT_BYTES[0]
        assert result.config == unshared and result.config is not unshared
        pickle.dumps(pickle.loads(first))
        assert len(calls) == 1
