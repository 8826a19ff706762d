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
walked through chains of transitions so that extents recur.

The step tests check that a heartbeat and a single-fact delivery,
which reuse the transducer's received instances, make the same global
transition as the general path for several facts.

The guards below pin what must not change: nothing is built before the
first transition, and a used transducer and its fingerprint pickle as
a fresh one.  They also pin the pickled size of run results.
"""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import build_transducer, transitive_closure_transducer
from repro.db import Fact, FactMultiset, Instance, instance, schema
from repro.db.columnar import HAVE_NUMPY
from repro.lang import FOQuery, PythonQuery
from repro.lang.engine import engine_override
from repro.lang.ucq import RuleGroup
from repro.net import general_transition, initial_configuration, line
from repro.net.partition import random_partition
from repro.net.run import run_fair
from repro.net.runcache import transducer_fingerprint

from test_static_differential import fo_formulas, ucq_rules

NODES = frozenset({"a", "b"})
VALUES = st.integers(min_value=1, max_value=3)
#: Literals the static generators do not draw: constants, a repeated
#: variable, and ``z = w`` with both sides unbound (ranges over adom).
EXTRA = ["S(x, 1)", "S(x, x)", "x = 2", "T(2)", "not T(3)", "z = w", "y = z"]


def answer_count(instance: Instance):
    """A Python role: one row while at most one message is received."""
    return [()] if len(instance.relation("T")) <= 1 else []


@st.composite
def rule_texts(draw):
    """``ucq_rules`` with some :data:`EXTRA` literals appended per rule."""
    lines = []
    for rule in draw(ucq_rules()).splitlines():
        extra = draw(st.lists(st.sampled_from(EXTRA), max_size=2))
        lines.append(rule[:-1] + "".join(f", {lit}" for lit in extra) + ".")
    return lines


@st.composite
def transducers(draw):
    """Inputs S/2, message T/1, memory Ans/1 and Flag/0, output arity 1."""
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
    )
    sch = {"inputs": {"S": 2}, "messages": {"T": 1}, "memory": {"Ans": 1, "Flag": 0}}
    combined = build_transducer(**sch, output_arity=1).schema.combined
    insert = {}
    delete = {}
    if draw(st.booleans()):
        insert["Flag"] = FOQuery.parse(draw(fo_formulas()), "", combined)
    if draw(st.booleans()):
        delete["Flag"] = PythonQuery(answer_count, 0, combined, reads=["T"])
    return build_transducer(
        **sch, output_arity=1, rules=text, insert=insert, delete=delete,
    )


@st.composite
def states(draw, transducer):
    pairs = draw(st.lists(st.tuples(VALUES, VALUES), max_size=5))
    local = Instance.from_relations(schema(S=2), {"S": pairs})
    state = transducer.make_state(local, "a", NODES)
    state = state.set_relation("Ans", draw(st.lists(st.tuples(VALUES), max_size=3)))
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
    with engine_override("nested"):
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


ENGINES = [None, "nested"] + (["columnar"] if HAVE_NUMPY else [])


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
            with engine_override(engine):
                local = transducer.transition(state, received)
            assert (local.new_state, local.sent, local.output) == expected

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the columnar engine needs numpy")
    def test_transducer_engine_override(self):
        transducer = transitive_closure_transducer()
        transducer.engine = "columnar"
        state = transducer.make_state(
            instance(schema(S=2), S=[(1, 2), (2, 3)]), "a", NODES
        )
        for received in (
            Instance.empty(transducer.schema.messages),
            Instance(transducer.schema.messages, [Fact("M", (3, 4))]),
        ):
            local = transducer.transition(state, received)
            assert (local.new_state, local.sent, local.output) == reference(
                transducer, state, received
            )
            state = local.new_state


# ---------------------------------------------------------------------------
# The group memo
# ---------------------------------------------------------------------------

#: Rule bodies over S/2 (input), Ans/1 and Flag/0 (memory) and T/1
#: (message), each binding the head variable ``x``.
MEMO_BODIES = [
    "S(x, y)",
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
    """Roles built from :data:`MEMO_BODIES`; the output query reuses
    the send query's bodies half the time, so two roles read the same
    relations with different heads."""
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
    return build_transducer(
        inputs={"S": 2}, messages={"T": 1}, memory={"Ans": 1, "Flag": 0},
        output_arity=1, rules=text,
    )


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
        transducer = transitive_closure_transducer()
        state = transducer.make_state(
            instance(schema(S=2), S=[(1, 2), (2, 3)]), "a", NODES
        )
        transducer.heartbeat(state)
        # send M :- S, send M :- M, insert R :- M, three insert T
        # groups and out :- T.
        assert len(calls) == 7
        calls.clear()
        transducer.deliver(state, Fact("M", (3, 4)))
        assert sorted(calls) == [("M",), ("M",)]
        calls.clear()
        # Only R differs from the first state.
        transducer.heartbeat(state.set_relation("R", [(3, 4)]))
        assert calls == [("R",)]


# ---------------------------------------------------------------------------
# Heartbeats and deliveries against the general step
# ---------------------------------------------------------------------------


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
    return local, config.replace(node, state=local.new_state).replace_buffers(updates)


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
        config = config.replace(node, buffer=FactMultiset(Fact("T", (v,)) for v in buffered))
        for received in [()] + [(f,) for f in config.buffer(node).distinct()]:
            step = general_transition(network, transducer, config, node, received)
            local, after = general_step(network, clone, config, node, received)
            assert step.after == after
            assert step.local == local
            assert step.sent_facts == local.sent.facts()
            assert step.kind == ("delivery" if received else "heartbeat")

    def test_absent_facts_raise(self):
        transducer = transitive_closure_transducer()
        network = line(2)
        config = initial_configuration(network, transducer, random_partition(
            CHAIN, network, seed=0
        ))
        node = network.sorted_nodes()[0]
        config = config.replace(node, buffer=FactMultiset([Fact("M", (1, 2))]))
        with pytest.raises(ValueError):
            general_transition(network, transducer, config, node, (Fact("M", (2, 1)),))
        with pytest.raises(ValueError):
            general_transition(network, transducer, config, node, (Fact("M", (1, 2)),) * 2)
        assert general_transition(
            network, transducer, config, node, (Fact("M", (1, 2)),)
        ).after.buffer(node) == FactMultiset()


# ---------------------------------------------------------------------------
# Laziness and pickle guards
# ---------------------------------------------------------------------------

CHAIN = instance(schema(S=2), S=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
#: Pickled sizes of the RunResults of ``_chain_runs``: the run cache
#: weighs cells by these sizes.
RUN_RESULT_BYTES = [1509, 1466, 1541, 1535]
TRACED_RUN_RESULT_BYTES = [21766, 13531, 24419, 22643]
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
    return {"_evaluation_plan", "_group_memo"} & set(vars(transducer))


class TestLazyAndPickleStable:
    def test_fresh_transducer_has_built_nothing(self):
        transducer = transitive_closure_transducer()
        assert _built_state(transducer) == set()
        _chain_runs(transducer)
        assert _built_state(transducer) == {"_evaluation_plan", "_group_memo"}

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
        for result in _chain_runs(transitive_closure_transducer()):
            canonical = {row: row for row in result.output}
            rows = [row for extent in result.outputs_by_node.values() for row in extent]
            rows += [row for state in result.config.states.values()
                     for row in state.relation("T")]
            assert rows and all(canonical[row] is row for row in rows)
