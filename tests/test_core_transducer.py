"""The transducer transition semantics (Section 2.1), pinned precisely."""

import pytest

from repro.core import Transducer, TransducerSchema
from repro.db import Instance, fact, instance, schema
from repro.lang import EmptyQuery, FOQuery, PythonQuery
from repro.lang.combinators import ConstantQuery


@pytest.fixture
def tschema():
    return TransducerSchema(schema(S=1), schema(M=1), schema(R=1), 1)


@pytest.fixture
def combined(tschema):
    return tschema.combined


def make(tschema, combined, **kwargs):
    return Transducer(tschema, **kwargs)


class TestConstruction:
    def test_defaults_to_empty_queries(self, tschema):
        t = Transducer(tschema)
        assert all(
            q.is_empty_syntactic() for q in t.delete_queries.values()
        )
        assert t.output_query.is_empty_syntactic()

    def test_send_for_unknown_message_rejected(self, tschema, combined):
        with pytest.raises(Exception):
            Transducer(tschema, send={"Nope": EmptyQuery(1, combined)})

    def test_arity_mismatch_rejected(self, tschema, combined):
        with pytest.raises(Exception):
            Transducer(tschema, send={"M": EmptyQuery(2, combined)})

    def test_query_reading_outside_combined_rejected(self, tschema):
        foreign = schema(Zap=1)
        with pytest.raises(Exception):
            Transducer(
                tschema, output=FOQuery.parse("Zap(x)", "x", foreign)
            )


class TestMakeState:
    def test_state_shape(self, tschema):
        t = Transducer(tschema)
        local = instance(schema(S=1), S=[(1,)])
        state = t.make_state(local, "v1", frozenset({"v1", "v2"}))
        assert state.relation("Id") == frozenset({("v1",)})
        assert state.relation("All") == frozenset({("v1",), ("v2",)})
        assert state.relation("S") == frozenset({(1,)})
        assert state.relation("R") == frozenset()

    def test_input_outside_schema_rejected(self, tschema):
        t = Transducer(tschema)
        bad = instance(schema(T=1), T=[(1,)])
        with pytest.raises(Exception):
            t.make_state(bad, "v1", frozenset({"v1"}))

    def test_check_state(self, tschema):
        t = Transducer(tschema)
        good = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        t.check_state(good)


class TestTransition:
    def test_deterministic(self, tschema, combined):
        t = Transducer(
            tschema,
            insert={"R": FOQuery.parse("S(x) | M(x)", "x", combined)},
            output=FOQuery.parse("R(x)", "x", combined),
        )
        state = t.make_state(instance(schema(S=1), S=[(1,)]), "v", frozenset({"v"}))
        received = Instance(tschema.messages, [fact("M", 5)])
        first = t.transition(state, received)
        second = t.transition(state, received)
        assert first.new_state == second.new_state
        assert first.sent == second.sent
        assert first.output == second.output

    def test_input_and_system_untouched(self, tschema, combined):
        t = Transducer(
            tschema,
            insert={"R": FOQuery.parse("S(x)", "x", combined)},
        )
        state = t.make_state(instance(schema(S=1), S=[(1,)]), "v", frozenset({"v"}))
        result = t.heartbeat(state)
        assert result.new_state.relation("S") == state.relation("S")
        assert result.new_state.relation("Id") == state.relation("Id")
        assert result.new_state.relation("All") == state.relation("All")

    def test_messages_visible_to_queries(self, tschema, combined):
        t = Transducer(tschema, output=FOQuery.parse("M(x)", "x", combined))
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        result = t.deliver(state, fact("M", 7))
        assert result.output == frozenset({(7,)})

    def test_heartbeat_sees_no_messages(self, tschema, combined):
        t = Transducer(tschema, output=FOQuery.parse("M(x)", "x", combined))
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        assert t.heartbeat(state).output == frozenset()

    def test_send_produces_message_instance(self, tschema, combined):
        t = Transducer(tschema, send={"M": FOQuery.parse("S(x)", "x", combined)})
        state = t.make_state(instance(schema(S=1), S=[(1,), (2,)]), "v", frozenset({"v"}))
        result = t.heartbeat(state)
        assert result.sent.relation("M") == frozenset({(1,), (2,)})

    def test_received_non_message_relation_rejected(self, tschema):
        t = Transducer(tschema)
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        with pytest.raises(Exception):
            t.transition(state, instance(schema(S=1), S=[(1,)]))


class TestUpdateFormula:
    """The conflict-resolving memory update, end to end."""

    def _run(self, tschema, combined, old, ins, dele):
        t = Transducer(
            tschema,
            insert={"R": ConstantQuery(frozenset(ins), 1, combined)},
            delete={"R": ConstantQuery(frozenset(dele), 1, combined)},
        )
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        state = state.set_relation("R", old)
        return t.heartbeat(state).new_state.relation("R")

    def test_plain_insert(self, tschema, combined):
        assert self._run(tschema, combined, [], [(1,)], []) == frozenset({(1,)})

    def test_plain_delete(self, tschema, combined):
        assert self._run(tschema, combined, [(1,)], [], [(1,)]) == frozenset()

    def test_conflict_keeps_present_tuple(self, tschema, combined):
        assert self._run(
            tschema, combined, [(1,)], [(1,)], [(1,)]
        ) == frozenset({(1,)})

    def test_conflict_keeps_absent_tuple_absent(self, tschema, combined):
        assert self._run(tschema, combined, [], [(1,)], [(1,)]) == frozenset()

    def test_untouched_tuples_persist(self, tschema, combined):
        assert self._run(
            tschema, combined, [(9,)], [(1,)], []
        ) == frozenset({(9,), (1,)})

    def test_assignment_idiom(self, tschema, combined):
        """R := Q via insert Q, delete R (the paper's remark)."""
        q_result = frozenset([(5,)])
        t = Transducer(
            tschema,
            insert={"R": ConstantQuery(q_result, 1, combined)},
            delete={"R": FOQuery.parse("R(x)", "x", combined)},
        )
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        state = state.set_relation("R", [(1,), (5,)])
        got = t.heartbeat(state).new_state.relation("R")
        assert got == q_result


def _nested_value(instance):
    # A one-column row whose value is a tuple: not an atomic value.
    return [((1, 2),)]


class TestMemoryRowsValidated:
    """A row a query inserts into memory is checked like any fact,
    also when the transition keeps the rest of the extent as it was."""

    def _transducer(self, tschema, combined):
        return Transducer(
            tschema,
            insert={"R": PythonQuery(_nested_value, 1, combined)},
            output=FOQuery.parse("R(x)", "x", combined),
        )

    def test_transition_rejects_a_non_atomic_row(self, tschema, combined):
        t = self._transducer(tschema, combined)
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        state = state.set_relation("R", [(7,)])
        with pytest.raises(ValueError, match="non-atomic"):
            t.transition(state, Instance.empty(tschema.messages))

    def test_run_rejects_a_non_atomic_row(self, tschema, combined):
        from repro.net import full_replication, line, run_fair

        network = line(2)
        partition = full_replication(instance(schema(S=1), S=[(1,)]), network)
        with pytest.raises(ValueError, match="non-atomic"):
            run_fair(network, self._transducer(tschema, combined), partition, seed=0)


class TestNoopDetection:
    def test_noop(self, tschema):
        t = Transducer(tschema)
        state = t.make_state(Instance.empty(schema(S=1)), "v", frozenset({"v"}))
        assert t.heartbeat(state).is_noop

    def test_sending_is_not_noop(self, tschema, combined):
        t = Transducer(tschema, send={"M": FOQuery.parse("S(x)", "x", combined)})
        state = t.make_state(instance(schema(S=1), S=[(1,)]), "v", frozenset({"v"}))
        assert not t.heartbeat(state).is_noop
