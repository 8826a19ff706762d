"""Abstract relational transducers and their transition semantics.

Section 2.1: a transducer over a schema (Sin, Ssys, Smsg, Smem, k) is a
collection of queries — one send query per message relation, one insert
and one delete query per memory relation, and one output query — all
over the combined schema.

The transition relation is implemented *literally*, including the
"intimidating update formula" resolving conflicting inserts/deletes:

    J(R) = (Qins \\ Qdel) ∪ (Qins ∩ Qdel ∩ I(R)) ∪ (I(R) \\ (Qins ∪ Qdel))

i.e. a tuple both inserted and deleted keeps its previous status.
Transitions are deterministic (a pure function of state and received
messages) and outputs can never be retracted — the runtime accumulates
them.  Evaluation exploits that purity twice: whole transitions are
memoized per ``(state, received)`` pair, and the answer of each group
of UCQ¬ rules that read the same relations per extents of those
relations, so a step re-derives only what it changed
(:meth:`Transducer._evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from functools import lru_cache

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.schema import SchemaError
from ..lang.ast import Eq, Rule
from ..lang.datalog import _program_constants_rules
from ..lang.engine import engine_override, resolve_engine
from ..lang.query import EmptyQuery, Query
from ..lang.ucq import CompiledRules, RuleGroup, UCQNegQuery, compile_rules
from ..memo import Memo
from .schema import TransducerSchema

_EMPTY: frozenset = frozenset()

MEMO_LIMIT = 16_384  # entries of each of a transducer's four memos


@dataclass(frozen=True)
class LocalTransition:
    """One local transducer transition ``I, Ircv --Jout--> J, Jsnd``.

    *new_state* is the state J; *sent* is the message instance Jsnd;
    *output* is the k-ary relation Jout (a set of tuples, not facts).
    """

    state: Instance
    received: Instance
    new_state: Instance
    sent: Instance
    output: frozenset

    @property
    def is_noop(self) -> bool:
        """True when the transition changes no state, sends and outputs nothing.

        (Used by quiescence detection; note a transition with output that
        has already been produced earlier is *not* captured here — the
        runtime compares against accumulated output.)
        """
        return (
            self.new_state == self.state
            and not self.sent.facts()
            and not self.output
        )


class Transducer:
    """An abstract relational transducer: a collection of queries.

    Parameters
    ----------
    schema:
        The transducer schema.
    send:
        Mapping from message relation name to its send query.  Missing
        relations default to the empty query (never sent).
    insert, delete:
        Mappings from memory relation name to insert/delete queries.
        Missing relations default to the empty query.
    output:
        The output query ``Qout`` (defaults to the empty query of the
        output arity).
    name:
        Optional human-readable name used in reprs and reports.
    engine:
        Optional evaluation-engine override applied to every local
        query during :meth:`transition` (see
        :mod:`repro.lang.engine`).  ``None`` defers to the session
        default, letting ``REPRO_ENGINE`` steer whole networks.
    """

    def __init__(
        self,
        schema: TransducerSchema,
        send: Mapping[str, Query] | None = None,
        insert: Mapping[str, Query] | None = None,
        delete: Mapping[str, Query] | None = None,
        output: Query | None = None,
        name: str | None = None,
        engine: str | None = None,
    ):
        if engine is not None:
            resolve_engine(engine)  # validate eagerly; applied per transition
        self.engine = engine
        self.schema = schema
        combined = schema.combined
        send = dict(send or {})
        insert = dict(insert or {})
        delete = dict(delete or {})

        def check(query: Query, arity: int, role: str) -> Query:
            if query.arity != arity:
                raise SchemaError(
                    f"{role} query has arity {query.arity}, expected {arity}"
                )
            for rel in query.relations():
                if rel not in combined:
                    raise SchemaError(
                        f"{role} query reads {rel!r} outside the combined schema"
                    )
            return query

        for rel in send:
            if rel not in schema.messages:
                raise SchemaError(f"send query for non-message relation {rel!r}")
        for mapping, label in ((insert, "insert"), (delete, "delete")):
            for rel in mapping:
                if rel not in schema.memory:
                    raise SchemaError(f"{label} query for non-memory relation {rel!r}")

        self.send_queries = {
            rel: check(
                send.get(rel, EmptyQuery(schema.messages[rel], combined)),
                schema.messages[rel],
                f"send[{rel}]",
            )
            for rel in schema.messages
        }
        self.insert_queries = {
            rel: check(
                insert.get(rel, EmptyQuery(schema.memory[rel], combined)),
                schema.memory[rel],
                f"insert[{rel}]",
            )
            for rel in schema.memory
        }
        self.delete_queries = {
            rel: check(
                delete.get(rel, EmptyQuery(schema.memory[rel], combined)),
                schema.memory[rel],
                f"delete[{rel}]",
            )
            for rel in schema.memory
        }
        self.output_query = check(
            output
            if output is not None
            else EmptyQuery(schema.output_arity, combined),
            schema.output_arity,
            "output",
        )
        self.name = name or "transducer"
        # Transitions are pure functions of (state, received); the runtime
        # replays the same pairs constantly (convergence checks re-simulate
        # every heartbeat and delivery), so memoize them, and the group
        # answers and sent instances of a miss (see _evaluate).
        self._transition_cache = Memo(MEMO_LIMIT)
        self._group_memo = Memo(MEMO_LIMIT)
        self._empty_received = Instance.empty(schema.messages)
        self._received_by_fact = Memo(MEMO_LIMIT)
        # The convergence tracker's node summaries (repro.net.convergence):
        # (state, incoming facts) -> quiet with outputs O and sends J, or
        # refuted.  Pure functions of this transducer, so every run of
        # it shares them.
        self.summary_memo = Memo(MEMO_LIMIT)

    def __getstate__(self):
        # The memos pickle empty and the evaluation plan is rebuilt, so
        # a used transducer pickles as a fresh one.
        state = dict(self.__dict__)
        state.pop("_evaluation_plan", None)
        return state

    # -- query plumbing ------------------------------------------------------

    def all_queries(self) -> list[tuple[str, Query]]:
        """All queries with role labels, for property checks and reports."""
        out: list[tuple[str, Query]] = []
        for rel, q in sorted(self.send_queries.items()):
            out.append((f"send[{rel}]", q))
        for rel, q in sorted(self.insert_queries.items()):
            out.append((f"insert[{rel}]", q))
        for rel, q in sorted(self.delete_queries.items()):
            out.append((f"delete[{rel}]", q))
        out.append(("output", self.output_query))
        return out

    # -- state construction ----------------------------------------------------

    def make_state(
        self,
        local_input: Instance,
        node: object,
        all_nodes: frozenset,
    ) -> Instance:
        """Build a legal state: input fragment + Id = {node} + All = nodes + empty memory.

        This enforces the configuration conditions of Section 3:
        ``I(Id) = {v}`` and ``I(All) = V``.
        """
        for rel in local_input.schema:
            if rel not in self.schema.inputs:
                raise SchemaError(
                    f"local input has relation {rel!r} outside the input schema"
                )
        state = Instance.empty(self.schema.state)
        state = state.with_facts(local_input.facts())
        state = state.set_relation("Id", [(node,)])
        state = state.set_relation("All", [(v,) for v in all_nodes])
        return state

    def check_state(self, state: Instance) -> None:
        """Validate that *state* instantiates Sin ∪ Ssys ∪ Smem."""
        if state.schema != self.schema.state:
            raise SchemaError(
                f"state schema {state.schema} differs from {self.schema.state}"
            )
        if len(state.relation("Id")) != 1:
            raise SchemaError("state must have exactly one Id fact")

    # -- the transition function ---------------------------------------------------

    def transition(self, state: Instance, received: Instance) -> LocalTransition:
        """The unique transition from *state* reading *received* messages.

        *received* must be an instance of (a subschema of) Smsg.  Raises
        :class:`~repro.lang.query.QueryUndefined` when some local query
        is undefined on I' — then no transition exists (Section 2.1:
        "every query of Π is defined on I'").

        Results are memoized per ``(state, received)`` pair: the
        transition is a deterministic pure function of its arguments,
        and the runtime (especially the exact convergence test) replays
        the same pairs many times.
        """
        cache_key = (state, received)
        cached = self._transition_cache.get(cache_key)
        if cached is not None:
            return cached
        for rel in received.schema:
            if rel not in self.schema.messages:
                raise SchemaError(f"received non-message relation {rel!r}")
        if self.engine is None:
            result = self._compute(state, received)
        else:
            with engine_override(self.engine):
                result = self._compute(state, received)
        self._transition_cache.put(cache_key, result)
        return result

    def _compute(self, state: Instance, received: Instance) -> LocalTransition:
        """The transition, evaluated (a transition-cache miss)."""
        results = iter(self._evaluate(state, received))
        # Equal send answers give one sent instance, kept in the group
        # memo: its facts are then the same objects in every buffer
        # they reach, and dict lookups match them by identity.  Its
        # rows are validated once, like every sent fact.
        answers = tuple(next(results) for _ in self.send_queries)
        sent_key = ("sent", *answers)
        sent = self._group_memo.get(sent_key)
        if sent is None:
            sent = Instance.from_relations(
                self.schema.messages, dict(zip(self.send_queries, answers))
            )
            self._group_memo.put(sent_key, sent)
        output = frozenset(next(results))
        # The update formula per memory relation, as a frozenset (old
        # is the left operand).  With nothing deleted it is old ∪ Qins,
        # which is old itself when Qins adds no row.
        rels = state._rels
        updates = {}
        for rel in self.schema.memory:
            inserted = next(results)
            deleted = next(results)
            old = rels.get(rel, _EMPTY)
            if deleted:
                updated = (
                    (old - (inserted | deleted))
                    | (inserted - deleted)
                    | (inserted & deleted & old)
                )
            elif inserted <= old:
                continue
            else:
                updated = old | inserted
            if updated != old:
                updates[rel] = updated
        return LocalTransition(
            state=state,
            received=received,
            new_state=state.set_relations(updates) if updates else state,
            sent=sent,
            output=output,
        )

    def _evaluate(self, state: Instance, received: Instance) -> list[frozenset]:
        """Every query's answer on ``state ∪ received``, in role order:
        the send queries, the output query, then insert and delete per
        memory relation.

        A UCQ¬ query runs as rule groups (:func:`group_rules`).  The
        rules of a group read the same relations, so its answer is a
        function of their extents: it is kept in one memo keyed by the
        group and those extents, shared by all groups.  Extents
        are frozensets that cache their hash, and an unchanged extent
        is the same object in the next state, so a lookup costs a few
        hashes.  Rules that may read the active domain, and queries
        that are not UCQ¬, run per transition on the combined
        instance; an ``EmptyQuery`` does not run.  The groups are
        built on the first transition-cache miss and never pickled.
        """
        plan = self.__dict__.get("_evaluation_plan")
        if plan is None:
            plan = self._evaluation_plan = (self.schema.combined, self._role_plans())
        combined_schema, roles = plan
        memo = self._group_memo
        # State and message relations are disjoint: merge the extents.
        # Absent relations are empty (instances keep no empty extent).
        rels = {**state._rels, **received._rels}
        combined = None
        out = []
        for groups, direct in roles:
            rows = _EMPTY
            for group, reads in groups:
                key = (group, *map(rels.get, reads))
                answer = memo.get(key)
                if answer is None:
                    if combined is None:
                        combined = Instance._build(combined_schema, rels)
                    answer = group(combined)
                    memo.put(key, answer)
                if answer:
                    rows = rows | answer if rows else answer
            if direct is not None:
                if combined is None:
                    combined = Instance._build(combined_schema, rels)
                answer = direct(combined)
                rows = rows | answer if rows else answer
            out.append(rows)
        return out

    def _role_plans(self) -> list:
        """``(memoized groups, direct query)`` per role.

        A UCQ¬ query runs as its :func:`group_rules` groups, each paired
        with the relations it reads; its active-domain rules, if any,
        form the direct query, run on the combined instance.  Any other
        query is run directly, except that an ``EmptyQuery`` does not
        run at all.
        """
        queries = [
            *self.send_queries.values(),
            self.output_query,
            *(q for rel in self.schema.memory
              for q in (self.insert_queries[rel], self.delete_queries[rel])),
        ]
        roles = []
        for query in queries:
            if type(query) is EmptyQuery:
                roles.append(((), None))
            elif isinstance(query, UCQNegQuery):
                groups, domain = group_rules(query.rules)
                roles.append((
                    tuple((RuleGroup(query, compiled, None), reads)
                          for reads, compiled in groups),
                    RuleGroup(query, domain, _program_constants_rules(query.rules))
                    if domain else None,
                ))
            else:
                roles.append(((), query))
        return roles

    def heartbeat(self, state: Instance) -> LocalTransition:
        """A transition reading no messages (the local half of a heartbeat)."""
        return self.transition(state, self._empty_received)

    def deliver(self, state: Instance, fact: Fact) -> LocalTransition:
        """A transition reading the single message fact *fact*."""
        received = self._received_by_fact.get(fact)
        if received is None:
            received = Instance(
                self.schema.messages.restrict([fact.relation]), (fact,)
            ).expand_schema(self.schema.messages)
            self._received_by_fact.put(fact, received)
        return self.transition(state, received)

    def __repr__(self) -> str:
        return f"Transducer({self.name!r}, {self.schema!r})"


@lru_cache(maxsize=4096)
def group_rules(
    rules: tuple[Rule, ...],
) -> tuple[tuple[tuple[tuple[str, ...], CompiledRules], ...], CompiledRules]:
    """UCQ¬ *rules* grouped by the relations they read.

    Returns ``(groups, domain)``.  Each group pairs a sorted tuple of
    relation names, negated ones included, with the rules that read
    exactly those relations; such a rule derives the same rows from any
    instance with the same extents of them.  *domain* holds the rules
    that may read the active domain instead: a positive equality with
    a variable in no positive atom (``x = y`` ranges over adom).
    Memoized per rule tuple, like ``plan_for``.
    """
    by_reads: dict[tuple[str, ...], list[Rule]] = {}
    domain: list[Rule] = []
    for rule in rules:
        atom_vars: set = set()
        for atom in rule.positive_body_atoms():
            atom_vars |= atom.free_vars()
        if any(
            lit.positive and isinstance(lit.atom, Eq) and not lit.free_vars() <= atom_vars
            for lit in rule.body
        ):
            domain.append(rule)
        else:
            by_reads.setdefault(tuple(sorted(rule.body_relations())), []).append(rule)
    groups = tuple(
        (reads, compile_rules(tuple(group))) for reads, group in by_reads.items()
    )
    return groups, compile_rules(tuple(domain))
