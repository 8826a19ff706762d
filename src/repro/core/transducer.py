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
them.  Evaluation exploits that purity: the rules that read no message
relation are evaluated once per node state, and only the message rules
per transition (:meth:`Transducer._evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from functools import lru_cache
from typing import NamedTuple

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.schema import SchemaError
from ..lang.ast import Eq, Rule
from ..lang.datalog import _program_constants_rules
from ..lang.engine import engine_override, resolve_engine
from ..lang.query import EmptyQuery, Query
from ..lang.ucq import CompiledRules, RuleGroup, UCQNegQuery, compile_rules
from .schema import TransducerSchema


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
        # every heartbeat and delivery), so memoize them.  Bounded with
        # least-recently-used eviction.
        self._transition_cache: dict[tuple[Instance, Instance], LocalTransition] = {}
        self._transition_cache_limit = 16384
        self._empty_received = Instance.empty(schema.messages)
        self._received_by_fact: dict[Fact, Instance] = {}
        # Cross-run convergence memo (a repro.net.convergence
        # ConvergenceMemo), hung here like the transition cache because
        # its certificates are pure functions of this transducer.  The
        # sweep executor attaches and shares it; None until then.
        self.convergence_memo = None

    def __getstate__(self):
        # The transition caches are pure derived state keyed by objects
        # that dominate the pickle size; ship the queries and schema
        # only and let the unpickled copy rewarm.  The convergence memo
        # *is* shipped: it is the cross-run store workers are seeded
        # with.
        state = dict(self.__dict__)
        state["_transition_cache"] = {}
        state["_received_by_fact"] = {}
        # Built on the first transition-cache miss, never shipped (see
        # _evaluate), so a used transducer pickles as a fresh one.
        state.pop("_evaluation_plan", None)
        state.pop("_state_results", None)
        # A run cache hung here (repro.net.runcache.shared_run_cache)
        # is parent-side lookup state: workers never consult it, and it
        # can dwarf the rest of the pickle.
        state.pop("run_cache", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

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
        cached = self._transition_cache.pop(cache_key, None)
        if cached is not None:
            # Re-insert to refresh recency (dicts keep insertion order).
            self._transition_cache[cache_key] = cached
            return cached
        for rel in received.schema:
            if rel not in self.schema.messages:
                raise SchemaError(f"received non-message relation {rel!r}")
        with engine_override(self.engine):
            results = iter(self._evaluate(state, received))
            # Rebuilt extents (validated, like every sent fact): a
            # query's answer may be an object it shares, such as a
            # relation of the state.
            sent = Instance.from_relations(
                self.schema.messages,
                {rel: list(next(results)) for rel in self.send_queries},
            )
            output = frozenset(next(results))
            new_state = state
            for rel in self.schema.memory:
                inserted = next(results)
                deleted = next(results)
                old = state.relation(rel)
                updated = (
                    (inserted - deleted)
                    | (inserted & deleted & old)
                    | (old - (inserted | deleted))
                )
                if updated != old:
                    new_state = new_state.set_relation(rel, updated)

        result = LocalTransition(
            state=state,
            received=received,
            new_state=new_state,
            sent=sent,
            output=output,
        )
        if len(self._transition_cache) >= self._transition_cache_limit:
            # LRU eviction: drop the stalest entry, not the whole cache.
            self._transition_cache.pop(next(iter(self._transition_cache)))
        self._transition_cache[cache_key] = result
        return result

    def _evaluate(self, state: Instance, received: Instance) -> list[frozenset]:
        """Every query's answer on ``state ∪ received``, in role order:
        the send queries, the output query, then insert and delete per
        memory relation.

        A UCQ¬ query runs as two rule groups (:func:`split_rules`).
        The state rules read no message relation, so they see exactly
        the node state: their answer is computed once per state and
        kept in a bounded LRU keyed by the state.  Only the message
        rules run per transition, on the state's extents plus the
        received ones.  Other queries run whole on the combined
        instance.  The groups and the state results are built on the
        first transition-cache miss and never pickled.
        """
        plan = self.__dict__.get("_evaluation_plan")
        if plan is None:
            plan = self._evaluation_plan = (self.schema.combined, self._role_plans())
            self._state_results: dict[Instance, list] = {}
        combined_schema, roles = plan
        parts = self._state_results.pop(state, None)
        if parts is None:
            parts = [
                frozenset() if group is None else group(state) for _, group, _, _ in roles
            ]
            if len(self._state_results) >= self._transition_cache_limit // 4:
                self._state_results.pop(next(iter(self._state_results)))
        self._state_results[state] = parts
        combined = None
        out = []
        for (whole, _, message_group, heartbeat_silent), part in zip(roles, parts):
            if whole is None:
                rows = part
                if message_group is None or (heartbeat_silent and not received):
                    out.append(rows)
                    continue
            if combined is None:
                # State and message relations are disjoint: merge extents.
                combined = Instance._build(
                    combined_schema, {**state._rels, **received._rels}
                )
            if whole is not None:
                out.append(whole(combined))
                continue
            derived = message_group(combined)
            out.append(rows | derived if derived else rows)
        return out

    def _role_plans(self) -> list:
        """``(whole query, state rules, message rules, heartbeat silent)``
        per role.  A query that is not UCQ¬ runs whole; a UCQ¬ query runs
        as its two rule groups (``None`` when empty), and its message
        rules are skipped on heartbeats when each reads a message
        relation positively; an ``EmptyQuery`` does not run at all."""
        messages = frozenset(self.schema.messages.relation_names())
        queries = [
            *self.send_queries.values(),
            self.output_query,
            *(q for rel in self.schema.memory
              for q in (self.insert_queries[rel], self.delete_queries[rel])),
        ]
        roles = []
        for query in queries:
            if type(query) is EmptyQuery:
                roles.append((None, None, None, True))
            elif isinstance(query, UCQNegQuery):
                split = split_rules(query.rules, messages)
                constants = (
                    _program_constants_rules(query.rules) if split.needs_domain else None
                )
                roles.append((
                    None,
                    RuleGroup(query, split.state, None) if split.state else None,
                    RuleGroup(query, split.message, constants) if split.message else None,
                    split.heartbeat_silent,
                ))
            else:
                roles.append((query, None, None, False))
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
            if len(self._received_by_fact) >= self._transition_cache_limit:
                self._received_by_fact.pop(next(iter(self._received_by_fact)))
            self._received_by_fact[fact] = received
        return self.transition(state, received)

    def __repr__(self) -> str:
        return f"Transducer({self.name!r}, {self.schema!r})"


class RuleSplit(NamedTuple):
    """A UCQ¬ query's rules split by :func:`split_rules`."""

    state: CompiledRules
    message: CompiledRules
    #: Some message rule may read the active domain.
    needs_domain: bool
    #: Every message rule reads a message relation positively, so none
    #: derives anything when nothing is received.
    heartbeat_silent: bool


@lru_cache(maxsize=4096)
def split_rules(rules: tuple[Rule, ...], messages: frozenset[str]) -> RuleSplit:
    """Split UCQ¬ *rules* into state rules and message rules.

    A state rule reads no message relation, positively or negated, and
    every variable of its positive equalities occurs in a positive
    atom, so it never consults the active domain either: on
    ``state ∪ received`` it derives exactly what it derives on the
    state alone.  Every other rule is a message rule.  Memoized per
    rule tuple.
    """
    state: list[Rule] = []
    message: list[Rule] = []
    needs_domain = False
    heartbeat_silent = True
    for rule in rules:
        atoms = rule.positive_body_atoms()
        atom_vars: set = set()
        for atom in atoms:
            atom_vars |= atom.free_vars()
        domain_free = all(
            lit.free_vars() <= atom_vars
            for lit in rule.body
            if lit.positive and isinstance(lit.atom, Eq)
        )
        if domain_free and not rule.body_relations() & messages:
            state.append(rule)
            continue
        message.append(rule)
        needs_domain = needs_domain or not domain_free
        heartbeat_silent = heartbeat_silent and any(
            atom.relation in messages for atom in atoms
        )
    return RuleSplit(
        compile_rules(tuple(state)), compile_rules(tuple(message)),
        needs_domain, heartbeat_silent,
    )
