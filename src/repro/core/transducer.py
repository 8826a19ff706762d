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
(:meth:`Transducer._evaluate`).  A rule that copies one relation
evaluates to that relation's extent itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from functools import lru_cache

from ..db.fact import Fact
from ..db.instance import Instance, checked_extent
from ..db.schema import DatabaseSchema, SchemaError
from ..db.values import is_atomic
from ..lang.ast import Atom, Eq, Rule, Var
from ..lang.datalog import _program_constants_rules
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

    Local queries evaluate on their own ``engine=`` when they were
    built with one, else on the session default, so ``REPRO_ENGINE``
    steers whole networks (see :mod:`repro.lang.engine`).
    """

    def __init__(
        self,
        schema: TransducerSchema,
        send: Mapping[str, Query] | None = None,
        insert: Mapping[str, Query] | None = None,
        delete: Mapping[str, Query] | None = None,
        output: Query | None = None,
        name: str | None = None,
    ):
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
            reads = query.input_schema
            for rel in query.relations():
                if rel not in combined:
                    raise SchemaError(
                        f"{role} query reads {rel!r} outside the combined schema"
                    )
                if rel in reads and reads[rel] != combined[rel]:
                    raise SchemaError(
                        f"{role} query reads {rel!r} with arity {reads[rel]}, "
                        f"the combined schema's is {combined[rel]}"
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
        ``I(Id) = {v}`` and ``I(All) = V``.  The fragment's extents
        were validated when it was built, so they are shared as they
        are, and the state is built once.
        """
        inputs = self.schema.inputs
        for rel in local_input.schema:
            if rel not in inputs:
                raise SchemaError(
                    f"local input has relation {rel!r} outside the input schema"
                )
        rels = dict(local_input._rels)
        for rel, rows in rels.items():
            arity = local_input.schema[rel]
            if arity != inputs[rel]:
                fact = Fact._validated(rel, next(iter(rows)))
                raise SchemaError(
                    f"fact {fact!r} has arity {arity}, schema says {inputs[rel]}"
                )
        for v in (node, *all_nodes):
            if not is_atomic(v):
                raise ValueError(f"non-atomic value in fact: {v!r}")
        rels["Id"] = frozenset({(node,)})
        if all_nodes:
            rels["All"] = frozenset((v,) for v in all_nodes)
        # A schema object per state, as when every call built the union:
        # a run result pickles each one, and the run cache weighs
        # results by their pickled size.
        return Instance._build(self.schema.state._copy(), rels)

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
        result = self._compute(state, received)
        self._transition_cache.put(cache_key, result)
        return result

    def _compute(self, state: Instance, received: Instance) -> LocalTransition:
        """The transition, evaluated (a transition-cache miss).

        The send and insert answers were checked where they were
        derived (:meth:`_evaluate`), and every other row is one of an
        extent of *state* or *received*, so the sent instance and the
        new state are built without checking any row again.
        """
        # The group memo's entries for this thread, fetched once for
        # every lookup of the miss (Memo.get's LRU discipline, inline).
        groups = self._group_memo.local()
        results = self._evaluate(state, received, groups)
        # Equal send answers give one sent instance, kept in the group
        # memo: its facts are then the same objects in every buffer
        # they reach, and dict lookups match them by identity.
        sends = len(self.send_queries)
        answers = results[:sends]
        sent_key = ("sent", *answers)
        sent = groups.pop(sent_key, None)
        if sent is None:
            sent = Instance._build(self.schema.messages, {
                rel: rows for rel, rows in zip(self.send_queries, answers) if rows
            })
            if len(groups) >= self._group_memo.limit:
                del groups[next(iter(groups))]
        groups[sent_key] = sent  # inserted last: the dict order is the recency
        output = frozenset(results[sends])
        # The update formula per memory relation, as a frozenset (old
        # is the left operand).  With nothing deleted it is old ∪ Qins,
        # which is old itself when Qins adds no row.
        rels = state._rels
        new_rels = None
        for rel, inserted, deleted in zip(
            self.schema.memory, results[sends + 1::2], results[sends + 2::2]
        ):
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
                if new_rels is None:
                    new_rels = dict(rels)
                if updated:
                    new_rels[rel] = updated
                else:
                    del new_rels[rel]
        # The frozen dataclass's __init__ pays one object.__setattr__ per
        # field; filling __dict__ in field order gives an equal object
        # that pickles to the same bytes.
        local = object.__new__(LocalTransition)
        local.__dict__.update(
            state=state,
            received=received,
            new_state=state if new_rels is None else Instance._build(state.schema, new_rels),
            sent=sent,
            output=output,
        )
        return local

    def _evaluate(
        self, state: Instance, received: Instance, groups: dict
    ) -> list[frozenset]:
        """Every query's answer on ``state ∪ received``, in role order:
        the send queries, the output query, then insert and delete per
        memory relation.

        A UCQ¬ query runs as copies and rule groups
        (:func:`group_rules`).  A copy rule's answer is the extent it
        copies, the very frozenset the state or the received instance
        holds.  The rules of a group read the same relations, so its
        answer is a function of their extents: it is kept in one memo
        keyed by the group and those extents, shared by all groups.
        Extents are frozensets that cache their hash, and an unchanged
        extent is the same object in the next state, so a lookup costs
        a few hashes.  Rules that may read the active domain, and
        queries that are not UCQ¬, run per transition on the combined
        instance; an ``EmptyQuery`` does not run.  The groups are
        built on the first transition-cache miss and never pickled.
        *groups* is the calling thread's group-memo dict
        (:meth:`Memo.local <repro.memo.Memo.local>`).

        The rows a send or insert query derives become facts, so a
        group's answer is checked when it is computed (not when the
        memo returns it) and a direct query's on every run
        (:func:`~repro.db.instance.checked_extent`).  A copy's rows
        are those of an extent already checked.
        """
        plan = self.__dict__.get("_evaluation_plan")
        if plan is None:
            plan = self._evaluation_plan = (self.schema.combined, self._role_plans())
        combined_schema, roles = plan
        limit = self._group_memo.limit
        # State and message relations are disjoint: merge the extents.
        # Absent relations are empty (instances keep no empty extent).
        rels = {**state._rels, **received._rels}
        combined = None
        out = []
        for copies, role_groups, direct, checked in roles:
            rows = _EMPTY
            for name in copies:
                answer = rels.get(name)
                if answer:
                    rows = rows | answer if rows else answer
            for group, reads in role_groups:
                # A group reading one relation names it as a string.
                if type(reads) is str:
                    key = (group, rels.get(reads))
                else:
                    key = (group, *map(rels.get, reads))
                answer = groups.pop(key, None)
                if answer is None:
                    if combined is None:
                        combined = Instance._build(combined_schema, rels)
                    answer = group(combined)
                    if checked is not None:
                        answer = checked_extent(*checked, answer)
                    if len(groups) >= limit:
                        del groups[next(iter(groups))]
                groups[key] = answer  # inserted last: the dict order is the recency
                if answer:
                    rows = rows | answer if rows else answer
            if direct is not None:
                if combined is None:
                    combined = Instance._build(combined_schema, rels)
                answer = direct(combined)
                if checked is not None:
                    answer = checked_extent(*checked, answer)
                rows = rows | answer if rows else answer
            out.append(rows)
        return out

    def _role_plans(self) -> list:
        """``(copied relations, memoized groups, direct query, checked)``
        per role.

        A UCQ¬ query runs as its :func:`group_rules` copies and groups,
        each group paired with the relations it reads (their name when
        it reads one); its active-domain rules, if any, form the direct
        query, run on the combined instance.  Any other query is run
        directly, except that an ``EmptyQuery`` does not run at all.
        *checked* is ``(relation, arity)`` for a send or insert role,
        whose rows must be checked, else ``None``.
        """
        schema = self.schema
        roles = [
            *((q, (rel, schema.messages[rel])) for rel, q in self.send_queries.items()),
            (self.output_query, None),
            *(role for rel in schema.memory
              for role in ((self.insert_queries[rel], (rel, schema.memory[rel])),
                           (self.delete_queries[rel], None))),
        ]
        plans = []
        for query, checked in roles:
            if type(query) is EmptyQuery:
                plans.append(((), (), None, None))
            elif isinstance(query, UCQNegQuery):
                copies, groups, domain = group_rules(query.rules, query.input_schema)
                plans.append((
                    copies,
                    tuple((RuleGroup(query, compiled, None),
                           reads[0] if len(reads) == 1 else reads)
                          for reads, compiled in groups),
                    RuleGroup(query, domain, _program_constants_rules(query.rules))
                    if domain else None,
                    checked,
                ))
            else:
                plans.append(((), (), query, checked))
        return plans

    def heartbeat(self, state: Instance) -> LocalTransition:
        """A transition reading no messages (the local half of a heartbeat)."""
        return self.transition(state, self._empty_received)

    def deliver(self, state: Instance, fact: Fact) -> LocalTransition:
        """A transition reading the single message fact *fact*.

        Cached under ``(state, fact)``: only a miss fetches the received
        instance ``{fact}``.
        """
        key = (state, fact)
        cached = self._transition_cache.get(key)
        if cached is not None:
            return cached
        received = self._received_by_fact.get(fact)
        if received is None:
            received = Instance(
                self.schema.messages.restrict([fact.relation]), (fact,)
            ).expand_schema(self.schema.messages)
            self._received_by_fact.put(fact, received)
        result = self._compute(state, received)
        self._transition_cache.put(key, result)
        return result

    def __repr__(self) -> str:
        return f"Transducer({self.name!r}, {self.schema!r})"


@lru_cache(maxsize=4096)
def group_rules(
    rules: tuple[Rule, ...],
    schema: DatabaseSchema,
) -> tuple[
    tuple[str, ...],
    tuple[tuple[tuple[str, ...], CompiledRules], ...],
    CompiledRules,
]:
    """UCQ¬ *rules* over *schema*: copies, then groups by the relations
    they read.

    Returns ``(copies, groups, domain)``.  *copies* names, once each,
    the relation of every copy rule (:func:`copied_relation`): its
    answer is that relation's extent.  Each group pairs a sorted tuple
    of relation names, negated ones included, with the other rules
    that read exactly those relations; such a rule derives the same
    rows from any instance with the same extents of them.  *domain*
    holds the rules that may read the active domain instead: a
    positive equality with a variable in no positive atom (``x = y``
    ranges over adom).  Memoized per rule tuple and schema, like
    ``plan_for``.
    """
    copies: dict[str, None] = {}
    by_reads: dict[tuple[str, ...], list[Rule]] = {}
    domain: list[Rule] = []
    for rule in rules:
        copied = copied_relation(rule, schema)
        if copied is not None:
            copies[copied] = None
            continue
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
    return tuple(copies), groups, compile_rules(tuple(domain))


def copied_relation(rule: Rule, schema: DatabaseSchema) -> str | None:
    """``R`` when *rule* copies it, else ``None``.

    A copy rule is ``H(x1, …, xk) :- R(x1, …, xk)``: one positive
    relational atom over distinct variables, with exactly its terms as
    the head.  Its answer on any instance is R's extent.  R must have
    arity k in *schema*: an atom of another arity is ill-formed, and
    stays with the engines.
    """
    if len(rule.body) != 1:
        return None
    literal = rule.body[0]
    atom = literal.atom
    if not literal.positive or type(atom) is not Atom:
        return None
    terms = atom.terms
    if (
        terms != rule.head.terms
        or not all(type(term) is Var for term in terms)
        or len(set(terms)) != len(terms)
        or schema[atom.relation] != len(terms)
    ):
        return None
    return atom.relation
