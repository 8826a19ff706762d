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
relations, so a step re-derives only what it changed.  A rule that
copies one relation evaluates to that relation's extent itself.  A
miss runs a kernel: straight-line code generated once per role layout
(:func:`kernel_factory`).
"""

from __future__ import annotations

import hashlib
import linecache
from dataclasses import dataclass
from collections.abc import Callable, Mapping
from functools import lru_cache

from ..db.fact import Fact
from ..db.instance import Instance, checked_extent
from ..db.schema import DatabaseSchema, SchemaError
from ..db.values import is_atomic
from ..lang.ast import Atom, Const, Eq, Rule, Var
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
        # answers and sent instances of a miss (see kernel_factory).
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
        # The memos pickle empty and the kernel is rebuilt, so
        # a used transducer pickles as a fresh one.
        state = dict(self.__dict__)
        state.pop("_kernel", None)
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

        It runs this transducer's kernel (:func:`kernel_factory`),
        built on the first miss and never pickled.
        """
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = self._kernel = self._build_kernel()
        return kernel(state, received)

    def _build_kernel(self):
        """This transducer's kernel: its role layout's factory, called
        with the relation names, rule groups and queries it binds.

        The roles are the send queries, the output query, then insert
        and delete per memory relation.  A UCQ¬ query runs as its
        :func:`group_rules` copies and groups, and its active-domain
        rules, if any, as one more group run directly; any other query
        is run directly, except that an ``EmptyQuery`` does not run at
        all.  The rows of a send or insert role become facts.  A copy's
        and a group's rows are head projections of checked extents, so
        only their head constants are checked, here.  A direct query's
        rows are checked on every run: active-domain rules may bind a
        head variable to any constant of the rules.
        """
        schema = self.schema
        messages = schema.messages
        roles = [
            *((q, (rel, messages[rel])) for rel, q in self.send_queries.items()),
            (self.output_query, None),
            *(role for rel in schema.memory
              for role in ((self.insert_queries[rel], (rel, schema.memory[rel])),
                           (self.delete_queries[rel], None))),
        ]
        reads: dict[str, int] = {}  # relation -> its index in the layout

        def read(rel: str) -> int:
            return reads.setdefault(rel, len(reads))

        groups: list[Query] = []
        directs: list[Query] = []
        checked_names: list = []
        layout_roles = []
        for query, checked in roles:
            copies: tuple = ()
            group_reads: tuple = ()
            direct: Query | None = None
            if isinstance(query, UCQNegQuery):
                if checked is not None:
                    _check_head_constants(query.rules)
                copied, rule_groups, domain = group_rules(query.rules, query.input_schema)
                copies = tuple(map(read, copied))
                group_reads = tuple(tuple(map(read, names)) for names, _ in rule_groups)
                groups.extend(RuleGroup(query, compiled, None) for _, compiled in rule_groups)
                if domain:
                    direct = RuleGroup(query, domain, _program_constants_rules(query.rules))
            elif type(query) is not EmptyQuery:
                direct = query
            if direct is None:
                mode = NO_DIRECT
            else:
                directs.append(direct)
                mode = DIRECT
                if checked is not None:
                    checked_names.extend(checked)
                    mode = CHECKED_DIRECT
            layout_roles.append((copies, group_reads, mode))
        sends = len(self.send_queries)
        updated = []
        memory = []
        for i, rel in enumerate(schema.memory):
            insert, delete = layout_roles[sends + 1 + 2 * i: sends + 3 + 2 * i]
            if insert != _NO_ROWS or delete != _NO_ROWS:
                updated.append(rel)
                memory.append((read(rel), sends + 1 + 2 * i))
        layout = (
            tuple(rel in messages for rel in reads),
            tuple(layout_roles),
            sends,
            tuple(memory),
        )
        return kernel_factory(layout)(
            tuple(reads), tuple(groups), tuple(directs), tuple(checked_names),
            tuple(messages), tuple(updated), schema.combined, messages,
            self._group_memo,
        )

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


#: How a role runs its direct query: not at all, as it is, or with
#: its rows checked (a send or insert role's).
NO_DIRECT, DIRECT, CHECKED_DIRECT = range(3)
_NO_ROWS = ((), (), NO_DIRECT)  # the layout of a role that derives nothing


def _check_head_constants(rules: tuple[Rule, ...]) -> None:
    """Raise the ``ValueError`` of a fact with a non-atomic value when
    a head of *rules* has a non-atomic constant."""
    for rule in rules:
        for term in rule.head.terms:
            if type(term) is Const and not is_atomic(term.value):
                raise ValueError(f"non-atomic value in fact: {term.value!r}")


@lru_cache(maxsize=1024)
def kernel_factory(layout: tuple) -> Callable:
    """The kernel factory of a role layout, generated once per layout.

    *layout* is ``(sides, roles, sends, memory)``, with the relations a
    transducer reads numbered in order of first use:

    * *sides* says per relation whether the received instance holds
      it (else the state does);
    * *roles* gives per role, in :meth:`Transducer._build_kernel`'s
      order, ``(copies, groups, direct)``: the relations it copies,
      the relations each of its rule groups reads, and how it runs its
      direct query (:data:`NO_DIRECT`, :data:`DIRECT`,
      :data:`CHECKED_DIRECT`);
    * *sends* is the number of send roles;
    * *memory* pairs each memory relation that a role may change with
      its index and its insert role's (its delete role is the next).

    The factory takes the relation names, groups, direct queries,
    checked ``(name, arity)`` pairs (flat), message names, updated
    memory names, the combined and message schemas and the group memo,
    and returns the kernel: ``kernel(state, received)`` is the
    transition.  The kernel reads each relation once, then evaluates
    the roles in order, straight-line.  A copy's answer is the extent.
    A group's answer is kept in the group memo, keyed by the group and
    the extents it reads, so an unchanged extent is a few hashes; a
    group the memo lacks and a direct query run on the combined
    instance, built once per miss when first needed.  Answers are
    united in that order, as ``rows | answer`` from the first nonempty
    one.  Equal send answers share one sent instance, kept in the same
    memo, and the update formula runs per memory relation that a role
    may change.  Names never enter the source: they are bound as
    constants, so one code object serves every transducer of a layout.
    The source is registered in :mod:`linecache` under its file name,
    for tracebacks and profilers.
    """
    source = _kernel_source(*layout)
    filename = f"<transducer kernel {hashlib.sha1(source.encode()).hexdigest()[:12]}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {
        "EMPTY": _EMPTY,
        "build": Instance._build,
        "checked_extent": checked_extent,
        "new": object.__new__,
        "LocalTransition": LocalTransition,
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


def _kernel_source(sides: tuple, roles: tuple, sends: int, memory: tuple) -> str:
    """The source of :func:`kernel_factory`'s ``make`` for one layout."""
    ngroups = sum(len(group_reads) for _, group_reads, _ in roles)
    ndirect = sum(direct != NO_DIRECT for _, _, direct in roles)
    nchecked = sum(direct == CHECKED_DIRECT for _, _, direct in roles)
    lines = ["def make(N, G, D, K, M, W, CS, MS, memo):"]

    def bind(names: list[str], source: str) -> None:
        if names:
            lines.append(f"    {', '.join(names)}, = {source}")

    bind([f"N{i}" for i in range(len(sides))], "N")
    bind([f"G{g}" for g in range(ngroups)], "G")
    bind([f"D{d}" for d in range(ndirect)], "D")
    bind([f"K{k}{part}" for k in range(nchecked) for part in "na"], "K")
    bind([f"M{m}" for m in range(sends)], "M")
    bind([f"W{w}" for w in range(len(memory))], "W")
    lines += [
        "    local = memo.local",
        "    LIMIT = memo.limit",
        "    def kernel(state, received):",
        "        groups = local()",
        "        pop = groups.pop",
        "        S = state._rels",
        "        R = received._rels",
    ]

    def emit(*block: str) -> None:  # lines of the kernel's body
        lines.extend("        " + line for line in block)

    for i, received in enumerate(sides):
        emit(f"r{i} = {'R' if received else 'S'}.get(N{i})")
    if ngroups or ndirect:
        emit("c = None")
    combined = [
        "if c is None:",
        "    c = build(CS, {**S, **R})",
    ]
    evict = [
        "if len(groups) >= LIMIT:",
        "    del groups[next(iter(groups))]",
    ]

    answers = []  # per role, the name of its answer
    g = d = k = 0
    for j, (copies, group_reads, direct) in enumerate(roles):
        a = f"a{j}"
        empty = True  # a is EMPTY so far

        def unite(answer: str, always: bool = False) -> None:
            # rows | answer from the first nonempty answer on; a direct
            # answer is taken even when empty.
            nonlocal empty
            if empty:
                emit(f"{a} = {answer}" if always else f"{a} = {answer} or EMPTY")
            elif always:
                emit(f"{a} = {a} | {answer} if {a} else {answer}")
            else:
                emit(f"if {answer}:", f"    {a} = {a} | {answer} if {a} else {answer}")
            empty = False

        for i in copies:
            unite(f"r{i}")
        for group in group_reads:
            key = ", ".join([f"G{g}", *(f"r{i}" for i in group)])
            emit(
                f"k = ({key},)",
                "x = pop(k, None)",
                "if x is None:",
                *("    " + line for line in combined),
                f"    x = G{g}(c)",
                *("    " + line for line in evict),
                "groups[k] = x",
            )
            unite("x")
            g += 1
        if direct != NO_DIRECT:
            emit(*combined)
            if direct == CHECKED_DIRECT:
                emit(f"x = checked_extent(K{k}n, K{k}a, D{d}(c))")
                k += 1
            else:
                emit(f"x = D{d}(c)")
            unite("x", always=True)
            d += 1
        answers.append("EMPTY" if empty else a)
    sent = "".join(f"{answer}, " for answer in answers[:sends])
    emit(
        f'k = ("sent", {sent})',
        "sent = pop(k, None)",
        "if sent is None:",
        "    d = {}",
        *(line for j, answer in enumerate(answers[:sends]) if answer != "EMPTY"
          for line in (f"    if {answer}:", f"        d[M{j}] = {answer}")),
        "    sent = build(MS, d)",
        *("    " + line for line in evict),
        "groups[k] = sent",
        f"out = frozenset({answers[sends]})",
    )
    if memory:
        emit("n = None")
    for w, (i, role) in enumerate(memory):
        inserted, deleted = answers[role], answers[role + 1]
        insert_empty = inserted == "EMPTY"
        emit(f"o = EMPTY if r{i} is None else r{i}")
        if deleted != "EMPTY":
            emit(
                f"if {deleted}:",
                f"    u = (o - ({inserted} | {deleted})) | ({inserted} - {deleted})"
                f" | ({inserted} & {deleted} & o)",
                "    if u != o:",
                "        if n is None:",
                "            n = dict(S)",
                "        if u:",
                f"            n[W{w}] = u",
                "        else:",
                f"            del n[W{w}]",
            )
            if not insert_empty:
                emit(f"elif not {inserted} <= o:")
        elif not insert_empty:
            emit(f"if not {inserted} <= o:")
        if not insert_empty:
            emit(
                "    if n is None:",
                "        n = dict(S)",
                f"    n[W{w}] = o | {inserted}",
            )
    new_state = "state if n is None else build(state.schema, n)" if memory else "state"
    emit(
        "t = new(LocalTransition)",
        "t.__dict__.update(",
        "    state=state,",
        "    received=received,",
        f"    new_state={new_state},",
        "    sent=sent,",
        "    output=out,",
        ")",
        "return t",
    )
    lines.append("    return kernel")
    return "\n".join(lines) + "\n"


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
