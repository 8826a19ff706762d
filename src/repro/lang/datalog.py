"""Datalog: monotone recursive rules, naive and semi-naive evaluation.

"Datalog" in the paper is Datalog without negation or aggregates — the
monotone fragment at the heart of the CALM conjecture.  Rule bodies may
contain positive relational atoms and (in)equality literals; negated
*relational* atoms are rejected (use :mod:`repro.lang.stratified`).
Nonequality between variables keeps queries monotone, so it is allowed
(a flag makes programs reject it for the strictest reading).

Both fixpoint strategies are provided:

* :func:`naive_fixpoint` — iterate the immediate-consequence operator
  ``T_P`` from the empty IDB (also exposed as :func:`tp_step`, which the
  Theorem 6(5) transducer bridge applies one step at a time);
* :func:`seminaive_fixpoint` — standard differential evaluation.

Both return the same model; benchmarks E17/E22 compare their cost.

Rule bodies are evaluated through compiled join plans
(:mod:`repro.lang.joinplan`): each body is compiled once into a
:class:`~repro.lang.joinplan.JoinPlan` that orders the positive atoms
greedily by bound-variable connectivity, and each order into a
slot-tuple :class:`~repro.lang.joinplan.Kernel` that probes hash
indexes — shared across rules and fixpoint rounds by an
:class:`~repro.lang.joinplan.IndexPool` — and projects the head
positionally.  Every evaluation entry point
takes an ``engine`` argument: ``"indexed"`` (the default) or
``"nested"`` (the seed's nested-loop product, kept as the reference
implementation and benchmark baseline).  Relation extents live in
relation-partitioned :class:`~repro.db.instance.Instance` storage, so
``instance.relation(name)`` is O(1) and fixpoint results are rebuilt
in a single pass (:meth:`Instance.from_relations`).
"""

from __future__ import annotations

from collections.abc import Mapping

from ..db.instance import Instance
from ..db.schema import DatabaseSchema, SchemaError
from .ast import Atom, Const, Eq, Literal, Rule, Var
from .engine import make_pool, resolve_engine
from .joinplan import JoinPlan, plan_for
from .query import Query

Relations = Mapping[str, frozenset]

_EMPTY: frozenset = frozenset()


class DatalogError(ValueError):
    """Raised on rules outside the Datalog fragment."""


# ---------------------------------------------------------------------------
# Body evaluation (shared by datalog and stratified datalog)
# ---------------------------------------------------------------------------


def evaluate_body(
    body: tuple[Literal, ...],
    positive_sources: list[frozenset],
    relations: Relations,
    domain: frozenset,
    engine: str | None = None,
    pool=None,
) -> list[dict[Var, object]]:
    """All satisfying assignments of a rule body.

    *positive_sources* gives, for each positive relational atom of the
    body in order, the set of tuples that occurrence reads — this is the
    hook semi-naive evaluation uses to point one occurrence at a delta.
    Negative relational atoms are always checked against *relations*.
    Returns a list of variable bindings.

    *engine* selects the strategy: ``"indexed"`` (the compiled
    slot-tuple :class:`~repro.lang.joinplan.Kernel`, sharing hash
    indexes through an optional :class:`~repro.lang.joinplan.IndexPool`
    *pool*), ``"nested"`` (the reference nested-loop product), or
    ``"columnar"`` (bulk NumPy joins over dictionary-encoded matrices,
    sharing encodings through a :class:`~repro.lang.vecjoin.ColumnPool`
    *pool*).  ``None`` resolves to the session default
    (:func:`repro.lang.engine.default_engine`).  All engines produce
    the same bindings up to order; the nested and columnar joins share
    the dict-based constraint code below.
    """
    engine = resolve_engine(engine)
    plan = _plan(body, positive_sources)
    if engine == "indexed":
        kernel = plan.kernel(positive_sources)
        return kernel.as_dicts(
            kernel.bindings(positive_sources, relations, domain, pool)
        )
    if engine == "columnar":
        from .vecjoin import ColumnPool, join_bindings

        cpool = pool if isinstance(pool, ColumnPool) else ColumnPool()
        bindings = join_bindings(body, positive_sources, cpool)
    else:
        bindings = plan.nested_loop(positive_sources)
    if not bindings:
        return []
    return _apply_constraints(plan, bindings, relations, domain)


def _plan(body: tuple[Literal, ...], positive_sources: list[frozenset]) -> JoinPlan:
    plan = plan_for(body)
    if len(positive_sources) != len(plan.atoms):
        raise ValueError(
            f"need {len(plan.atoms)} positive sources, got {len(positive_sources)}"
        )
    return plan


def _apply_constraints(
    plan: JoinPlan,
    bindings: list[dict[Var, object]],
    relations: Relations,
    domain: frozenset,
) -> list[dict[Var, object]]:
    """Filter/extend *bindings* by the body's non-join literals."""
    # Positive equalities: propagate or filter; unbound=unbound ranges over adom.
    pending = list(plan.pos_eqs)
    progress = True
    while pending and progress:
        progress = False
        still: list[Eq] = []
        for eq in pending:
            resolved: list[dict[Var, object]] = []
            all_resolved = True
            for binding in bindings:
                left = _value(eq.left, binding)
                right = _value(eq.right, binding)
                if left is _UNBOUND and right is _UNBOUND:
                    all_resolved = False
                    break
                if left is _UNBOUND:
                    new = dict(binding)
                    new[eq.left] = right
                    resolved.append(new)
                elif right is _UNBOUND:
                    new = dict(binding)
                    new[eq.right] = left
                    resolved.append(new)
                elif left == right:
                    resolved.append(binding)
            if all_resolved:
                bindings = resolved
                progress = True
            else:
                still.append(eq)
        pending = still
    for eq in pending:
        # Both sides unbound in every binding: x = y with x, y ranging over adom.
        expanded: list[dict[Var, object]] = []
        for binding in bindings:
            for v in domain:
                new = dict(binding)
                new[eq.left] = v
                new[eq.right] = v
                expanded.append(new)
        bindings = expanded

    for eq in plan.neg_eqs:
        kept: list[dict[Var, object]] = []
        for binding in bindings:
            left = _value(eq.left, binding)
            right = _value(eq.right, binding)
            if left is _UNBOUND or right is _UNBOUND:
                raise DatalogError(f"unsafe nonequality {eq!r}")
            if left != right:
                kept.append(binding)
        bindings = kept

    for atom in plan.negative_atoms:
        extent = relations.get(atom.relation, _EMPTY)
        kept = []
        for binding in bindings:
            row = _instantiate(atom, binding)
            if row is None:
                raise DatalogError(f"unsafe negative literal not {atom!r}")
            if row not in extent:
                kept.append(binding)
        bindings = kept

    return bindings


_UNBOUND = object()


def _value(term, binding):
    if isinstance(term, Const):
        return term.value
    return binding.get(term, _UNBOUND)


def _instantiate(atom: Atom, binding: dict) -> tuple | None:
    row = []
    for term in atom.terms:
        value = _value(term, binding)
        if value is _UNBOUND:
            return None
        row.append(value)
    return tuple(row)


def fire_rule(
    rule: Rule,
    positive_sources: list[frozenset],
    relations: Relations,
    domain: frozenset,
    engine: str | None = None,
    pool=None,
) -> frozenset:
    """Head tuples derived by one rule from the given sources."""
    engine = resolve_engine(engine)
    if engine == "columnar":
        from .vecjoin import ColumnPool, fire_rule_columnar

        cpool = pool if isinstance(pool, ColumnPool) else ColumnPool()
        derived = fire_rule_columnar(rule, positive_sources, relations, cpool)
        if derived is not None:
            return derived
        # Outside the vectorizable fragment: the indexed engine owns
        # these cases, including the unsafe-rule error paths.
        engine, pool = "indexed", cpool.index_pool
    if engine == "indexed":
        plan = _plan(rule.body, positive_sources)
        return plan.kernel(positive_sources).fire(
            rule, positive_sources, relations, domain, pool
        )
    out = set()
    for binding in evaluate_body(
        rule.body, positive_sources, relations, domain, engine=engine
    ):
        row = _instantiate(rule.head, binding)
        if row is None:
            raise DatalogError(f"unsafe rule {rule!r}")
        out.add(row)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


class DatalogProgram:
    """A pure (negation-free) Datalog program.

    *edb_schema* declares the extensional relations; every relation that
    appears in a head is intensional (IDB).  A relation may not be both.
    """

    def __init__(
        self,
        rules: tuple[Rule, ...],
        edb_schema: DatabaseSchema,
        allow_nonequality: bool = True,
    ):
        self.rules = tuple(rules)
        self.edb_schema = edb_schema
        idb: dict[str, int] = {}
        for rule in self.rules:
            rule.check_safe()
            if not rule.is_positive():
                if any(
                    not lit.positive and isinstance(lit.atom, Atom)
                    for lit in rule.body
                ):
                    raise DatalogError(f"negated atom in Datalog rule: {rule!r}")
                if not allow_nonequality:
                    raise DatalogError(f"nonequality not allowed: {rule!r}")
            head = rule.head
            if head.relation in edb_schema:
                raise DatalogError(f"rule head {head.relation!r} is an EDB relation")
            arity = idb.setdefault(head.relation, len(head.terms))
            if arity != len(head.terms):
                raise DatalogError(f"inconsistent arity for {head.relation!r}")
        for rule in self.rules:
            for atom in rule.positive_body_atoms():
                if atom.relation in edb_schema:
                    if len(atom.terms) != edb_schema[atom.relation]:
                        raise DatalogError(f"arity mismatch on {atom!r}")
                elif atom.relation in idb:
                    if len(atom.terms) != idb[atom.relation]:
                        raise DatalogError(f"arity mismatch on {atom!r}")
                else:
                    raise DatalogError(
                        f"relation {atom.relation!r} is neither EDB nor IDB"
                    )
        self.idb_schema = DatabaseSchema(idb)

    @classmethod
    def parse(
        cls, text: str, edb_schema: DatabaseSchema, **kwargs
    ) -> "DatalogProgram":
        from .parser import parse_rules

        return cls(parse_rules(text), edb_schema, **kwargs)

    @property
    def schema(self) -> DatabaseSchema:
        """EDB plus IDB schema."""
        return self.edb_schema.union(self.idb_schema)

    def __repr__(self) -> str:
        return f"DatalogProgram({len(self.rules)} rules, idb={list(self.idb_schema)})"


def _relations_of(instance: Instance, schema: DatabaseSchema) -> dict[str, frozenset]:
    return {
        name: instance.relation(name) if name in instance.schema else _EMPTY
        for name in schema.relation_names()
    }


def tp_step(
    program: DatalogProgram,
    relations: Relations,
    domain: frozenset,
    engine: str | None = None,
    pool=None,
) -> dict[str, frozenset]:
    """One application of the immediate-consequence operator ``T_P``.

    Input and output are relation-name → tuple-set mappings covering the
    full (EDB+IDB) schema; EDB relations pass through unchanged and IDB
    relations are the tuples derivable in one step (cumulative with the
    input IDB, matching the inflationary reading used by Theorem 6(5)).

    Unchanged extents are returned as the *same* frozenset objects, so
    index builds cached in *pool* stay valid across iterated steps.
    """
    engine = resolve_engine(engine)
    out: dict[str, frozenset] = {
        name: frozenset(relations.get(name, _EMPTY))
        for name in program.schema.relation_names()
    }
    for rule in program.rules:
        # All rules read the *input* relations: one simultaneous T_P step.
        sources = [
            frozenset(relations.get(atom.relation, _EMPTY))
            for atom in rule.positive_body_atoms()
        ]
        derived = fire_rule(rule, sources, relations, domain,
                            engine=engine, pool=pool)
        head = rule.head.relation
        fresh = derived - out[head]
        if fresh:
            out[head] = out[head] | fresh
    return out


def naive_fixpoint(
    program: DatalogProgram, instance: Instance, engine: str | None = None
) -> Instance:
    """Least fixpoint by naive iteration of ``T_P``."""
    engine = resolve_engine(engine)
    domain = instance.active_domain() | _program_constants(program)
    relations = _relations_of(instance, program.schema)
    pool = make_pool(engine)
    while True:
        new = tp_step(program, relations, domain, engine=engine, pool=pool)
        if new == relations:
            break
        relations = new
    return _to_instance(relations, program.schema)


def seminaive_fixpoint(
    program: DatalogProgram, instance: Instance, engine: str | None = None
) -> Instance:
    """Least fixpoint by semi-naive (differential) evaluation."""
    engine = resolve_engine(engine)
    if engine == "columnar":
        from .vecjoin import seminaive_fixpoint_columnar

        # The dedicated all-matrix driver; rules outside the
        # vectorizable fragment drop to the generic loop below (which
        # still fires vectorizable rules columnar, per rule).
        result = seminaive_fixpoint_columnar(program, instance)
        if result is not None:
            return result
    domain = instance.active_domain() | _program_constants(program)
    total = _relations_of(instance, program.schema)
    pool = make_pool(engine)
    # Round 0: fire every rule once on the full (EDB-only) database.
    delta: dict[str, set] = {name: set() for name in program.idb_schema}
    for rule in program.rules:
        sources = [
            total.get(atom.relation, _EMPTY)
            for atom in rule.positive_body_atoms()
        ]
        for row in fire_rule(rule, sources, total, domain,
                             engine=engine, pool=pool):
            if row not in total[rule.head.relation]:
                delta[rule.head.relation].add(row)
    for name, rows in delta.items():
        if rows:
            total[name] = total[name] | frozenset(rows)

    while any(delta.values()):
        frozen_delta = {
            name: frozenset(rows) for name, rows in delta.items() if rows
        }
        new_delta: dict[str, set] = {name: set() for name in program.idb_schema}
        for rule in program.rules:
            atoms = rule.positive_body_atoms()
            idb_positions = [
                i for i, atom in enumerate(atoms) if atom.relation in program.idb_schema
            ]
            for pos in idb_positions:
                delta_source = frozen_delta.get(atoms[pos].relation)
                if not delta_source:
                    continue
                sources = [
                    delta_source if i == pos
                    else total.get(atom.relation, _EMPTY)
                    for i, atom in enumerate(atoms)
                ]
                for row in fire_rule(rule, sources, total, domain,
                                     engine=engine, pool=pool):
                    if row not in total[rule.head.relation]:
                        new_delta[rule.head.relation].add(row)
        for name, rows in new_delta.items():
            if rows:
                total[name] = total[name] | frozenset(rows)
        delta = new_delta
    return _to_instance(total, program.schema)


def _program_constants(program: DatalogProgram) -> frozenset:
    return _program_constants_rules(program.rules)


def _program_constants_rules(rules: tuple[Rule, ...]) -> frozenset:
    out = set()
    for rule in rules:
        for term in rule.head.terms:
            if isinstance(term, Const):
                out.add(term.value)
        for lit in rule.body:
            atom = lit.atom
            terms = atom.terms if isinstance(atom, Atom) else (atom.left, atom.right)
            for term in terms:
                if isinstance(term, Const):
                    out.add(term.value)
    return frozenset(out)


def _to_instance(relations: Relations, schema: DatabaseSchema) -> Instance:
    return Instance.from_relations(
        schema,
        {name: relations.get(name, _EMPTY) for name in schema.relation_names()},
    )


class DatalogQuery(Query):
    """The query computed by a Datalog program's designated output relation."""

    def __init__(
        self,
        program: DatalogProgram,
        output: str,
        seminaive: bool = True,
        engine: str | None = None,
    ):
        if output not in program.idb_schema:
            raise SchemaError(f"output relation {output!r} is not an IDB relation")
        if engine is not None:
            resolve_engine(engine)  # validate eagerly; resolve per call
        self.program = program
        self.output = output
        self.seminaive = seminaive
        self.engine = engine
        self.arity = program.idb_schema[output]
        self.input_schema = program.edb_schema

    @classmethod
    def parse(
        cls, text: str, output: str, edb_schema: DatabaseSchema, **kwargs
    ) -> "DatalogQuery":
        return cls(DatalogProgram.parse(text, edb_schema), output, **kwargs)

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        instance = instance.restrict(
            [n for n in self.program.edb_schema if n in instance.schema]
        ).expand_schema(self.program.edb_schema)
        evaluate = seminaive_fixpoint if self.seminaive else naive_fixpoint
        return evaluate(self.program, instance, engine=self.engine).relation(
            self.output
        )

    def relations(self) -> frozenset[str]:
        return frozenset(self.program.edb_schema.relation_names())

    def is_monotone_syntactic(self) -> bool:
        # Shim over the static analyzer (Datalog without negation is
        # always certified monotone).
        from ..analysis.static import analyze_query

        return analyze_query(self).certifies("monotone")

    def __repr__(self) -> str:
        return f"DatalogQuery({self.output}, {self.program!r})"
