"""Datalog, stratified Datalog and nonrecursive Datalog: one evaluator.

The paper's rule languages are one family:

* Datalog without negation or aggregates — the monotone fragment at
  the heart of the CALM conjecture (Theorem 6(5));
* stratified Datalog — the local language of Dedalus (Section 8: "the
  local language is stratified Datalog");
* nonrecursive Datalog with negation — exactly FO's power (Section 2,
  Corollary 14(3)).

:class:`StratifiedProgram` validates programs and computes strata;
:class:`DatalogProgram` adds one rule (no negated relational atom, so
the program is one stratum) and :class:`NonrecursiveProgram` another
(an acyclic dependency graph).  Nonequality between variables keeps
queries monotone, so Datalog allows it.

Evaluation is one semi-naive loop, :func:`_layer_fixpoint`, run once
per stratum by :func:`stratified_fixpoint`; :func:`seminaive_fixpoint`
is the one-stratum case.  :func:`naive_fixpoint` iterates the
immediate-consequence operator ``T_P`` from the empty IDB (also exposed
as :func:`tp_step`, which the Theorem 6(5) transducer bridge applies one
step at a time); it is the reference the tests compare against, and
benchmarks E17/E22 compare the two strategies' cost.

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
from .joinplan import IndexPool, JoinPlan, plan_for
from .query import Query

Relations = Mapping[str, frozenset]

_EMPTY: frozenset = frozenset()


class DatalogError(ValueError):
    """Raised on rules outside the Datalog fragment."""


class StratificationError(DatalogError):
    """Raised when a program has no stratification."""


# ---------------------------------------------------------------------------
# Body evaluation
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


class StratifiedProgram:
    """A stratified Datalog program with negation.

    *edb_schema* declares the extensional relations; every relation that
    appears in a head is intensional (IDB).  A relation may not be both.
    Negative literals over EDB relations are always fine; negative
    literals over IDB relations force a strictly lower stratum.
    """

    def __init__(self, rules: tuple[Rule, ...], edb_schema: DatabaseSchema):
        self.rules = tuple(rules)
        self.edb_schema = edb_schema
        idb: dict[str, int] = {}
        for rule in self.rules:
            rule.check_safe()
            self._check_rule(rule)
            head = rule.head
            if head.relation in edb_schema:
                raise DatalogError(f"rule head {head.relation!r} is an EDB relation")
            arity = idb.setdefault(head.relation, len(head.terms))
            if arity != len(head.terms):
                raise DatalogError(f"inconsistent arity for {head.relation!r}")
        for rule in self.rules:
            for atom in rule.positive_body_atoms() + rule.negative_body_atoms():
                if atom.relation in edb_schema:
                    expected = edb_schema[atom.relation]
                elif atom.relation in idb:
                    expected = idb[atom.relation]
                else:
                    raise DatalogError(
                        f"relation {atom.relation!r} is neither EDB nor IDB"
                    )
                if len(atom.terms) != expected:
                    raise DatalogError(f"arity mismatch on {atom!r}")
        self.idb_schema = DatabaseSchema(idb)
        self.strata = self._stratify()

    def _check_rule(self, rule: Rule) -> None:
        """Reject a safe rule outside the program's fragment."""

    @classmethod
    def parse(cls, text: str, edb_schema: DatabaseSchema):
        from .parser import parse_rules

        return cls(parse_rules(text), edb_schema)

    @property
    def schema(self) -> DatabaseSchema:
        """EDB plus IDB schema."""
        return self.edb_schema.union(self.idb_schema)

    def _stratify(self) -> list[list[Rule]]:
        """Assign stratum numbers; raise if negation is cyclic."""
        idb_names = list(self.idb_schema)
        stratum = {name: 0 for name in idb_names}
        bound = len(idb_names)
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                head = rule.head.relation
                for atom in rule.positive_body_atoms():
                    if atom.relation in stratum:
                        if stratum[head] < stratum[atom.relation]:
                            stratum[head] = stratum[atom.relation]
                            changed = True
                for atom in rule.negative_body_atoms():
                    if atom.relation in stratum:
                        if stratum[head] < stratum[atom.relation] + 1:
                            stratum[head] = stratum[atom.relation] + 1
                            changed = True
                if stratum[head] > bound:
                    raise StratificationError(
                        "program is not stratifiable (negation through recursion)"
                    )
        levels = sorted(set(stratum.values()))
        layers: list[list[Rule]] = []
        for level in levels:
            layer = [r for r in self.rules if stratum[r.head.relation] == level]
            if layer:
                layers.append(layer)
        self.stratum_of = stratum
        return layers

    def is_nonrecursive(self) -> bool:
        """True when no IDB relation depends (positively or negatively) on
        itself transitively — the 'nonrecursive Datalog' fragment."""
        edges: dict[str, set[str]] = {name: set() for name in self.idb_schema}
        for rule in self.rules:
            deps = rule.body_relations() & set(self.idb_schema)
            edges[rule.head.relation] |= deps
        # cycle detection by DFS
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in edges}

        def dfs(name: str) -> bool:
            color[name] = GRAY
            for nxt in edges[name]:
                if color[nxt] == GRAY:
                    return False
                if color[nxt] == WHITE and not dfs(nxt):
                    return False
            color[name] = BLACK
            return True

        return all(dfs(name) for name in edges if color[name] == WHITE)

    def __repr__(self) -> str:
        return (
            f"StratifiedProgram({len(self.rules)} rules, "
            f"{len(self.strata)} strata, idb={list(self.idb_schema)})"
        )


class DatalogProgram(StratifiedProgram):
    """A pure (negation-free) Datalog program: one stratum.

    Nonequality literals keep a rule monotone, so they are allowed.
    """

    def _check_rule(self, rule: Rule) -> None:
        if rule.negative_body_atoms():
            raise DatalogError(f"negated atom in Datalog rule: {rule!r}")

    def __repr__(self) -> str:
        return f"DatalogProgram({len(self.rules)} rules, idb={list(self.idb_schema)})"


class NonrecursiveProgram(StratifiedProgram):
    """A stratified program whose dependency graph is acyclic.

    Section 2: FO "is equivalent in expressive power to the relational
    algebra, as well as to recursion-free Datalog with negation".
    Corollary 14(3) uses *positive* nonrecursive Datalog transducers
    (:attr:`is_positive`).
    """

    def __init__(self, rules: tuple[Rule, ...], edb_schema: DatabaseSchema):
        super().__init__(rules, edb_schema)
        if not self.is_nonrecursive():
            raise DatalogError("program is recursive")

    @property
    def is_positive(self) -> bool:
        """True when no rule uses a negated relational atom (UCQ-like).

        Nonequalities are tolerated, matching :class:`DatalogProgram`.
        """
        return all(not rule.negative_body_atoms() for rule in self.rules)


# ---------------------------------------------------------------------------
# Fixpoints
# ---------------------------------------------------------------------------


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


def _start(
    program: StratifiedProgram, instance: Instance
) -> tuple[frozenset, dict[str, frozenset]]:
    """The evaluation domain and the input extent of every relation."""
    domain = instance.active_domain() | _program_constants_rules(program.rules)
    relations = {
        name: instance.relation(name) if name in instance.schema else _EMPTY
        for name in program.schema.relation_names()
    }
    return domain, relations


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
    domain, relations = _start(program, instance)
    pool = make_pool(engine)
    while True:
        new = tp_step(program, relations, domain, engine=engine, pool=pool)
        if new == relations:
            break
        relations = new
    return Instance.from_relations(program.schema, relations)


def seminaive_fixpoint(
    program: DatalogProgram, instance: Instance, engine: str | None = None
) -> Instance:
    """Least fixpoint by semi-naive (differential) evaluation.

    A Datalog program is one stratum, so this is
    :func:`stratified_fixpoint`, after the columnar engine's dedicated
    all-matrix driver has had its try.
    """
    engine = resolve_engine(engine)
    if engine == "columnar":
        from .vecjoin import seminaive_fixpoint_columnar

        # Rules outside the vectorizable fragment drop to the generic
        # loop (which still fires vectorizable rules columnar, per rule).
        result = seminaive_fixpoint_columnar(program, instance)
        if result is not None:
            return result
    return stratified_fixpoint(program, instance, engine=engine)


def stratified_fixpoint(
    program: StratifiedProgram,
    instance: Instance,
    pool=None,
    engine: str | None = None,
) -> Instance:
    """Evaluate the perfect (stratified) model of *program* on *instance*.

    *pool* lets a caller that evaluates the same program repeatedly
    (e.g. the Dedalus interpreter, once per timestep) share hash-index
    builds — or, under ``engine="columnar"``, extent encodings — for
    extents that did not change between calls.  A *pool* of the wrong
    kind for the resolved engine is replaced by a fresh matching one.
    """
    engine = resolve_engine(engine)
    domain, relations = _start(program, instance)
    if engine == "columnar":
        from .vecjoin import ColumnPool

        if not isinstance(pool, ColumnPool):
            pool = ColumnPool()
    elif engine == "indexed" and not isinstance(pool, IndexPool):
        pool = IndexPool()
    for layer in program.strata:
        _layer_fixpoint(layer, relations, domain, pool, engine=engine)
    return Instance.from_relations(program.schema, relations)


def _layer_fixpoint(
    layer: list[Rule],
    relations: dict[str, frozenset],
    domain: frozenset,
    pool=None,
    engine: str | None = None,
) -> None:
    """Semi-naive fixpoint of one stratum, updating *relations* in place.

    Lower strata are read as EDB.  Round 0 fires every rule on the full
    database; each later round fires, for every occurrence of a relation
    derived in this stratum, the rule with that occurrence pointed at the
    previous round's delta.
    """
    layer_heads = {rule.head.relation for rule in layer}
    delta: dict[str, set] = {name: set() for name in layer_heads}
    for rule in layer:
        sources = [
            relations.get(atom.relation, _EMPTY)
            for atom in rule.positive_body_atoms()
        ]
        for row in fire_rule(rule, sources, relations, domain,
                             engine=engine, pool=pool):
            if row not in relations[rule.head.relation]:
                delta[rule.head.relation].add(row)
    for name in layer_heads:
        if delta[name]:
            relations[name] = relations[name] | frozenset(delta[name])
    while any(delta.values()):
        frozen_delta = {
            name: frozenset(rows) for name, rows in delta.items() if rows
        }
        new_delta: dict[str, set] = {name: set() for name in layer_heads}
        for rule in layer:
            atoms = rule.positive_body_atoms()
            recursive_positions = [
                i for i, atom in enumerate(atoms) if atom.relation in layer_heads
            ]
            for pos in recursive_positions:
                delta_source = frozen_delta.get(atoms[pos].relation)
                if not delta_source:
                    continue
                sources = [
                    delta_source if i == pos
                    else relations.get(atom.relation, _EMPTY)
                    for i, atom in enumerate(atoms)
                ]
                for row in fire_rule(rule, sources, relations, domain,
                                     engine=engine, pool=pool):
                    if row not in relations[rule.head.relation]:
                        new_delta[rule.head.relation].add(row)
        for name in layer_heads:
            if new_delta[name]:
                relations[name] = relations[name] | frozenset(new_delta[name])
        delta = new_delta


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class StratifiedQuery(Query):
    """The query computed by a stratified program's output relation."""

    #: the program class :meth:`parse` builds
    program_type = StratifiedProgram

    def __init__(
        self,
        program: StratifiedProgram,
        output: str,
        engine: str | None = None,
    ):
        if output not in program.idb_schema:
            raise SchemaError(f"output relation {output!r} is not an IDB relation")
        if engine is not None:
            resolve_engine(engine)  # validate eagerly; resolve per call
        self.program = program
        self.output = output
        self.engine = engine
        self.arity = program.idb_schema[output]
        self.input_schema = program.edb_schema

    @classmethod
    def parse(cls, text: str, output: str, edb_schema: DatabaseSchema, **kwargs):
        return cls(cls.program_type.parse(text, edb_schema), output, **kwargs)

    def _fixpoint(self, instance: Instance) -> Instance:
        return stratified_fixpoint(self.program, instance, engine=self.engine)

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        instance = instance.restrict(
            [n for n in self.program.edb_schema if n in instance.schema]
        ).expand_schema(self.program.edb_schema)
        return self._fixpoint(instance).relation(self.output)

    def is_monotone_syntactic(self) -> bool:
        # Shim over the static analyzer.  Datalog without negation is
        # always certified; otherwise the certificate is output-sensitive:
        # the *backward slice* of the output relation must be
        # negation-free, even if other strata use negation.
        from ..analysis.static import analyze_query

        return analyze_query(self).certifies("monotone")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.output}, {self.program!r})"


class DatalogQuery(StratifiedQuery):
    """The query computed by a Datalog program's designated output relation."""

    program_type = DatalogProgram

    def _fixpoint(self, instance: Instance) -> Instance:
        return seminaive_fixpoint(self.program, instance, engine=self.engine)


class NonrecursiveQuery(StratifiedQuery):
    """The query of a nonrecursive program's output relation.

    Nonrecursive Datalog with negation has exactly FO power, so this is
    the "nonrecursive-Datalog-transducer" local language of Theorem 6(5)
    and Corollary 14(3).
    """

    program_type = NonrecursiveProgram

    def relations(self) -> frozenset[str]:
        # Only EDB relations are externally visible reads.
        return frozenset(
            name
            for rule in self.program.rules
            for name in rule.body_relations()
            if name in self.program.edb_schema
        )
