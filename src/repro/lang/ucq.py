"""Unions of conjunctive queries, with and without negation (UCQ, UCQ¬).

Proposition 7 of the paper: every query distributedly computable by an
FO-transducer is computable by a UCQ¬-transducer (and obliviously so
for monotone queries).  The classes here give those fragments a direct
syntactic home: a UCQ¬ query is a set of single rules with a shared
head; a UCQ query additionally forbids negation.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from ..db.instance import Instance
from ..db.schema import DatabaseSchema
from .ast import Rule
from .datalog import DatalogError, fire_rule, _program_constants_rules
from .engine import make_pool, resolve_engine
from .joinplan import JoinPlan, plan_for
from .query import Query

_EMPTY: frozenset = frozenset()

#: Rules ready to fire: each with its join plan and the relations its
#: positive atoms read, in body order.
CompiledRules = tuple[tuple[Rule, JoinPlan, tuple[str, ...]], ...]


@lru_cache(maxsize=4096)
def compile_rules(rules: tuple[Rule, ...]) -> CompiledRules:
    """*rules* ready to fire (memoized per rule tuple, like ``plan_for``)."""
    return tuple(
        (rule, plan_for(rule.body),
         tuple(atom.relation for atom in rule.positive_body_atoms()))
        for rule in rules
    )


class UCQNegQuery(Query):
    """A union of conjunctive queries with negation (UCQ¬).

    Constructed from rules that all share the same head relation and
    arity; each rule is one disjunct.  Bodies may use negated atoms and
    (in)equalities.  Evaluation is single-pass (no fixpoint), so the
    head name is merely a label: a body atom with the same name reads
    the *input* relation of that name — exactly the reading transducer
    insert queries need (``insert T(x,y) :- T(x,z), T(z,y)`` joins the
    current T).
    """

    negation_allowed = True

    def __init__(
        self,
        rules: tuple[Rule, ...],
        input_schema: DatabaseSchema,
        engine: str | None = None,
    ):
        if not rules:
            raise DatalogError("a UCQ needs at least one rule")
        if engine is not None:
            resolve_engine(engine)  # validate eagerly; resolve per call
        head = rules[0].head.relation
        arity = len(rules[0].head.terms)
        for rule in rules:
            rule.check_safe()
            if rule.head.relation != head or len(rule.head.terms) != arity:
                raise DatalogError("all UCQ rules must share one head")
            for atom in rule.positive_body_atoms() + rule.negative_body_atoms():
                if atom.relation not in input_schema:
                    raise DatalogError(
                        f"relation {atom.relation!r} outside input schema"
                    )
                if len(atom.terms) != input_schema[atom.relation]:
                    raise DatalogError(f"arity mismatch on {atom!r}")
            if not self.negation_allowed and rule.negative_body_atoms():
                raise DatalogError(f"negated atom in UCQ rule: {rule!r}")
        self.rules = tuple(rules)
        self.output = head
        self.arity = arity
        self.input_schema = input_schema
        self.engine = engine
        # Transducers evaluate the same UCQ once per transition; under
        # the columnar engine a per-query pool keeps extent encodings
        # for extents that did not change between calls (value-keyed,
        # size-capped).  The indexed engine keeps no pool here: its
        # indexes are keyed by whole extents, which a transducer's
        # state changes on every transition miss, so a pool never hit.
        self._column_pool = None

    def __getstate__(self):
        # The pool is a cache; rebuild it after unpickling rather than
        # ship its encodings with a pickled transducer.
        state = self.__dict__.copy()
        state["_column_pool"] = None
        return state

    @classmethod
    def parse(
        cls, text: str, input_schema: DatabaseSchema, **kwargs
    ) -> "UCQNegQuery":
        from .parser import parse_rules

        return cls(parse_rules(text), input_schema, **kwargs)

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        domain = instance.active_domain() | _program_constants_rules(self.rules)
        return frozenset(
            self.fire(compile_rules(self.rules), instance.nonempty_relations(), domain)
        )

    def fire(
        self,
        compiled: CompiledRules,
        relations: Mapping[str, frozenset],
        domain: frozenset,
    ) -> set[tuple]:
        """The head tuples that *compiled* rules derive from *relations*.

        *compiled* is :func:`compile_rules` of this query's rules or of
        a subset of them (a transducer fires its rules in groups that
        read the same relations); absent relations read as empty.  The
        engine and column pool are this query's, as in ``__call__``.
        """
        engine = resolve_engine(self.engine)
        pool = None
        if engine == "columnar":
            pool = self._column_pool
            if pool is None:
                pool = self._column_pool = make_pool(engine)
        out: set[tuple] = set()
        for rule, plan, names in compiled:
            sources = [relations.get(name, _EMPTY) for name in names]
            if engine == "indexed":
                # fire_rule's indexed path without its plan_for lookup,
                # which hashes the whole body on every call; no pool, so
                # the kernel builds each index directly.
                out |= plan.kernel(sources).fire(rule, sources, relations, domain)
            else:
                out |= fire_rule(rule, sources, relations, domain,
                                 engine=engine, pool=pool)
        return out

    def relations(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for rule in self.rules:
            out |= rule.body_relations()
        return out

    def is_monotone_syntactic(self) -> bool:
        # Shim over the static analyzer; equivalent to "no negated
        # relational atoms in any disjunct" ((in)equalities tolerated).
        from ..analysis.static import analyze_query

        return analyze_query(self).certifies("monotone")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.output}, {len(self.rules)} disjuncts)"


class UCQQuery(UCQNegQuery):
    """A union of conjunctive queries (no negated atoms): always monotone."""

    negation_allowed = False


class RuleGroup(Query):
    """Some of a UCQ¬ query's rules, run as a query of their own.

    A transducer evaluates each UCQ¬ query as groups of rules that
    read the same relations, and keeps each group's answer per extents
    of those relations (:meth:`repro.core.transducer.Transducer.transition`);
    each group runs with its query's engine and column pool.
    *constants* are the whole query's constants, added to the active
    domain, or ``None`` when no rule of the group reads the active
    domain — then it is not computed.
    """

    def __init__(
        self,
        query: UCQNegQuery,
        compiled: CompiledRules,
        constants: frozenset | None,
    ):
        self.query = query
        self.compiled = compiled
        self.constants = constants
        self.arity = query.arity
        self.input_schema = query.input_schema

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        domain = _EMPTY
        if self.constants is not None:
            domain = instance.active_domain() | self.constants
        return frozenset(
            self.query.fire(self.compiled, instance.nonempty_relations(), domain)
        )

    def relations(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for rule, _, _ in self.compiled:
            out |= rule.body_relations()
        return out

    def __repr__(self) -> str:
        return f"RuleGroup({self.query.output}, {len(self.compiled)} of {self.query!r})"
