"""Dedalus programs: validation and schema inference.

A program's deductive core must be stratifiable ("the deductive rules
must be stratifiable, thus guaranteeing modular stratification and a
deterministic semantics"); inductive and async rules may negate freely
(their heads live at later timestamps, so no rule depends on its own
timestep's output through negation).
"""

from __future__ import annotations

from ..db.schema import DatabaseSchema, SchemaError
from ..lang.ast import Atom, Rule
from ..lang.datalog import DatalogError, StratifiedProgram
from .ast import NOW_RELATION, DedalusRule, RuleKind
from .parser import parse_dedalus_rules


class DedalusProgram:
    """A validated Dedalus program over an EDB schema.

    Relation arities are as written (the implicit timestamp position is
    not counted).  Every head relation is IDB; EDB relations may only be
    read.  Persistence of EDB facts across timesteps is *not* automatic:
    programs persist what they need with ``R(x) @next :- R(x)`` rules,
    exactly as the paper prescribes ("since input facts can arrive at
    any timestamp, they are persisted") — but because EDB relations
    cannot be heads, the idiom is to copy EDB facts into an IDB twin
    first (or declare arriving relations as IDB-fed via async rules).
    For convenience, :meth:`persisted_edb` generates the twin rules.
    """

    def __init__(
        self,
        rules: tuple[DedalusRule, ...],
        edb_schema: DatabaseSchema,
        extra_idb: dict[str, int] | None = None,
    ):
        if NOW_RELATION in edb_schema:
            raise SchemaError(f"relation name {NOW_RELATION!r} is reserved")
        self.rules = tuple(rules)
        self.edb_schema = edb_schema
        # extra_idb declares IDB relations that are read but never derived
        # (their extent is always empty) — e.g. head-state predicates for
        # states a compiled TM never re-enters.
        idb: dict[str, int] = dict(extra_idb or {})
        for name in idb:
            if name in edb_schema or name == NOW_RELATION:
                raise SchemaError(f"extra IDB relation {name!r} clashes")
        for drule in self.rules:
            drule.evaluation_rule().check_safe()
            head = drule.head
            if head.relation in edb_schema:
                raise DatalogError(
                    f"EDB relation {head.relation!r} used as a rule head"
                )
            if head.relation == NOW_RELATION:
                raise DatalogError(f"{NOW_RELATION!r} is reserved")
            arity = idb.setdefault(head.relation, len(head.terms))
            if arity != len(head.terms):
                raise DatalogError(f"inconsistent arity for {head.relation!r}")
        self.idb_schema = DatabaseSchema(idb)
        full = self.schema
        for drule in self.rules:
            for atom in (
                drule.rule.positive_body_atoms() + drule.rule.negative_body_atoms()
            ):
                if atom.relation == NOW_RELATION:
                    if len(atom.terms) != 1:
                        raise DatalogError(f"{NOW_RELATION} is unary")
                    continue
                if atom.relation not in full:
                    raise DatalogError(
                        f"relation {atom.relation!r} is neither EDB nor IDB"
                    )
                if len(atom.terms) != full[atom.relation]:
                    raise DatalogError(f"arity mismatch on {atom!r}")
        self.deductive_program = self._deductive_core()

    @classmethod
    def parse(
        cls,
        text: str,
        edb_schema: DatabaseSchema,
        extra_idb: dict[str, int] | None = None,
    ) -> "DedalusProgram":
        return cls(parse_dedalus_rules(text), edb_schema, extra_idb)

    @property
    def schema(self) -> DatabaseSchema:
        return self.edb_schema.union(self.idb_schema)

    def deductive_rules(self) -> tuple[Rule, ...]:
        return tuple(
            d.evaluation_rule() for d in self.rules if d.kind is RuleKind.DEDUCTIVE
        )

    def inductive_rules(self) -> tuple[DedalusRule, ...]:
        return tuple(d for d in self.rules if d.kind is RuleKind.INDUCTIVE)

    def async_rules(self) -> tuple[DedalusRule, ...]:
        return tuple(d for d in self.rules if d.kind is RuleKind.ASYNC)

    def _deductive_core(self) -> StratifiedProgram | None:
        """The deductive rules as one :class:`StratifiedProgram` (``None``
        when there are none), which validates them.

        IDB relations only defined by inductive/async rules act as EDB
        within a timestep.
        """
        deductive = self.deductive_rules()
        if not deductive:
            return None
        deductive_heads = {r.head.relation for r in deductive}
        pseudo_edb = dict(self.edb_schema)
        pseudo_edb[NOW_RELATION] = 1
        for name, arity in self.idb_schema.items():
            if name not in deductive_heads:
                pseudo_edb[name] = arity
        # StratifiedProgram raises StratificationError when negation
        # occurs through recursion.
        return StratifiedProgram(deductive, DatabaseSchema(pseudo_edb))

    def is_entangled(self) -> bool:
        """Does any rule copy ``now`` into data positions?"""
        return any(d.is_entangled() for d in self.rules)

    def persisted_edb(self) -> "DedalusProgram":
        """A program extended with EDB persistence through IDB twins.

        For every EDB relation ``R`` a twin ``R_p`` is added with rules
        ``R_p(x̄) :- R(x̄)`` and ``R_p(x̄) @next :- R_p(x̄)``.
        """
        extra: list[DedalusRule] = []
        from ..lang.ast import Literal, Var

        for r in self.edb_schema.relation_names():
            arity = self.edb_schema[r]
            xs = tuple(Var(f"x{i + 1}") for i in range(arity))
            twin = r + "_p"
            if twin in self.schema:
                raise SchemaError(f"twin relation {twin!r} already exists")
            copy = Rule(Atom(twin, xs), (Literal(Atom(r, xs)),))
            persist = Rule(Atom(twin, xs), (Literal(Atom(twin, xs)),))
            extra.append(DedalusRule(copy, RuleKind.DEDUCTIVE))
            extra.append(DedalusRule(persist, RuleKind.INDUCTIVE))
        return DedalusProgram(self.rules + tuple(extra), self.edb_schema)

    def __repr__(self) -> str:
        kinds = {
            "deductive": sum(1 for d in self.rules if d.kind is RuleKind.DEDUCTIVE),
            "inductive": sum(1 for d in self.rules if d.kind is RuleKind.INDUCTIVE),
            "async": sum(1 for d in self.rules if d.kind is RuleKind.ASYNC),
        }
        return (
            f"DedalusProgram({len(self.rules)} rules: {kinds}, "
            f"idb={list(self.idb_schema)})"
        )
