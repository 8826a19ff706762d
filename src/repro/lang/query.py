"""The ``Query`` protocol — queries as generic partial functions.

Section 2: a k-ary query over S maps instances of S to k-ary relations
on ``adom(I)``, is generic (commutes with dom-permutations), and may be
partial.

Concrete query classes elsewhere in :mod:`repro.lang` (FO, Datalog,
UCQ¬, while) all subclass :class:`Query`.  :class:`PythonQuery` wraps an
arbitrary Python function, giving the "abstract transducer" of the
paper where any query whatsoever may be used (genericity is then the
author's obligation; :func:`check_generic` spot-checks it).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from weakref import WeakKeyDictionary

from ..db.instance import Instance
from ..db.schema import DatabaseSchema
from ..db.values import Permutation
from .ast import Formula, Var
from .engine import resolve_engine
from . import fo


class QueryUndefined(Exception):
    """Raised when a partial query is applied outside its domain."""


class Query:
    """A k-ary query: callable on instances, returning sets of k-tuples."""

    #: answer arity
    arity: int
    #: the schema the query reads (its "over S" schema)
    input_schema: DatabaseSchema

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        raise NotImplementedError

    def relations(self) -> frozenset[str]:
        """The relation names the query may read (for obliviousness checks)."""
        return frozenset(self.input_schema.relation_names())

    def is_monotone_syntactic(self) -> bool:
        """Conservative syntactic monotonicity: True means provably monotone."""
        return False

    def is_empty_syntactic(self) -> bool:
        """True when the query provably returns the empty relation always."""
        return False


#: Each FOQuery's compiled plan, looked up by the query's identity so
#: a call hashes no formula.  Kept beside the query, not on it: pickles
#: and run-cache fingerprints see only the formula.
_FO_PLANS: WeakKeyDictionary = WeakKeyDictionary()


class FOQuery(Query):
    """An FO formula with an explicit answer-variable order.

    ``FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", schema)`` expresses
    a binary query.  Free variables of the formula must coincide with
    the answer variables.
    """

    def __init__(
        self,
        formula: Formula,
        answer_vars: tuple[Var, ...],
        input_schema: DatabaseSchema,
        engine: str | None = None,
    ):
        if engine is not None:
            resolve_engine(engine)  # validate eagerly; resolve per call
        free = formula.free_vars()
        declared = set(answer_vars)
        if len(answer_vars) != len(declared):
            raise ValueError(f"duplicate answer variables: {answer_vars}")
        if free != declared:
            raise ValueError(
                f"answer variables {sorted(v.name for v in declared)} do not match "
                f"free variables {sorted(v.name for v in free)}"
            )
        for atom in fo.formula_atoms(formula):
            if atom.relation not in input_schema:
                raise ValueError(
                    f"formula reads {atom.relation!r} outside schema {input_schema}"
                )
            if len(atom.terms) != input_schema[atom.relation]:
                raise ValueError(f"arity mismatch on {atom!r}")
        self.formula = formula
        self.answer_vars = tuple(answer_vars)
        self.input_schema = input_schema
        self.engine = engine
        self.arity = len(answer_vars)

    @classmethod
    def parse(
        cls, text: str, answer_vars: str, input_schema: DatabaseSchema, **kwargs
    ) -> "FOQuery":
        """Parse formula text; *answer_vars* is a comma-separated name list."""
        from .parser import parse_formula

        formula = parse_formula(text)
        names = [n.strip() for n in answer_vars.split(",") if n.strip()]
        return cls(formula, tuple(Var(n) for n in names), input_schema, **kwargs)

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        plan = _FO_PLANS.get(self)
        if plan is None:
            plan = _FO_PLANS[self] = fo.compile_formula(self.formula, self.answer_vars)
        return plan(instance, None, resolve_engine(self.engine))

    def relations(self) -> frozenset[str]:
        return self.formula.relations()

    def is_monotone_syntactic(self) -> bool:
        # Shim over the static analyzer (the one implementation of the
        # syntactic CALM theory); equivalent to formula.is_positive().
        from ..analysis.static import analyze_query

        return analyze_query(self).certifies("monotone")

    def __repr__(self) -> str:
        heads = ", ".join(v.name for v in self.answer_vars)
        return f"FOQuery[{heads}]({self.formula!r})"


class EmptyQuery(Query):
    """The query that always returns the empty k-ary relation.

    The default for unspecified transducer queries; an inflationary
    transducer is one whose deletion queries are all (semantically)
    empty, for which this class is the syntactic witness.
    """

    def __init__(self, arity: int, input_schema: DatabaseSchema):
        self.arity = arity
        self.input_schema = input_schema

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        return frozenset()

    def relations(self) -> frozenset[str]:
        return frozenset()

    def is_monotone_syntactic(self) -> bool:
        return True

    def is_empty_syntactic(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"EmptyQuery(arity={self.arity})"


class PythonQuery(Query):
    """A query given by an arbitrary Python function on instances.

    This realizes the paper's *abstract* transducers ("an abstract
    relational transducer ... is just a collection of queries") and its
    computationally complete language L: any partial computable generic
    function can be plugged in.  The function must return an iterable of
    k-tuples; raise :class:`QueryUndefined` to model partiality.
    """

    def __init__(
        self,
        func: Callable[[Instance], Iterable[tuple]],
        arity: int,
        input_schema: DatabaseSchema,
        reads: Iterable[str] | None = None,
        monotone: bool = False,
        name: str | None = None,
    ):
        self.func = func
        self.arity = arity
        self.input_schema = input_schema
        self._reads = (
            frozenset(reads) if reads is not None
            else frozenset(input_schema.relation_names())
        )
        self._monotone = monotone
        self.name = name or getattr(func, "__name__", "python_query")

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        result = frozenset(tuple(t) for t in self.func(instance))
        for t in result:
            if len(t) != self.arity:
                raise ValueError(
                    f"{self.name} returned tuple {t!r} of arity {len(t)}, "
                    f"declared {self.arity}"
                )
        return result

    def relations(self) -> frozenset[str]:
        return self._reads

    def is_monotone_syntactic(self) -> bool:
        return self._monotone

    def __repr__(self) -> str:
        return f"PythonQuery({self.name}, arity={self.arity})"


# ---------------------------------------------------------------------------
# Genericity testing
# ---------------------------------------------------------------------------


def check_generic(
    query: Query,
    instance: Instance,
    permutation: Permutation,
) -> bool:
    """Spot-check genericity: ``Q(h(I)) == h(Q(I))`` for the given *h*.

    Partial queries pass the check when they are undefined on both sides.
    """
    try:
        direct = query(instance)
        direct_defined = True
    except QueryUndefined:
        direct_defined = False
    try:
        permuted = query(instance.apply(permutation))
        permuted_defined = True
    except QueryUndefined:
        permuted_defined = False
    if direct_defined != permuted_defined:
        return False
    if not direct_defined:
        return True
    mapped = frozenset(permutation.apply_tuple(t) for t in direct)
    return mapped == permuted


def check_answers_in_adom(query: Query, instance: Instance) -> bool:
    """Check condition (i) of the query definition: answers ⊆ adom(I)^k."""
    try:
        answers = query(instance)
    except QueryUndefined:
        return True
    adom = instance.active_domain()
    return all(all(v in adom for v in t) for t in answers)
