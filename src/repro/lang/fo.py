"""First-order logic under the active-domain semantics (Section 2).

"An FO formula φ(x1, ..., xk) expresses the k-ary query defined by
φ(I) = {(a1, ..., ak) ∈ adom(I)^k | (adom(I), I) ⊨ φ[a1, ..., ak]}."

Evaluation is bottom-up: each subformula denotes a
:class:`~repro.lang.ra.NamedRelation` over its free variables; the
connectives map to the algebra operators.  Quantifiers and negation use
``adom(I)`` as the range, exactly as the definition demands.

Constants appearing in a formula are *not* automatically part of the
range of quantification; they are part of the formula, and the query a
formula with constants expresses is generic only up to those constants
(the standard C-genericity caveat).  The evaluator adds formula
constants to the evaluation domain so that, e.g., ``x = 'a'`` behaves
as expected, while :func:`repro.lang.query.check_generic` lets tests
verify genericity for constant-free formulas.
"""

from __future__ import annotations

from .ast import And, Atom, Const, Eq, Exists, Forall, Formula, Not, Or, Var
from ..db.instance import Instance
from .engine import resolve_engine
from .ra import NamedRelation


def formula_atoms(formula: Formula) -> tuple[Atom, ...]:
    """Every relational atom of the formula, in syntactic order."""
    if isinstance(formula, Atom):
        return (formula,)
    if isinstance(formula, Eq):
        return ()
    if isinstance(formula, (Not, Exists, Forall)):
        return formula_atoms(formula.body)
    if isinstance(formula, (And, Or)):
        return tuple(atom for p in formula.parts for atom in formula_atoms(p))
    raise TypeError(f"not a formula: {formula!r}")


def formula_constants(formula: Formula) -> frozenset:
    """All constant values appearing in the formula."""
    if isinstance(formula, Atom):
        return frozenset(t.value for t in formula.terms if isinstance(t, Const))
    if isinstance(formula, Eq):
        return frozenset(
            t.value for t in (formula.left, formula.right) if isinstance(t, Const)
        )
    if isinstance(formula, Not):
        return formula_constants(formula.body)
    if isinstance(formula, (And, Or)):
        out: frozenset = frozenset()
        for p in formula.parts:
            out |= formula_constants(p)
        return out
    if isinstance(formula, (Exists, Forall)):
        return formula_constants(formula.body)
    raise TypeError(f"not a formula: {formula!r}")


def evaluate(
    formula: Formula,
    instance: Instance,
    domain: frozenset | None = None,
    engine: str | None = None,
) -> NamedRelation:
    """Evaluate *formula* on *instance* under the active-domain semantics.

    Returns a named relation over the formula's free variables (in an
    order chosen by the evaluator; use :meth:`NamedRelation.reorder` for
    a specific answer-tuple order).

    *domain* defaults to ``adom(I)`` plus the formula's constants; pass
    a larger set to evaluate under an extended domain (used by the
    transducer runtime to include received messages).

    *engine* selects the conjunction strategy: under ``"columnar"``,
    ∧-joins of named relations run through the vectorized natural join
    (:func:`repro.lang.vecjoin.named_join`), falling back to the
    tuple-at-a-time algebra where it does not apply.  All other
    connectives are shared across engines.
    """
    engine = resolve_engine(engine)
    if domain is None:
        domain = instance.active_domain() | formula_constants(formula)
    return _eval(formula, instance, domain, engine)


def _eval(
    formula: Formula,
    instance: Instance,
    domain: frozenset,
    engine: str = "indexed",
) -> NamedRelation:
    if isinstance(formula, Atom):
        return _eval_atom(formula, instance)
    if isinstance(formula, Eq):
        return _eval_eq(formula, domain)
    if isinstance(formula, Not):
        inner = _eval(formula.body, instance, domain, engine)
        return inner.complement(domain)
    if isinstance(formula, And):
        result = _eval(formula.parts[0], instance, domain, engine)
        for part in formula.parts[1:]:
            other = _eval(part, instance, domain, engine)
            joined = None
            if engine == "columnar":
                from .vecjoin import named_join

                joined = named_join(result, other)
            result = joined if joined is not None else result.join(other)
        return result
    if isinstance(formula, Or):
        result = _eval(formula.parts[0], instance, domain, engine)
        for part in formula.parts[1:]:
            result = result.union(_eval(part, instance, domain, engine), domain)
        return result
    if isinstance(formula, Exists):
        inner = _eval(formula.body, instance, domain, engine)
        # A quantified variable not occurring in the body ranges over the
        # domain; ∃ then requires the domain to be nonempty.
        missing = [v for v in formula.variables if v not in inner.columns]
        if missing and not domain:
            return NamedRelation(
                tuple(c for c in inner.columns if c not in set(formula.variables)), ()
            )
        return inner.drop([v for v in formula.variables if v in inner.columns])
    if isinstance(formula, Forall):
        # ∀x φ  ≡  ¬∃x ¬φ, evaluated directly for efficiency:
        # keep rows (over the other columns) whose section covers domain^k.
        inner = _eval(formula.body, instance, domain, engine)
        bound = tuple(v for v in formula.variables if v in inner.columns)
        free = tuple(c for c in inner.columns if c not in set(formula.variables))
        phantom = [v for v in formula.variables if v not in inner.columns]
        if phantom and not domain:
            # ∀ over an empty domain is vacuously true for all rows.
            return inner.project(free)
        needed = len(domain) ** len(bound)
        sections: dict[tuple, set[tuple]] = {}
        free_index = [inner.columns.index(c) for c in free]
        bound_index = [inner.columns.index(c) for c in bound]
        for row in inner.rows:
            key = tuple(row[i] for i in free_index)
            sections.setdefault(key, set()).add(tuple(row[i] for i in bound_index))
        rows = [key for key, sec in sections.items() if len(sec) == needed]
        if not bound:
            # all variables phantom: body's truth is independent of them
            rows = [tuple(row[i] for i in free_index) for row in inner.rows]
        return NamedRelation(free, rows)
    raise TypeError(f"not a formula: {formula!r}")


def _eval_atom(atom: Atom, instance: Instance) -> NamedRelation:
    tuples = instance.relation(atom.relation)
    # Select on constants and repeated variables, then project to distinct vars.
    out_columns: list[Var] = []
    first_pos: dict[Var, int] = {}
    for i, t in enumerate(atom.terms):
        if isinstance(t, Var) and t not in first_pos:
            first_pos[t] = i
            out_columns.append(t)
    if len(out_columns) == len(atom.terms):
        # All terms are distinct variables: the extent is the relation —
        # adopt it wholesale, no frozenset rebuild.
        return NamedRelation.adopt(tuple(out_columns), tuples)
    rows = []
    for row in tuples:
        ok = True
        for i, t in enumerate(atom.terms):
            if isinstance(t, Const):
                if row[i] != t.value:
                    ok = False
                    break
            else:
                if row[first_pos[t]] != row[i]:
                    ok = False
                    break
        if ok:
            rows.append(tuple(row[first_pos[v]] for v in out_columns))
    return NamedRelation(tuple(out_columns), rows)


def _eval_eq(eq: Eq, domain: frozenset) -> NamedRelation:
    left, right = eq.left, eq.right
    if isinstance(left, Const) and isinstance(right, Const):
        return NamedRelation.nullary(left.value == right.value)
    if isinstance(left, Var) and isinstance(right, Var):
        if left == right:
            return NamedRelation((left,), ((v,) for v in domain))
        return NamedRelation((left, right), ((v, v) for v in domain))
    var, const = (left, right) if isinstance(left, Var) else (right, left)
    assert isinstance(var, Var) and isinstance(const, Const)
    if const.value in domain:
        return NamedRelation((var,), ((const.value,),))
    return NamedRelation((var,), ())
