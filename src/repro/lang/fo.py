"""First-order logic under the active-domain semantics (Section 2).

"An FO formula φ(x1, ..., xk) expresses the k-ary query defined by
φ(I) = {(a1, ..., ak) ∈ adom(I)^k | (adom(I), I) ⊨ φ[a1, ..., ak]}."

Evaluation is bottom-up: each subformula denotes a set of rows over its
free variables, and quantifiers and negation use the evaluation domain
(``adom(I)`` plus the formula's constants) as the range, exactly as the
definition demands.

A formula runs as a compiled plan (:func:`compile_formula`, memoized
per formula and answer tuple).  Compiling fixes each subformula's
column layout, so every variable becomes an integer position, and
collects the formula's constants once; each connective becomes a
closure over row sets.  A subformula without free variables is a truth
value, ∧ stops at an empty side, and ∨ pads each side with the domain
straight to the joint layout.  Under the ``columnar`` engine a join on
shared columns runs through :func:`repro.lang.vecjoin.named_join`.
:class:`~repro.lang.query.FOQuery` and :func:`evaluate` both run the
plan.

:func:`_eval` is the reference interpreter: it walks the formula on
every call and maps the connectives to the
:class:`~repro.lang.ra.NamedRelation` operators.  Nothing runs it but
the differential suite, which checks the plan against it the way the
nested-loop join checks :class:`~repro.lang.joinplan.JoinPlan`.

Constants appearing in a formula are *not* automatically part of the
range of quantification; they are part of the formula, and the query a
formula with constants expresses is generic only up to those constants
(the standard C-genericity caveat).  The evaluator adds formula
constants to the evaluation domain so that, e.g., ``x = 'a'`` behaves
as expected, while :func:`repro.lang.query.check_generic` lets tests
verify genericity for constant-free formulas.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .ast import And, Atom, Const, Eq, Exists, Forall, Formula, Not, Or, Var
from ..db.instance import Instance
from .engine import resolve_engine
from .ra import NamedRelation

_EMPTY: frozenset = frozenset()
_TRUE: frozenset = frozenset({()})


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

    Returns a named relation over the formula's free variables, sorted
    by name (use :meth:`NamedRelation.reorder` for a specific
    answer-tuple order).

    *domain* defaults to ``adom(I)`` plus the formula's constants; pass
    a larger set to evaluate under an extended domain.

    *engine* selects the conjunction strategy: under ``"columnar"``,
    ∧-joins on shared columns run through the vectorized natural join
    (:func:`repro.lang.vecjoin.named_join`), falling back to the
    tuple-at-a-time join where it does not apply.  All other
    connectives are shared across engines.
    """
    answer_vars = tuple(sorted(formula.free_vars(), key=lambda v: v.name))
    plan = compile_formula(formula, answer_vars)
    rows = plan(instance, domain, resolve_engine(engine))
    return NamedRelation.adopt(answer_vars, rows)


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


class FOPlan:
    """A formula compiled for one answer-variable order.

    Calling it with an instance (and optionally a domain and an engine
    name) returns the answer rows in the order of *answer_vars*.  Built
    by :func:`compile_formula`; holds no per-call state, so one plan
    serves every thread.
    """

    __slots__ = ("answer_vars", "constants", "_root", "_reorder")

    def __init__(self, formula: Formula, answer_vars: tuple[Var, ...]):
        declared = set(answer_vars)
        if len(declared) != len(answer_vars) or declared != formula.free_vars():
            raise ValueError(
                f"answer variables {answer_vars} are not the free variables "
                f"of {formula!r}"
            )
        columns, self._root = _compile(formula)
        self.answer_vars = answer_vars
        self.constants = formula_constants(formula)
        self._reorder = (
            None if columns == answer_vars
            else _getter([columns.index(v) for v in answer_vars])
        )

    def __call__(
        self,
        instance: Instance,
        domain: frozenset | None = None,
        engine: str = "indexed",
    ) -> frozenset[tuple]:
        if domain is None:
            domain = instance.active_domain()
            if self.constants:
                domain = domain | self.constants
        rows = self._root(instance, domain, engine == "columnar")
        if not self.answer_vars:
            return _TRUE if rows else _EMPTY
        if self._reorder is not None:
            return frozenset(map(self._reorder, rows))
        return frozenset(rows)


@lru_cache(maxsize=4096)
def compile_formula(formula: Formula, answer_vars: tuple[Var, ...]) -> FOPlan:
    """The (memoized) compiled plan of *formula* for *answer_vars*.

    Formulas are immutable and hashable, so a plan is compiled once per
    distinct formula and answer tuple for the lifetime of the process,
    like :func:`repro.lang.joinplan.plan_for`.
    """
    return FOPlan(formula, answer_vars)


# Every compiled node is ``(columns, run)``: *columns* is the node's
# row layout, fixed at compile time, and ``run(instance, domain,
# columnar)`` returns the rows, a set of tuples over *columns* (a
# truth value when *columns* is empty).  Nodes never mutate the sets
# they receive, so an extent passes through unchanged.


def _getter(positions):
    """A function mapping a row to the tuple of its *positions*."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _compile(formula: Formula):
    if isinstance(formula, Atom):
        return _compile_atom(formula)
    if isinstance(formula, Eq):
        return _compile_eq(formula)
    if isinstance(formula, Not):
        return _compile_not(formula)
    if isinstance(formula, And):
        node = _compile(formula.parts[0])
        for part in formula.parts[1:]:
            node = _compile_and(node, _compile(part))
        return node
    if isinstance(formula, Or):
        return _compile_or([_compile(part) for part in formula.parts])
    if isinstance(formula, Exists):
        return _compile_exists(formula)
    if isinstance(formula, Forall):
        return _compile_forall(formula)
    raise TypeError(f"not a formula: {formula!r}")


def _compile_atom(atom: Atom):
    name = atom.relation
    first: dict[Var, int] = {}
    consts: list[tuple[int, object]] = []
    repeats: list[tuple[int, int]] = []
    for i, t in enumerate(atom.terms):
        if isinstance(t, Const):
            consts.append((i, t.value))
        elif t in first:
            repeats.append((i, first[t]))
        else:
            first[t] = i
    columns = tuple(first)
    if not consts and not repeats:
        # All terms are distinct variables: the extent is the answer.
        if not columns:
            return (), lambda inst, dom, col: bool(inst.relation(name))
        return columns, lambda inst, dom, col: inst.relation(name)
    consts_t, repeats_t = tuple(consts), tuple(repeats)

    def matches(row) -> bool:
        for i, value in consts_t:
            if row[i] != value:
                return False
        for i, j in repeats_t:
            if row[j] != row[i]:
                return False
        return True

    if not columns:
        return (), lambda inst, dom, col: any(map(matches, inst.relation(name)))
    keep = _getter(list(first.values()))
    return columns, lambda inst, dom, col: {
        keep(row) for row in inst.relation(name) if matches(row)
    }


def _compile_eq(eq: Eq):
    left, right = eq.left, eq.right
    if isinstance(left, Const) and isinstance(right, Const):
        truth = left.value == right.value
        return (), lambda inst, dom, col: truth
    if isinstance(left, Var) and isinstance(right, Var):
        if left == right:
            return (left,), lambda inst, dom, col: {(v,) for v in dom}
        return (left, right), lambda inst, dom, col: {(v, v) for v in dom}
    var, const = (left, right) if isinstance(left, Var) else (right, left)
    value, row = const.value, frozenset({(const.value,)})
    return (var,), lambda inst, dom, col: row if value in dom else _EMPTY


def _compile_not(formula: Not):
    columns, body = _compile(formula.body)
    if not columns:
        return (), lambda inst, dom, col: not body(inst, dom, col)
    k = len(columns)

    def complement(inst, dom, col):
        rows = body(inst, dom, col)
        return {r for r in product(dom, repeat=k) if r not in rows}

    return columns, complement


def _compile_and(left, right):
    lcols, lrun = left
    rcols, rrun = right
    if not lcols:
        if not rcols:
            return (), lambda inst, dom, col: lrun(inst, dom, col) and rrun(inst, dom, col)
        return rcols, lambda inst, dom, col: (
            rrun(inst, dom, col) if lrun(inst, dom, col) else _EMPTY
        )
    if not rcols:
        def guarded(inst, dom, col):
            rows = lrun(inst, dom, col)
            return rows if rows and rrun(inst, dom, col) else _EMPTY

        return lcols, guarded
    shared = [c for c in lcols if c in rcols]
    rest = [j for j, c in enumerate(rcols) if c not in lcols]
    columns = lcols + tuple(rcols[j] for j in rest)
    if not shared:
        def cross(inst, dom, col):
            rows = lrun(inst, dom, col)
            if not rows:
                return _EMPTY
            others = rrun(inst, dom, col)
            return {r + s for r in rows for s in others}

        return columns, cross
    lkey = _getter([lcols.index(c) for c in shared])
    rkey = _getter([rcols.index(c) for c in shared])
    rrest = _getter(rest)

    def join(inst, dom, col):
        rows = lrun(inst, dom, col)
        if not rows:
            return _EMPTY
        others = rrun(inst, dom, col)
        if not others:
            return _EMPTY
        if col:
            from .vecjoin import named_join

            joined = named_join(
                NamedRelation.adopt(lcols, rows), NamedRelation.adopt(rcols, others)
            )
            if joined is not None:
                return joined.rows
        if not rest:
            keys = set(map(rkey, others))
            return {r for r in rows if lkey(r) in keys}
        buckets: dict[tuple, list[tuple]] = {}
        for s in others:
            buckets.setdefault(rkey(s), []).append(rrest(s))
        return {r + s for r in rows for s in buckets.get(lkey(r), ())}

    return columns, join


def _compile_or(parts):
    columns: tuple = ()
    for cols, _ in parts:
        columns += tuple(c for c in cols if c not in columns)
    runs = [run for _, run in parts]
    if not columns:
        def any_true(inst, dom, col):
            for run in runs:
                if run(inst, dom, col):
                    return True
            return False

        return (), any_true
    pads = [_pad_to(cols, run, columns) for cols, run in parts]

    def union(inst, dom, col):
        out: set = set()
        for pad in pads:
            pad(out, inst, dom, col)
        return out

    return columns, union


def _pad_to(cols, run, columns):
    """A function adding *run*'s rows to a set over *columns*, each new
    column ranging over the domain (the ∨ semantics over ``adom``)."""
    k = len(columns)
    if cols == columns:
        return lambda out, inst, dom, col: out.update(run(inst, dom, col))
    if not cols:
        def pad_truth(out, inst, dom, col):
            if run(inst, dom, col):
                out.update(product(dom, repeat=k))

        return pad_truth
    extra = tuple(c for c in columns if c not in cols)
    layout = cols + extra
    m = len(extra)
    # *columns* has two or more entries here, so itemgetter gives tuples.
    reorder = None if layout == columns else itemgetter(
        *[layout.index(c) for c in columns]
    )

    def pad(out, inst, dom, col):
        rows = run(inst, dom, col)
        if not rows:
            return
        fills = list(product(dom, repeat=m))
        if reorder is None:
            out.update(r + f for r in rows for f in fills)
        else:
            out.update(reorder(r + f) for r in rows for f in fills)

    return pad


def _compile_exists(formula: Exists):
    bcols, body = _compile(formula.body)
    bound = set(formula.variables)
    columns = tuple(c for c in bcols if c not in bound)
    if any(v not in bcols for v in formula.variables):
        # A quantified variable absent from the body ranges over the
        # domain; ∃ then requires the domain to be nonempty.
        inner = body

        def body(inst, dom, col):
            if not dom:
                return False if not bcols else _EMPTY
            return inner(inst, dom, col)

    if columns == bcols:
        return columns, body
    if not columns:
        return (), lambda inst, dom, col: bool(body(inst, dom, col))
    keep = _getter([bcols.index(c) for c in columns])
    return columns, lambda inst, dom, col: set(map(keep, body(inst, dom, col)))


def _compile_forall(formula: Forall):
    # Over an empty domain ∀ holds vacuously, as ¬∃¬ does: a sentence
    # is true and no row exists to keep.
    bcols, body = _compile(formula.body)
    bound = [v for v in formula.variables if v in bcols]
    columns = tuple(c for c in bcols if c not in set(formula.variables))
    n_bound = len(bound)
    if not columns:
        def forall_closed(inst, dom, col):
            if not dom:
                return True
            rows = body(inst, dom, col)
            return len(rows) == len(dom) ** n_bound if n_bound else rows

        return (), forall_closed
    if not bound:
        # The body does not mention a quantified variable: over a
        # nonempty domain its truth is independent of them.
        return columns, lambda inst, dom, col: body(inst, dom, col) if dom else _EMPTY
    keep = _getter([bcols.index(c) for c in columns])

    def forall(inst, dom, col):
        # Rows are distinct, so a free key's count is the size of its
        # section; it must cover domain^k (no key does when it is empty).
        needed = len(dom) ** n_bound
        counts = Counter(map(keep, body(inst, dom, col)))
        return {key for key, n in counts.items() if n == needed}

    return columns, forall


# ---------------------------------------------------------------------------
# The reference interpreter
# ---------------------------------------------------------------------------


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
        if not domain:
            # ∀ over an empty domain holds vacuously: a sentence is
            # true, and no row exists to keep.
            return NamedRelation(free, () if free else [()])
        if not bound:
            # The body does not mention a quantified variable: its truth
            # is independent of them.
            return inner
        needed = len(domain) ** len(bound)
        sections: dict[tuple, set[tuple]] = {}
        free_index = [inner.columns.index(c) for c in free]
        bound_index = [inner.columns.index(c) for c in bound]
        for row in inner.rows:
            key = tuple(row[i] for i in free_index)
            sections.setdefault(key, set()).add(tuple(row[i] for i in bound_index))
        return NamedRelation(free, [key for key, sec in sections.items() if len(sec) == needed])
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
