"""The compiled FO plan: equivalence with the reference interpreter.

:func:`repro.lang.fo.compile_formula` turns a formula into closures over
row sets with every column resolved to a position.  It must answer
exactly what the reference interpreter :func:`repro.lang.fo._eval`
answers, on every engine.  Hypothesis draws formulas with every
connective, nullary atoms, repeated variables, constants inside and
outside the active domain and quantifiers over variables absent from
the body, on instances and domains that may be empty and that mix
``1``, ``1.0`` and ``True``.  ∀ must equal its dual ¬∃¬, empty
instances included.  The unit tests pin the empty-domain rules
and check that a used query pickles and fingerprints like a fresh one.
"""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.examples import emptiness_transducer
from repro.db import instance, schema
from repro.db.columnar import HAVE_NUMPY
from repro.lang import FOQuery, parse_formula
from repro.lang.ast import And, Atom, Const, Eq, Exists, Forall, Not, Or, Var
from repro.lang.fo import _eval, compile_formula, evaluate, formula_constants
from repro.net.runcache import transducer_fingerprint

ENGINES = ["nested", "indexed"] + (["columnar"] if HAVE_NUMPY else [])

SCHEMA = schema(P=0, U=1, S=2)
VARS = tuple(Var(n) for n in "xyzw")
#: Instance values: 1, 1.0 and True are one element of the domain.
VALUES = (1, 1.0, True, 2, "a")
#: Formula constants: some occur in instances, "z" and 7 never do.
CONSTANTS = (1, True, 2.0, "a", "z", 7)

terms = st.one_of(st.sampled_from(VARS), st.sampled_from(CONSTANTS).map(Const))


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["P", "U", "S", "S", "eq"]))
        if kind == "P":
            return Atom("P", ())
        if kind == "eq":
            return Eq(draw(terms), draw(terms))
        arity = SCHEMA[kind]
        return Atom(kind, tuple(draw(terms) for _ in range(arity)))
    kind = draw(st.sampled_from(["not", "and", "or", "exists", "forall"]))
    if kind == "not":
        return Not(draw(formulas(depth - 1)))
    if kind in ("and", "or"):
        parts = tuple(draw(st.lists(formulas(depth - 1), min_size=2, max_size=3)))
        return And(parts) if kind == "and" else Or(parts)
    # Quantified variables are drawn from all of VARS, so some are
    # absent from the body.
    bound = tuple(draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=2,
                                unique=True)))
    body = draw(formulas(depth - 1))
    return Exists(bound, body) if kind == "exists" else Forall(bound, body)


@st.composite
def instances(draw):
    value = st.sampled_from(VALUES)
    return instance(
        SCHEMA,
        P=draw(st.sampled_from([[], [()]])),
        U=draw(st.lists(st.tuples(value), max_size=3)),
        S=draw(st.lists(st.tuples(value, value), max_size=4)),
    )


domains = st.one_of(
    st.none(),
    st.just(frozenset()),
    st.frozensets(st.sampled_from(VALUES + CONSTANTS), max_size=4),
)


def reference(formula, answer_vars, inst, domain, engine):
    if domain is None:
        domain = inst.active_domain() | formula_constants(formula)
    return _eval(formula, inst, domain, engine).reorder(answer_vars).rows


class TestPlanMatchesReference:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=200, deadline=None)
    @given(formulas(), instances(), domains, st.randoms(use_true_random=False))
    def test_random_formulas(self, engine, formula, inst, domain, rng):
        answer_vars = sorted(formula.free_vars(), key=lambda v: v.name)
        rng.shuffle(answer_vars)
        answer_vars = tuple(answer_vars)
        got = compile_formula(formula, answer_vars)(inst, domain, engine)
        assert got == reference(formula, answer_vars, inst, domain, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=100, deadline=None)
    @given(formulas(), instances())
    def test_foquery_and_evaluate_run_the_plan(self, engine, formula, inst):
        answer_vars = tuple(sorted(formula.free_vars(), key=lambda v: v.name))
        query = FOQuery(formula, answer_vars, SCHEMA, engine=engine)
        expected = reference(formula, answer_vars, inst, None, engine)
        assert query(inst) == expected
        rel = evaluate(formula, inst, engine=engine)
        assert rel.columns == answer_vars and rel.rows == expected


class TestEmptyDomainRules:
    """The reference's rules when the domain is empty."""

    def run(self, text, heads, domain=frozenset(), **rels):
        formula = parse_formula(text)
        answer_vars = tuple(Var(n) for n in heads.split(",") if n)
        inst = instance(SCHEMA, **rels)
        got = compile_formula(formula, answer_vars)(inst, domain)
        assert got == reference(formula, answer_vars, inst, domain, "indexed")
        return got

    def test_padding_nonempty_relation_gives_empty(self):
        assert self.run("U(x) | U(y)", "x,y", U=[(1,)]) == frozenset()

    def test_exists_over_absent_variable_is_false(self):
        assert self.run("exists z: P()", "", P=[()]) == frozenset()

    def test_forall_over_absent_variable_is_vacuous(self):
        assert self.run("forall z: P()", "", P=[()]) == frozenset({()})

    def test_empty_instance_default_domain(self):
        assert self.run("~U(x)", "x", domain=None) == frozenset()
        assert self.run("exists x: U(x)", "", domain=None) == frozenset()

    def test_closed_forall_is_vacuous(self):
        for text in ("forall x: U(x)", "forall x: U(x) -> S(x, x)",
                     "forall x, y: U(x)", "forall x: exists y: U(y)"):
            assert self.run(text, "", domain=None) == frozenset({()}), text

    def test_closed_forall_agrees_with_not_exists_not(self):
        assert self.run("forall x: U(x) -> S(x, x)", "", domain=None) == self.run(
            "~(exists x: U(x) & ~S(x, x))", "", domain=None)

    def test_closed_forall_ignores_rows_outside_the_domain(self):
        assert self.run("forall x: U(x)", "", U=[(1,)]) == frozenset({()})

    def test_open_forall_keeps_no_row(self):
        assert self.run("forall y: S(x, y)", "x", S=[(1, 2)]) == frozenset()
        assert self.run("forall y, w: S(x, y)", "x", S=[(1, 2)]) == frozenset()
        assert self.run("forall w: U(x)", "x", U=[(1,)]) == frozenset()


class TestForallIsNotExistsNot:
    """``forall x̄: φ`` answers what ``~exists x̄: ~φ`` does over the
    default domain (or a larger one), empty instances included."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=200, deadline=None)
    @given(
        formulas(depth=2),
        st.one_of(st.just(instance(SCHEMA)), instances()),
        st.lists(st.sampled_from(VARS), min_size=1, max_size=2, unique=True),
        st.frozensets(st.sampled_from(VALUES + CONSTANTS), max_size=2),
        st.booleans(),
    )
    def test_forall_equals_not_exists_not(self, engine, body, inst, bound, extra, widen):
        bound = tuple(bound)
        forall = Forall(bound, body)
        dual = Not(Exists(bound, Not(body)))
        answer_vars = tuple(sorted(forall.free_vars(), key=lambda v: v.name))
        domain = None
        if widen:
            domain = inst.active_domain() | formula_constants(forall) | extra
        got = compile_formula(forall, answer_vars)(inst, domain, engine)
        assert got == compile_formula(dual, answer_vars)(inst, domain, engine)
        assert got == reference(forall, answer_vars, inst, domain, engine)


class TestPlanShape:
    def test_plan_is_cached_per_formula_and_answer_tuple(self):
        formula = parse_formula("S(x, y) & ~U(x)")
        xy, yx = (Var("x"), Var("y")), (Var("y"), Var("x"))
        assert compile_formula(formula, xy) is compile_formula(formula, xy)
        assert compile_formula(formula, xy) is not compile_formula(formula, yx)

    def test_constants_collected_at_compile_time(self):
        formula = parse_formula("S(x, 'a') & exists y: U(y) & y = 3")
        assert compile_formula(formula, (Var("x"),)).constants == frozenset({"a", 3})

    def test_extent_passes_through_without_copy(self):
        inst = instance(SCHEMA, S=[(1, 2), (2, 3)])
        query = FOQuery.parse("S(x, y)", "x, y", SCHEMA)
        assert query(inst) is inst.relation("S")

    def test_answer_order_follows_answer_vars(self):
        inst = instance(SCHEMA, S=[(1, 2)])
        assert FOQuery.parse("S(x, y)", "y, x", SCHEMA)(inst) == frozenset({(2, 1)})


class TestUsedQueryUnchanged:
    """The plan lives beside the query: using one changes neither its
    pickle nor a transducer's run-cache fingerprint."""

    def test_used_query_pickles_like_a_fresh_one(self):
        text = "S(x, y) & ~(exists z: S(y, z)) | U(x) & U(y)"
        used = FOQuery.parse(text, "x, y", SCHEMA)
        used(instance(SCHEMA, S=[(1, 2)], U=[(3,)]))
        fresh = FOQuery.parse(text, "x, y", SCHEMA)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        revived = pickle.loads(pickle.dumps(used))
        inst = instance(SCHEMA, S=[(1, 2), (2, 2)], U=[(1,), (2,)])
        assert revived(inst) == fresh(inst)

    def test_used_transducer_fingerprints_like_a_fresh_one(self):
        used = emptiness_transducer()
        tschema = used.schema.combined
        inst = instance(tschema, Id=[(1,)], All=[(1,), (2,)])
        for _role, query in used.all_queries():
            query(inst)
        fresh = emptiness_transducer()
        assert transducer_fingerprint(used) == transducer_fingerprint(fresh)
        for (_, q_used), (_, q_fresh) in zip(used.all_queries(), fresh.all_queries()):
            assert pickle.dumps(q_used) == pickle.dumps(q_fresh)
