"""FO evaluation under the active-domain semantics (Section 2)."""

import pytest

from repro.db import Instance, instance, schema
from repro.db.columnar import HAVE_NUMPY
from repro.lang import FOQuery, check_answers_in_adom, check_generic, parse_formula
from repro.lang.fo import evaluate, formula_constants
from repro.db.values import Permutation


@pytest.fixture
def sch():
    return schema(S=2, T=1)


@pytest.fixture
def inst(sch):
    return instance(sch, S=[(1, 2), (2, 3), (3, 3)], T=[(2,)])


def q(text, heads, sch):
    return FOQuery.parse(text, heads, sch)


class TestAtoms:
    def test_full_scan(self, sch, inst):
        assert q("S(x, y)", "x, y", sch)(inst) == frozenset(
            {(1, 2), (2, 3), (3, 3)}
        )

    def test_constant_selection(self, sch, inst):
        assert q("S(x, 3)", "x", sch)(inst) == frozenset({(2,), (3,)})

    def test_repeated_variable_selection(self, sch, inst):
        assert q("S(x, x)", "x", sch)(inst) == frozenset({(3,)})

    def test_empty_relation(self, sch):
        empty = Instance.empty(sch)
        assert q("S(x, y)", "x, y", sch)(empty) == frozenset()


class TestConnectives:
    def test_join(self, sch, inst):
        got = q("S(x, y) & S(y, z)", "x, y, z", sch)(inst)
        assert got == frozenset({(1, 2, 3), (2, 3, 3), (3, 3, 3)})

    def test_negation_is_adom_complement(self, sch, inst):
        got = q("~T(x)", "x", sch)(inst)
        assert got == frozenset({(1,), (3,)})

    def test_disjunction_pads_with_adom(self, sch, inst):
        # T(x) | T(y): free variables x, y each range over adom on the
        # side that does not constrain them.
        got = q("T(x) | T(y)", "x, y", sch)(inst)
        adom = {1, 2, 3}
        expected = {(2, a) for a in adom} | {(a, 2) for a in adom}
        assert got == frozenset(expected)

    def test_equality(self, sch, inst):
        got = q("S(x, y) & x = y", "x, y", sch)(inst)
        assert got == frozenset({(3, 3)})

    def test_inequality(self, sch, inst):
        got = q("S(x, y) & x != y", "x, y", sch)(inst)
        assert got == frozenset({(1, 2), (2, 3)})


class TestQuantifiers:
    def test_exists(self, sch, inst):
        got = q("exists y: S(y, x)", "x", sch)(inst)
        assert got == frozenset({(2,), (3,)})

    def test_forall(self, sch, inst):
        # all elements y with S(y,y) (just 3) must point at x
        got = q("forall y: S(y, y) -> S(y, x)", "x", sch)(inst)
        assert got == frozenset({(3,)})

    def test_forall_vacuous_over_empty(self, sch):
        empty_s = instance(sch, T=[(1,)])
        got = q("T(x) & (forall y: S(y, y) -> S(y, x))", "x", sch)(empty_s)
        assert got == frozenset({(1,)})

    def test_quantified_variable_not_in_body(self, sch, inst):
        # exists z: T(x) — z ranges over (nonempty) adom, so equal to T(x)
        got = q("exists z: T(x) & z = z", "x", sch)(inst)
        assert got == frozenset({(2,)})

    def test_boolean_query_true(self, sch, inst):
        got = q("exists x, y: S(x, y)", "", sch)(inst)
        assert got == frozenset({()})

    def test_boolean_query_false(self, sch):
        got = q("exists x, y: S(x, y)", "", sch)(Instance.empty(sch))
        assert got == frozenset()


class TestQueryValidation:
    def test_answer_vars_must_match_free_vars(self, sch):
        with pytest.raises(ValueError):
            FOQuery.parse("S(x, y)", "x", sch)

    def test_duplicate_answer_vars_rejected(self, sch):
        with pytest.raises(ValueError):
            FOQuery.parse("S(x, y)", "x, x, y", sch)

    def test_unknown_relation_rejected(self, sch):
        with pytest.raises(ValueError):
            FOQuery.parse("U(x)", "x", sch)

    @pytest.mark.parametrize(
        "engine", ["nested", "indexed"] + (["columnar"] if HAVE_NUMPY else [])
    )
    @pytest.mark.parametrize(
        "text,heads",
        [
            ("S(x)", "x"),
            ("T(x) & ~S(x)", "x"),
            ("exists y: S(x, y, y)", "x"),
            ("T(x) | (forall y: S(y) -> T(y))", "x"),
        ],
    )
    def test_wrong_arity_rejected(self, sch, engine, text, heads):
        # Otherwise a unary S(x) over binary S answers binary tuples.
        with pytest.raises(ValueError, match="arity mismatch on S"):
            FOQuery.parse(text, heads, sch, engine=engine)

    def test_relations_reported(self, sch):
        query = q("S(x, y) & ~T(x)", "x, y", sch)
        assert query.relations() == frozenset({"S", "T"})

    def test_monotone_flag(self, sch):
        assert q("S(x, y) | T(x) & T(y)", "x, y", sch).is_monotone_syntactic()
        assert not q("S(x, y) & ~T(x)", "x, y", sch).is_monotone_syntactic()
        assert not FOQuery.parse(
            "T(x) & (forall y: T(y) -> S(x, y))", "x", sch
        ).is_monotone_syntactic()


class TestSemanticsProperties:
    def test_answers_in_adom(self, sch, inst):
        for text, heads in [
            ("S(x, y) & ~S(y, x)", "x, y"),
            ("~T(x)", "x"),
            ("exists y: S(x, y)", "x"),
        ]:
            assert check_answers_in_adom(q(text, heads, sch), inst)

    def test_genericity_constant_free(self, sch, inst):
        query = q("S(x, y) & ~S(y, x)", "x, y", sch)
        for h in [Permutation.swap(1, 2), Permutation.cycle([1, 2, 3])]:
            assert check_generic(query, inst, h)

    def test_formula_constants_collected(self):
        f = parse_formula("S(x, 'a') & exists y: T(y, 3)")
        assert formula_constants(f) == frozenset({"a", 3})

    def test_evaluate_with_extended_domain(self, sch, inst):
        # negation over an explicitly larger domain
        f = parse_formula("~T(x)")
        rel = evaluate(f, inst, domain=frozenset({1, 2, 3, 99}))
        values = {row[0] for row in rel.rows}
        assert 99 in values


class TestZeroCopyAtomEvaluation:
    """The all-distinct-variables fast path adopts the relation extent
    without rebuilding it (the ROADMAP's zero-copy NamedRelation item)."""

    def test_eval_atom_adopts_extent_without_copy(self, sch, inst):
        from repro.lang.ast import Atom, Var
        from repro.lang.fo import _eval_atom

        rel = _eval_atom(Atom("S", (Var("x"), Var("y"))), inst)
        # Identity, not just equality: the extent frozenset is handed
        # straight through, no per-row rebuild.
        assert rel.rows is inst.relation("S")
        assert rel.columns == (Var("x"), Var("y"))

    def test_adopt_classmethod_is_zero_copy(self):
        from repro.lang.ast import Var
        from repro.lang.ra import NamedRelation

        rows = frozenset({(1, 2), (3, 4)})
        rel = NamedRelation.adopt((Var("a"), Var("b")), rows)
        assert rel.rows is rows
        # And it behaves like a normally-built relation.
        assert rel == NamedRelation((Var("a"), Var("b")), [(1, 2), (3, 4)])

    def test_selective_atom_still_filters(self, sch, inst):
        from repro.lang.ast import Atom, Var
        from repro.lang.fo import _eval_atom

        # Repeated variable: must not take the zero-copy path.
        rel = _eval_atom(Atom("S", (Var("x"), Var("x"))), inst)
        assert rel.rows == frozenset({(3,)})

    def test_full_query_semantics_unchanged(self, sch, inst):
        query = q("S(x, y) & T(y)", "x, y", sch)
        assert query(inst) == frozenset({(1, 2)})
