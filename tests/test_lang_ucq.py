"""UCQ and UCQ¬ queries (Proposition 7's fragments)."""

import pytest

from repro.db import instance, schema
from repro.db.columnar import HAVE_NUMPY
from repro.lang import DatalogError, UCQNegQuery, UCQQuery

AVAILABLE_ENGINES = ["nested", "indexed"] + (["columnar"] if HAVE_NUMPY else [])


@pytest.fixture
def sch():
    return schema(S=2, T=1)


@pytest.fixture
def inst(sch):
    return instance(sch, S=[(1, 2), (2, 3), (3, 3)], T=[(2,)])


class TestUCQ:
    def test_single_disjunct(self, sch, inst):
        q = UCQQuery.parse("Ans(x, y) :- S(x, y).", sch)
        assert q(inst) == inst.relation("S")

    def test_union_of_disjuncts(self, sch, inst):
        q = UCQQuery.parse(
            """
            Ans(x) :- S(x, y).
            Ans(x) :- T(x).
            """,
            sch,
        )
        assert q(inst) == frozenset({(1,), (2,), (3,)})

    def test_join_in_disjunct(self, sch, inst):
        q = UCQQuery.parse("Ans(x, z) :- S(x, y), S(y, z).", sch)
        assert q(inst) == frozenset({(1, 3), (2, 3), (3, 3)})

    def test_negated_atom_rejected_in_ucq(self, sch):
        with pytest.raises(DatalogError):
            UCQQuery.parse("Ans(x, y) :- S(x, y), not S(y, x).", sch)

    def test_always_monotone(self, sch):
        q = UCQQuery.parse("Ans(x) :- S(x, y), T(y), x != y.", sch)
        assert q.is_monotone_syntactic()

    def test_mixed_heads_rejected(self, sch):
        with pytest.raises(DatalogError):
            UCQQuery.parse("A(x) :- T(x). B(x) :- T(x).", sch)

    def test_empty_program_rejected(self, sch):
        with pytest.raises(DatalogError):
            UCQQuery((), sch)


class TestUCQNeg:
    def test_negation(self, sch, inst):
        q = UCQNegQuery.parse("Ans(x, y) :- S(x, y), not S(y, x).", sch)
        assert q(inst) == frozenset({(1, 2), (2, 3)})

    def test_negation_flags_nonmonotone(self, sch):
        q = UCQNegQuery.parse("Ans(x, y) :- S(x, y), not S(y, x).", sch)
        assert not q.is_monotone_syntactic()

    def test_positive_ucqneg_is_monotone(self, sch):
        q = UCQNegQuery.parse("Ans(x) :- T(x).", sch)
        assert q.is_monotone_syntactic()

    def test_self_labelled_head_reads_input(self, sch):
        # The head name may appear in the body: it reads the *input*
        # relation of that name (single-pass semantics).
        wide = schema(S=2, T=1, Ans=2)
        q = UCQNegQuery.parse("Ans(x, y) :- Ans(x, z), Ans(z, y).", wide)
        inst = instance(wide, Ans=[(1, 2), (2, 3)])
        assert q(inst) == frozenset({(1, 3)})

    def test_nullary_head(self, sch, inst):
        q = UCQNegQuery.parse("Ans() :- T(x).", sch)
        assert q(inst) == frozenset({()})

    def test_relations_reported(self, sch):
        q = UCQNegQuery.parse("Ans(x) :- S(x, y), not T(x).", sch)
        assert q.relations() == frozenset({"S", "T"})

    def test_constants_in_head(self, sch, inst):
        q = UCQNegQuery.parse("Ans(x, 9) :- T(x).", sch)
        assert q(inst) == frozenset({(2, 9)})


class TestBodyArity:
    """A body atom must use its relation's schema arity; otherwise the
    engines disagree on what a unary atom over binary ``S`` reads."""

    @pytest.mark.parametrize("engine", AVAILABLE_ENGINES)
    @pytest.mark.parametrize(
        "text",
        [
            "out(x) :- S(x).",
            "out(x) :- T(x), not S(x).",
            "out(x) :- S(x, y, z).",
        ],
    )
    def test_wrong_arity_rejected(self, sch, engine, text):
        with pytest.raises(DatalogError, match="arity mismatch on S"):
            UCQNegQuery.parse(text, sch, engine=engine)

    @pytest.mark.parametrize("engine", AVAILABLE_ENGINES)
    def test_ucq_rejects_wrong_arity(self, sch, engine):
        with pytest.raises(DatalogError, match="arity mismatch on T"):
            UCQQuery.parse("out(x) :- S(x, y), T(x, y).", sch, engine=engine)
