"""Datalog: program validation, naive/semi-naive agreement, TP steps."""

import pytest

from repro.db import Instance, instance, schema
from repro.lang import (
    DatalogError,
    DatalogProgram,
    DatalogQuery,
    naive_fixpoint,
    seminaive_fixpoint,
    tp_step,
)

TC = """
T(x, y) :- S(x, y).
T(x, y) :- S(x, z), T(z, y).
"""

SAME_GENERATION = """
Sg(x, x) :- Person(x).
Sg(x, y) :- Par(x, xp), Sg(xp, yp), Par(y, yp).
"""


@pytest.fixture
def s2():
    return schema(S=2)


@pytest.fixture
def chain(s2):
    return instance(s2, S=[(1, 2), (2, 3), (3, 4)])


class TestValidation:
    def test_edb_head_rejected(self, s2):
        with pytest.raises(DatalogError):
            DatalogProgram.parse("S(x, y) :- S(y, x).", s2)

    def test_negated_atom_rejected(self, s2):
        with pytest.raises(DatalogError):
            DatalogProgram.parse("T(x) :- S(x, y), not S(y, x).", s2)

    def test_nonequality_allowed_by_default(self, s2):
        DatalogProgram.parse("T(x, y) :- S(x, y), x != y.", s2)

    def test_unknown_relation_rejected(self, s2):
        with pytest.raises(DatalogError):
            DatalogProgram.parse("T(x) :- U(x).", s2)

    def test_inconsistent_idb_arity_rejected(self, s2):
        with pytest.raises(DatalogError):
            DatalogProgram.parse("T(x) :- S(x, y). T(x, y) :- S(x, y).", s2)

    def test_unsafe_rule_rejected(self, s2):
        with pytest.raises(ValueError):
            DatalogProgram.parse("T(x, w) :- S(x, y).", s2)

    def test_idb_schema_inferred(self, s2):
        p = DatalogProgram.parse(TC, s2)
        assert p.idb_schema["T"] == 2


class TestEvaluation:
    def test_transitive_closure(self, s2, chain):
        query = DatalogQuery.parse(TC, "T", s2)
        expected = frozenset(
            {(i, j) for i in range(1, 5) for j in range(i + 1, 5)}
        )
        assert query(chain) == expected

    def test_cycle_closure(self, s2):
        cyc = instance(s2, S=[(1, 2), (2, 3), (3, 1)])
        query = DatalogQuery.parse(TC, "T", s2)
        expected = frozenset({(i, j) for i in (1, 2, 3) for j in (1, 2, 3)})
        assert query(cyc) == expected

    def test_naive_equals_seminaive(self, s2, chain):
        p = DatalogProgram.parse(TC, s2)
        assert naive_fixpoint(p, chain) == seminaive_fixpoint(p, chain)

    def test_same_generation(self):
        sch = schema(Person=1, Par=2)
        # tree: 1 has children 2,3; 2 has child 4; 3 has child 5
        inst = instance(
            sch,
            Person=[(i,) for i in range(1, 6)],
            Par=[(2, 1), (3, 1), (4, 2), (5, 3)],
        )
        query = DatalogQuery.parse(SAME_GENERATION, "Sg", sch)
        got = query(inst)
        assert (2, 3) in got and (3, 2) in got
        assert (4, 5) in got and (5, 4) in got
        assert (2, 4) not in got

    def test_empty_input(self, s2):
        query = DatalogQuery.parse(TC, "T", s2)
        assert query(Instance.empty(s2)) == frozenset()

    def test_facts_in_program(self, s2):
        query = DatalogQuery.parse(
            "T(x, y) :- S(x, y). T(7, 7).", "T", s2
        )
        got = query(instance(s2, S=[(1, 2)]))
        assert (7, 7) in got and (1, 2) in got

    def test_constants_in_bodies(self, s2):
        query = DatalogQuery.parse("T(x) :- S(1, x).", "T", s2)
        assert query(instance(s2, S=[(1, 5), (2, 6)])) == frozenset({(5,)})

    def test_nonequality_in_body(self, s2):
        query = DatalogQuery.parse("T(x, y) :- S(x, y), x != y.", "T", s2)
        got = query(instance(s2, S=[(1, 1), (1, 2)]))
        assert got == frozenset({(1, 2)})

    def test_output_must_be_idb(self, s2):
        with pytest.raises(Exception):
            DatalogQuery.parse(TC, "S", s2)

    def test_extra_relations_in_instance_ignored(self, s2):
        query = DatalogQuery.parse(TC, "T", s2)
        wide = instance(schema(S=2, Noise=1), S=[(1, 2)], Noise=[(9,)])
        assert query(wide) == frozenset({(1, 2)})


class TestTPStep:
    def test_single_step_no_recursion_unfolding(self, s2, chain):
        p = DatalogProgram.parse(TC, s2)
        relations = {"S": chain.relation("S"), "T": frozenset()}
        step1 = tp_step(p, relations, chain.active_domain())
        assert step1["T"] == chain.relation("S")  # only base rule fires

    def test_iterating_tp_reaches_fixpoint(self, s2, chain):
        p = DatalogProgram.parse(TC, s2)
        relations = {"S": chain.relation("S"), "T": frozenset()}
        domain = chain.active_domain()
        for _ in range(10):
            relations = tp_step(p, relations, domain)
        query = DatalogQuery.parse(TC, "T", s2)
        assert relations["T"] == query(chain)

    def test_tp_is_inflationary(self, s2, chain):
        p = DatalogProgram.parse(TC, s2)
        relations = {"S": chain.relation("S"), "T": frozenset({(9, 9)})}
        step = tp_step(p, relations, chain.active_domain() | {9})
        assert (9, 9) in step["T"]


class TestMonotonicityOfDatalog:
    def test_datalog_query_is_monotone_flagged(self, s2):
        assert DatalogQuery.parse(TC, "T", s2).is_monotone_syntactic()

    def test_datalog_query_monotone_empirically(self, s2):
        from repro.lang import check_monotone_empirical

        query = DatalogQuery.parse(TC, "T", s2)
        assert check_monotone_empirical(query, (1, 2, 3), trials=40)
