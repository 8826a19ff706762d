"""The indexed join engine: equivalence with the nested-loop reference.

The compiled :class:`~repro.lang.joinplan.JoinPlan` must be a drop-in
replacement for the seed's nested-loop body evaluation: same bindings
(up to order) for every body, and identical fixpoints whichever engine
and strategy (naive / semi-naive) is used.  Hypothesis drives random
programs and instances through all combinations; the unit tests pin
the planner's edge cases — cartesian products, constants-only atoms,
repeated variables, and the semi-naive delta-substitution hook.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import Fact, Instance, schema
from repro.lang import DatalogProgram, naive_fixpoint, seminaive_fixpoint
from repro.lang.ast import Atom, Const, Literal, Rule, Var
from repro.lang.datalog import evaluate_body, fire_rule
from repro.lang.joinplan import IndexPool, JoinPlan, plan_for

S2R1 = schema(S=2, R=1)

values = st.integers(min_value=0, max_value=3)

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


@st.composite
def instances(draw, max_facts=10):
    pairs = draw(st.lists(st.tuples(values, values), max_size=max_facts))
    singles = draw(st.lists(st.tuples(values), max_size=max_facts))
    return Instance(
        S2R1,
        [Fact("S", p) for p in pairs] + [Fact("R", v) for v in singles],
    )


@st.composite
def bodies(draw):
    """A random positive body over S/2 and R/1 with shared variables."""
    terms = [X, Y, Z, W, Const(0), Const(1)]
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    literals = []
    for _ in range(n_atoms):
        if draw(st.booleans()):
            t1 = draw(st.sampled_from(terms))
            t2 = draw(st.sampled_from(terms))
            literals.append(Literal(Atom("S", (t1, t2))))
        else:
            literals.append(Literal(Atom("R", (draw(st.sampled_from(terms)),))))
    return tuple(literals)


def _binding_set(bindings):
    return frozenset(frozenset(b.items()) for b in bindings)


class TestEngineEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(bodies(), instances())
    def test_indexed_equals_nested_on_random_bodies(self, body, inst):
        relations = {"S": inst.relation("S"), "R": inst.relation("R")}
        plan = plan_for(body)
        sources = [relations[info.atom.relation] for info in plan.atoms]
        domain = inst.active_domain()
        nested = evaluate_body(body, sources, relations, domain, engine="nested")
        indexed = evaluate_body(body, sources, relations, domain, engine="indexed")
        pooled = evaluate_body(
            body, sources, relations, domain, engine="indexed", pool=IndexPool()
        )
        assert _binding_set(nested) == _binding_set(indexed) == _binding_set(pooled)

    PROGRAMS = [
        # linear transitive closure
        "T(x,y) :- S(x,y). T(x,y) :- S(x,z), T(z,y).",
        # nonlinear transitive closure (delta can land on either atom)
        "T(x,y) :- S(x,y). T(x,y) :- T(x,z), T(z,y).",
        # cartesian rule (no shared variables)
        "P(x,y) :- R(x), R(y).",
        # repeated variable in one atom + constants
        "L(x) :- S(x,x). K(x) :- S(0,x), R(x).",
        # triangle join
        "Tri(x,y,z) :- S(x,y), S(y,z), S(x,z).",
    ]

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.sampled_from(range(len(PROGRAMS))))
    def test_all_strategies_agree_on_random_instances(self, inst, pi):
        program = DatalogProgram.parse(self.PROGRAMS[pi], S2R1)
        results = [
            naive_fixpoint(program, inst, engine="nested"),
            naive_fixpoint(program, inst, engine="indexed"),
            seminaive_fixpoint(program, inst, engine="nested"),
            seminaive_fixpoint(program, inst, engine="indexed"),
        ]
        assert all(r == results[0] for r in results[1:])


class TestPlannerEdgeCases:
    def test_cartesian_rule(self):
        inst = Instance.from_dict(S2R1, {"R": [(1,), (2,)]})
        program = DatalogProgram.parse("P(x,y) :- R(x), R(y).", S2R1)
        out = seminaive_fixpoint(program, inst).relation("P")
        assert out == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_constants_only_atom(self):
        body = (Literal(Atom("S", (Const(1), Const(2)))),)
        relations = {"S": frozenset({(1, 2), (3, 4)})}
        sources = [relations["S"]]
        got = evaluate_body(body, sources, relations, frozenset({1, 2, 3, 4}))
        # One satisfying (empty) assignment: the constant atom holds.
        assert got == [{}]
        relations = {"S": frozenset({(3, 4)})}
        got = evaluate_body(body, [relations["S"]], relations, frozenset({3, 4}))
        assert got == []

    def test_repeated_variable_within_atom(self):
        body = (Literal(Atom("S", (X, X))),)
        relations = {"S": frozenset({(1, 1), (1, 2), (3, 3)})}
        got = evaluate_body(body, [relations["S"]], relations, frozenset({1, 2, 3}))
        assert _binding_set(got) == _binding_set([{X: 1}, {X: 3}])

    def test_repeated_variable_across_atoms(self):
        body = (Literal(Atom("S", (X, Y))), Literal(Atom("S", (Y, X))))
        extent = frozenset({(1, 2), (2, 1), (1, 3)})
        relations = {"S": extent}
        got = evaluate_body(body, [extent, extent], relations, frozenset({1, 2, 3}))
        assert _binding_set(got) == _binding_set([{X: 1, Y: 2}, {X: 2, Y: 1}])

    def test_delta_substitution_hook(self):
        # Semi-naive points one occurrence at a delta: sources are taken
        # per occurrence, in body order, not per relation name.
        rule = Rule(Atom("T", (X, Y)), (Literal(Atom("S", (X, Z))),
                                        Literal(Atom("T", (Z, Y)))))
        total_T = frozenset({(2, 3), (3, 4)})
        delta_T = frozenset({(3, 4)})
        relations = {"S": frozenset({(1, 2), (2, 3)}), "T": total_T}
        domain = frozenset({1, 2, 3, 4})
        full = fire_rule(rule, [relations["S"], total_T], relations, domain)
        restricted = fire_rule(rule, [relations["S"], delta_T], relations, domain)
        assert full == {(1, 3), (2, 4)}
        assert restricted == {(2, 4)}

    def test_source_count_mismatch_raises(self):
        body = (Literal(Atom("S", (X, Y))),)
        with pytest.raises(ValueError):
            evaluate_body(body, [], {"S": frozenset()}, frozenset())

    def test_unknown_engine_rejected(self):
        body = (Literal(Atom("S", (X, Y))),)
        with pytest.raises(ValueError):
            evaluate_body(
                body, [frozenset()], {"S": frozenset()}, frozenset(),
                engine="quantum",
            )

    def test_plan_is_cached_per_body(self):
        body = (Literal(Atom("S", (X, Y))),)
        assert plan_for(body) is plan_for(body)

    def test_ordering_prefers_bound_then_small(self):
        # S(x,y), R(y): R becomes selective once y is bound, so it must
        # run second even though it is smaller than S... unless nothing
        # is bound yet, in which case the smaller extent leads.
        body = (Literal(Atom("S", (X, Y))), Literal(Atom("R", (Y,))))
        plan = JoinPlan(body)
        big_S = frozenset((i, i + 1) for i in range(10))
        small_R = frozenset({(5,)})
        order = plan._order([big_S, small_R])
        # First atom: nothing bound; R is smaller so it leads, and S
        # (sharing y) joins it with one bound slot.
        assert [info.atom.relation for info in order] == ["R", "S"]

    def test_index_pool_reuses_builds(self):
        pool = IndexPool()
        extent = frozenset({(1, 2), (2, 3)})
        first = pool.index(extent, (0,))
        again = pool.index(extent, (0,))
        assert first is again
        assert pool.index(extent, (1,)) is not first
