"""The columnar data plane: differential equivalence with both
frozenset engines.

The vectorized engine (:mod:`repro.lang.vecjoin`) must be bit-identical
to the nested-loop reference and the indexed engine on every language
layer it plugs into — Datalog (naive and semi-naive, including the
mid-fixpoint delta-substitution paths), stratified programs, UCQ¬, FO,
Dedalus, and the transducer runtime.  Hypothesis drives random bodies,
programs and instances — over empty relations, wide arities and
non-integer domains — through all three engines; unit tests pin the
fallback discipline (non-vectorizable rules silently take the indexed
path) and the engine-selection seam itself (unknown names raise
``ValueError`` at every entry point, satellite #1), plus the
per-relation fact-view cache (satellite #2).
"""

import os
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import flooding_transducer
from repro.db import Fact, Instance, instance, schema
from repro.db.columnar import HAVE_NUMPY, ValuePool
from repro.dedalus import DedalusProgram, run_program
from repro.lang import (
    ColumnPool,
    DatalogProgram,
    DatalogQuery,
    FOQuery,
    NonrecursiveQuery,
    StratifiedProgram,
    StratifiedQuery,
    UCQNegQuery,
    UCQQuery,
    default_engine,
    naive_fixpoint,
    resolve_engine,
    seminaive_fixpoint,
    stratified_fixpoint,
    tp_step,
)
from repro.lang.ast import Atom, Const, Eq, Literal, Rule, Var
from repro.lang.datalog import evaluate_body, fire_rule
from repro.lang.joinplan import plan_for
from repro.lang.vecjoin import fire_rule_columnar, seminaive_fixpoint_columnar
from repro.net import line, round_robin, run_fair

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="columnar needs numpy")

ENGINES = ("nested", "indexed", "columnar")

# Non-integer domain on purpose: strings, floats that collide with ints
# under Python equality (1 == 1.0 == True), booleans, and None all flow
# through the dictionary encoder.
values = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["a", "b", 1.0, True, None]),
)

S2R1W4 = schema(S=2, R=1, W=4)

X, Y, Z, V = Var("x"), Var("y"), Var("z"), Var("w")


@st.composite
def instances(draw, max_facts=8):
    """Random instances over S/2, R/1 and the wide W/4 (often empty)."""
    pairs = draw(st.lists(st.tuples(values, values), max_size=max_facts))
    singles = draw(st.lists(st.tuples(values), max_size=max_facts))
    wides = draw(
        st.lists(st.tuples(values, values, values, values), max_size=4)
    )
    return Instance(
        S2R1W4,
        [Fact("S", p) for p in pairs]
        + [Fact("R", v) for v in singles]
        + [Fact("W", w) for w in wides],
    )


@st.composite
def bodies(draw):
    """A random body over S/2, R/1, W/4 with negation and (in)equalities."""
    terms = [X, Y, Z, V, Const(0), Const("a")]
    n_atoms = draw(st.integers(min_value=1, max_value=3))
    literals = []
    bound: set = set()
    for _ in range(n_atoms):
        kind = draw(st.sampled_from(["S", "R", "W"]))
        arity = {"S": 2, "R": 1, "W": 4}[kind]
        ts = tuple(draw(st.sampled_from(terms)) for _ in range(arity))
        literals.append(Literal(Atom(kind, ts)))
        bound |= {t for t in ts if isinstance(t, Var)}
    # Optional negative atom / equality, kept safe: variables only from
    # the positive part.
    safe_terms = list(bound) + [Const(0), Const("a")]
    if bound and draw(st.booleans()):
        ts = (draw(st.sampled_from(safe_terms)),)
        literals.append(Literal(Atom("R", ts), positive=False))
    if bound and draw(st.booleans()):
        left = draw(st.sampled_from(safe_terms))
        right = draw(st.sampled_from(safe_terms))
        literals.append(
            Literal(Eq(left, right), positive=draw(st.booleans()))
        )
    return tuple(literals)


def _binding_set(bindings):
    return frozenset(frozenset(b.items()) for b in bindings)


def _relations(inst):
    return {name: inst.relation(name) for name in inst.schema}


class TestBodyDifferential:
    @settings(max_examples=120, deadline=None)
    @given(bodies(), instances())
    def test_three_engines_agree_on_random_bodies(self, body, inst):
        relations = _relations(inst)
        plan = plan_for(body)
        sources = [relations[info.atom.relation] for info in plan.atoms]
        domain = inst.active_domain()
        results = {
            engine: _binding_set(
                evaluate_body(body, sources, relations, domain, engine=engine)
            )
            for engine in ENGINES
        }
        assert results["nested"] == results["indexed"] == results["columnar"]

    @settings(max_examples=60, deadline=None)
    @given(bodies(), instances())
    def test_shared_column_pool_is_sound(self, body, inst):
        # The pool caches encodings keyed by extent value; reuse across
        # calls (the transducer/UCQ pattern) must not change answers.
        relations = _relations(inst)
        plan = plan_for(body)
        sources = [relations[info.atom.relation] for info in plan.atoms]
        domain = inst.active_domain()
        pool = ColumnPool()
        first = evaluate_body(
            body, sources, relations, domain, engine="columnar", pool=pool
        )
        second = evaluate_body(
            body, sources, relations, domain, engine="columnar", pool=pool
        )
        nested = evaluate_body(body, sources, relations, domain, engine="nested")
        assert _binding_set(first) == _binding_set(second) == _binding_set(nested)


PROGRAMS = [
    # linear transitive closure
    "T(x,y) :- S(x,y). T(x,y) :- S(x,z), T(z,y).",
    # nonlinear TC: mid-fixpoint deltas land on either occurrence
    "T(x,y) :- S(x,y). T(x,y) :- T(x,z), T(z,y).",
    # cartesian rule (no shared variables)
    "P(x,y) :- R(x), R(y).",
    # repeated variable + constants
    "L(x) :- S(x,x). K(x) :- S(0,x), R(x).",
    # wide-arity head and body
    "Q(a,b,c,d) :- W(a,b,c,d), R(a).",
    # projection of the wide relation joined back on S
    "J(a,d) :- W(a,b,c,d), S(a,d).",
    # nonequality filter
    "N(x,y) :- S(x,y), x != y.",
]


class TestFixpointDifferential:
    @settings(max_examples=50, deadline=None)
    @given(instances(), st.sampled_from(range(len(PROGRAMS))))
    def test_fixpoints_agree_across_engines(self, inst, pi):
        program = DatalogProgram.parse(PROGRAMS[pi], S2R1W4)
        stratified = StratifiedProgram(program.rules, S2R1W4)
        results = [
            strategy(program, inst, engine=engine)
            for engine in ENGINES
            for strategy in (naive_fixpoint, seminaive_fixpoint)
        ] + [
            stratified_fixpoint(stratified, inst, engine=engine)
            for engine in ENGINES
        ]
        assert all(r == results[0] for r in results[1:])
        # The same rules as a Datalog and as a stratified query.
        for output in program.idb_schema:
            answers = [
                query_type(prog, output, engine=engine)(inst)
                for engine in ENGINES
                for query_type, prog in (
                    (DatalogQuery, program), (StratifiedQuery, stratified)
                )
            ]
            assert all(a == answers[0] for a in answers[1:])

    def test_every_program_is_one_stratum(self):
        for text in PROGRAMS:
            program = DatalogProgram.parse(text, S2R1W4)
            assert len(program.strata) == 1
            assert program.strata[0] == list(program.rules)

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_columnar_driver_matches_indexed_on_tc(self, inst):
        # The dedicated semi-naive driver (pool frozen for the run,
        # LSM-style dedup) against the per-rule engines.
        program = DatalogProgram.parse(PROGRAMS[0], S2R1W4)
        driven = seminaive_fixpoint_columnar(program, inst)
        assert driven is not None
        assert driven == seminaive_fixpoint(program, inst, engine="indexed")

    def test_empty_instance_all_programs(self):
        empty = Instance.empty(S2R1W4)
        for text in PROGRAMS:
            program = DatalogProgram.parse(text, S2R1W4)
            results = [
                seminaive_fixpoint(program, empty, engine=e) for e in ENGINES
            ]
            assert results[0] == results[1] == results[2]

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_delta_substitution_agrees(self, inst):
        # fire_rule with a restricted delta source — the semi-naive
        # mid-fixpoint path — must agree across engines.
        rule = Rule(Atom("T", (X, Y)), (Literal(Atom("S", (X, Z))),
                                        Literal(Atom("S", (Z, Y)))))
        relations = _relations(inst)
        s = sorted(relations["S"], key=repr)
        delta = frozenset(s[: len(s) // 2])
        domain = inst.active_domain()
        results = [
            fire_rule(rule, [relations["S"], delta], relations, domain,
                      engine=engine)
            for engine in ENGINES
        ]
        assert results[0] == results[1] == results[2]


class TestLanguageLayers:
    STRATIFIED = (
        "T(x,y) :- S(x,y). T(x,y) :- S(x,z), T(z,y). "
        "NT(x,y) :- S(x,y), ~T(y,x).",
        "NT",
    )
    UCQ_NEG = "A(x) :- S(x,y), ~R(y). A(x) :- R(x), x != 0."
    NONREC = "P(x) :- S(x,y), R(y). O(x) :- P(x), ~R(x).", "O"
    FO = ("S(x, y) & ~R(y)", "x, y")

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_stratified_agrees(self, inst):
        text, out = self.STRATIFIED
        answers = [
            StratifiedQuery.parse(text, out, S2R1W4, engine=e)(inst)
            for e in ENGINES
        ]
        assert answers[0] == answers[1] == answers[2]

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_ucq_neg_agrees(self, inst):
        answers = [
            UCQNegQuery.parse(self.UCQ_NEG, S2R1W4, engine=e)(inst)
            for e in ENGINES
        ]
        assert answers[0] == answers[1] == answers[2]

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_nonrecursive_agrees(self, inst):
        text, out = self.NONREC
        answers = [
            NonrecursiveQuery.parse(text, out, S2R1W4, engine=e)(inst)
            for e in ENGINES
        ]
        assert answers[0] == answers[1] == answers[2]

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_fo_agrees(self, inst):
        text, answer_vars = self.FO
        answers = [
            FOQuery.parse(text, answer_vars, S2R1W4, engine=e)(inst)
            for e in ENGINES
        ]
        assert answers[0] == answers[1] == answers[2]

    def test_dedalus_agrees(self):
        p = DedalusProgram.parse(
            """
            Seen(x, y) :- E(x, y).
            Seen(x, y) @next :- Seen(x, y).
            R(x, z) :- Seen(x, y), Seen(y, z).
            """,
            schema(E=2),
        )
        I = instance(schema(E=2), E=[(1, 2), (2, 3), ("a", "b")])
        traces = [run_program(p, I, engine=e) for e in ENGINES]
        assert all(t.stable for t in traces)
        finals = [t.final() for t in traces]
        assert finals[0] == finals[1] == finals[2]

    def test_net_runtime_agrees_under_env_engine(self):
        # REPRO_ENGINE steers every transition of a run.  A fresh
        # transducer per engine: a shared one would answer the later
        # runs from transitions memoized under the first engine.
        S2 = schema(S=2)
        I = instance(S2, S=[(1, 2), (2, 3)])
        net = line(3)
        results = []
        for engine in ENGINES:
            with mock.patch.dict(os.environ, {"REPRO_ENGINE": engine}):
                run = run_fair(
                    net, flooding_transducer(S2), round_robin(I, net), seed=0
                )
            assert run.converged
            results.append((run.output, run.config))
        assert results[0] == results[1] == results[2]


class TestFallbackPaths:
    def test_eq_bound_head_var_falls_back(self):
        # Safe via positive-equality propagation, but y is not bound by
        # a positive atom — not vectorizable, so the columnar entry
        # point must silently take the indexed path.
        rule = Rule(
            Atom("P", (X, Y)),
            (
                Literal(Atom("R", (X,))),
                Literal(Eq(Y, Const(7))),
            ),
        )
        rule.check_safe()
        relations = {"R": frozenset({(1,), (2,)}), "P": frozenset()}
        domain = frozenset({1, 2, 7})
        assert fire_rule_columnar(rule, [relations["R"]], relations,
                                  ColumnPool()) is None
        got = fire_rule(rule, [relations["R"]], relations, domain,
                        engine="columnar")
        assert got == fire_rule(rule, [relations["R"]], relations, domain,
                                engine="nested")
        assert got == {(1, 7), (2, 7)}

    def test_fixpoint_with_unvectorizable_rule_falls_back(self):
        program = DatalogProgram.parse(
            "P(x, y) :- R(x), y = 0. T(x,y) :- S(x,y), P(x, z).", S2R1W4
        )
        inst = instance(S2R1W4, S=[(1, 2)], R=[(1,), (3,)])
        assert seminaive_fixpoint_columnar(program, inst) is None
        results = [
            seminaive_fixpoint(program, inst, engine=e) for e in ENGINES
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].relation("T") == {(1, 2)}


class TestEngineSelection:
    """Satellite #1: unknown engine names raise ValueError everywhere."""

    BODY = (Literal(Atom("S", (X, Y))),)
    RULE = Rule(Atom("T", (X,)), (Literal(Atom("R", (X,))),))

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="quantum"):
            resolve_engine("quantum")

    def test_entry_points_reject_unknown(self):
        program = DatalogProgram.parse("T(x) :- R(x).", S2R1W4)
        inst = Instance.empty(S2R1W4)
        relations = _relations(inst)
        sources = [relations["S"]]
        entry_points = [
            lambda: evaluate_body(self.BODY, sources, relations, frozenset(),
                                  engine="quantum"),
            lambda: fire_rule(self.RULE, [relations["R"]], relations,
                              frozenset(), engine="quantum"),
            lambda: tp_step(program, relations, frozenset(),
                            engine="quantum"),
            lambda: naive_fixpoint(program, inst, engine="quantum"),
            lambda: seminaive_fixpoint(program, inst, engine="quantum"),
            lambda: DatalogQuery(program, "T", engine="quantum"),
            lambda: StratifiedQuery.parse("T(x) :- R(x).", "T", S2R1W4,
                                          engine="quantum"),
            lambda: NonrecursiveQuery.parse("T(x) :- R(x).", "T", S2R1W4,
                                            engine="quantum"),
            lambda: UCQQuery.parse("T(x) :- R(x).", S2R1W4, engine="quantum"),
            lambda: FOQuery.parse("R(x)", "x", S2R1W4, engine="quantum"),
        ]
        for make in entry_points:
            with pytest.raises(ValueError):
                make()

    def test_dedalus_rejects_unknown(self):
        p = DedalusProgram.parse("Seen(x) :- A(x).", schema(A=1))
        with pytest.raises(ValueError):
            run_program(p, instance(schema(A=1), A=[(1,)]), engine="quantum")

    def test_env_var_unknown_rejected(self):
        with mock.patch.dict(os.environ, {"REPRO_ENGINE": "quantum"}):
            with pytest.raises(ValueError):
                default_engine()

    def test_env_var_is_read_per_call(self):
        assert resolve_engine(None) == default_engine()
        for engine in ENGINES:
            with mock.patch.dict(os.environ, {"REPRO_ENGINE": engine}):
                assert resolve_engine(None) == engine
        with mock.patch.dict(os.environ):
            os.environ.pop("REPRO_ENGINE", None)
            assert resolve_engine(None) == "indexed"


class TestInstanceCaches:
    """Satellite #2: per-relation Fact views are built once and reused."""

    def test_relation_facts_no_rebuild(self):
        inst = instance(S2R1W4, S=[(1, 2), (2, 3)], R=[(1,)])
        first = inst.relation_facts("S")
        assert inst.relation_facts("S") is first
        # Other relations get their own cached views.
        assert inst.relation_facts("R") is inst.relation_facts("R")
        assert first == frozenset(
            {Fact("S", (1, 2)), Fact("S", (2, 3))}
        )

    def test_columnar_view_cached_and_roundtrips(self):
        inst = instance(S2R1W4, S=[(1, "a"), (None, 2.5)], R=[(True,)])
        view = inst.columnar_view()
        assert inst.columnar_view() is view
        pool, columns = view
        for name in ("S", "R"):
            assert pool.decode_rows(columns[name].codes) == inst.relation(name)


class TestValuePoolSemantics:
    def test_python_equality_collapses(self):
        # 1 == 1.0 == True must share a code, as in frozensets.
        pool = ValuePool()
        assert pool.encode(1) == pool.encode(1.0) == pool.encode(True)
        assert pool.encode("a") != pool.encode("b")

    def test_unseen_constants_get_distinct_codes(self):
        pool = ValuePool()
        assert pool.encode("fresh1") != pool.encode("fresh2")
