"""Monotonicity checks — the hinge of the CALM property."""

import pytest

from repro.analysis import analyze_query
from repro.db import instance, schema
from repro.lang import (
    DatalogQuery,
    FOQuery,
    check_monotone_empirical,
    check_monotone_pair,
    find_monotonicity_counterexample,
    random_instance,
)
from repro.lang.monotone import (
    _AnswerTable,
    instance_pairs,
    random_superinstance,
)
from repro.lang.query import QueryUndefined
import random


@pytest.fixture
def s2():
    return schema(S=2)


def _certified_monotone(q):
    """The analyzer's syntactic monotonicity certificate."""
    return analyze_query(q).certifies("monotone")


class TestSyntacticCertificates:
    def test_positive_fo_certified(self, s2):
        q = FOQuery.parse("S(x, y) | (exists z: S(x, z) & S(z, y))", "x, y", s2)
        assert _certified_monotone(q)

    def test_negative_fo_not_certified(self, s2):
        q = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", s2)
        assert not _certified_monotone(q)

    def test_datalog_certified(self, s2):
        q = DatalogQuery.parse(
            "T(x, y) :- S(x, y). T(x, y) :- S(x, z), T(z, y).", "T", s2
        )
        assert _certified_monotone(q)


class TestPairCheck:
    def test_monotone_pair_holds(self, s2):
        q = FOQuery.parse("S(x, y)", "x, y", s2)
        small = instance(s2, S=[(1, 2)])
        big = instance(s2, S=[(1, 2), (2, 3)])
        assert check_monotone_pair(q, small, big)

    def test_nonmonotone_pair_fails(self, s2):
        q = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", s2)
        small = instance(s2, S=[(1, 2)])
        big = instance(s2, S=[(1, 2), (2, 1)])
        assert not check_monotone_pair(q, small, big)

    def test_requires_containment(self, s2):
        q = FOQuery.parse("S(x, y)", "x, y", s2)
        a = instance(s2, S=[(1, 2)])
        b = instance(s2, S=[(2, 3)])
        with pytest.raises(ValueError):
            check_monotone_pair(q, a, b)


class TestRandomSearch:
    def test_finds_counterexample_for_emptiness(self, s2):
        q = FOQuery.parse("not (exists x, y: S(x, y))", "", s2)
        found = find_monotonicity_counterexample(q, (1, 2), trials=100)
        assert found is not None
        small, big = found
        assert small.issubset(big)
        assert not check_monotone_pair(q, small, big)

    def test_no_counterexample_for_tc(self, s2):
        q = DatalogQuery.parse(
            "T(x, y) :- S(x, y). T(x, y) :- S(x, z), T(z, y).", "T", s2
        )
        assert check_monotone_empirical(q, (1, 2, 3), trials=50)

    def test_finds_counterexample_for_difference(self):
        sch = schema(A=1, B=1)
        q = FOQuery.parse("A(x) & ~B(x)", "x", sch)
        assert find_monotonicity_counterexample(q, (1, 2), trials=200) is not None


class TestRandomInstances:
    def test_random_instance_within_schema_and_domain(self, s2):
        rng = random.Random(0)
        inst = random_instance(s2, (1, 2, 3), rng, density=0.5)
        for f in inst.facts():
            assert f.relation == "S"
            assert all(v in (1, 2, 3) for v in f.values)

    def test_density_extremes(self, s2):
        rng = random.Random(0)
        assert len(random_instance(s2, (1, 2), rng, density=0.0)) == 0
        assert len(random_instance(s2, (1, 2), rng, density=1.0)) == 4

    def test_reproducible_by_seed(self, s2):
        a = random_instance(s2, (1, 2, 3), random.Random(7))
        b = random_instance(s2, (1, 2, 3), random.Random(7))
        assert a == b


def _reference_counterexample(query, domain, trials=200, seed=0, density=0.3):
    """The search with one evaluation per pair side and no table: the
    reference the answer table must agree with."""
    rng = random.Random(seed)
    for _ in range(trials):
        small = random_instance(query.input_schema, domain, rng, density)
        big = random_superinstance(small, domain, rng, density)
        if not check_monotone_pair(query, small, big):
            return (small, big)
    return None


class _Counting:
    """*query* with every evaluation recorded; undefined on *undefined*.

    Not a ``Query`` subclass: the benchmark's tracer wraps every such
    subclass it finds, and it finds those of test modules too."""

    def __init__(self, query, undefined=lambda inst: False):
        self.query = query
        self.undefined = undefined
        self.arity = query.arity
        self.input_schema = query.input_schema
        self.seen = []

    def __call__(self, inst):
        self.seen.append(inst)
        if self.undefined(inst):
            raise QueryUndefined(f"undefined on {len(inst)} facts")
        return self.query(inst)


class TestAnswerTable:
    def test_evaluates_each_distinct_instance_once(self):
        sch = schema(A=1, B=1)
        q = FOQuery.parse("A(x) & ~B(x)", "x", sch)
        reference, counting = _Counting(q), _Counting(q)
        witness = _reference_counterexample(reference, (1, 2))
        assert witness is not None
        assert find_monotonicity_counterexample(counting, (1, 2)) == witness
        # The instances visited up to the first failing pair, each once.
        assert len(counting.seen) == len(set(reference.seen))
        assert len(counting.seen) < len(reference.seen)

    def test_monotone_query_runs_each_instance_once(self, s2):
        q = FOQuery.parse("S(x, y)", "x, y", s2)
        reference, counting = _Counting(q), _Counting(q)
        assert _reference_counterexample(reference, (1, 2), trials=60) is None
        assert find_monotonicity_counterexample(counting, (1, 2), trials=60) is None
        assert len(reference.seen) == 120
        assert len(counting.seen) == len(set(reference.seen)) < 120

    def test_undefined_outcomes_keep_pair_verdicts(self):
        sch = schema(A=1, B=1)
        q = FOQuery.parse("A(x)", "x", sch)

        def undefined(inst):
            return len(inst) % 2 == 1

        bare = _Counting(q, undefined)
        table = _AnswerTable(_Counting(q, undefined))
        pairs = list(instance_pairs(sch, (1, 2), 80, seed=3))
        expected = [check_monotone_pair(bare, s, b) for s, b in pairs]
        assert True in expected and False in expected
        # Twice over: the second pass reads every outcome, the
        # undefined ones included, from the table.
        for _ in range(2):
            assert [check_monotone_pair(table, s, b) for s, b in pairs] == expected
        assert len(table.query.seen) == len(set(bare.seen)) < len(bare.seen)
        with pytest.raises(QueryUndefined, match="undefined on 1 facts"):
            table(instance(sch, A=[(1,)]))

    def test_same_witness_for_nonmonotone_fo(self):
        sch = schema(A=1, B=1)
        q = FOQuery.parse("A(x) & ~B(x)", "x", sch)
        for seed in range(5):
            found = find_monotonicity_counterexample(q, (1, 2), trials=200, seed=seed)
            assert found is not None
            assert found == _reference_counterexample(q, (1, 2), seed=seed)

    def test_same_witness_for_e12_emptiness(self):
        from repro.analysis import ComputedQuery
        from repro.core import emptiness_transducer

        query = ComputedQuery(emptiness_transducer())
        found = find_monotonicity_counterexample(
            query, (1, 2), trials=40, density=0.4
        )
        assert found is not None
        assert found == _reference_counterexample(
            query, (1, 2), trials=40, density=0.4
        )
