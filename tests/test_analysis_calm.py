"""The CALM harness: diagnostics line up with Corollary 13/17."""

import random

import pytest

from repro.analysis import CalmVerdict, ComputedQuery, calm_verdict
from repro.core import (
    emptiness_transducer,
    ping_identity_transducer,
    transitive_closure_transducer,
)
from repro.core.examples import ALL_EXAMPLES
from repro.db import Instance, instance, schema
from repro.lang.monotone import check_monotone_pair, instance_pairs, random_instance
from repro.net import line
from repro.net.coordination import check_coordination_free_on


class TestComputedQuery:
    def test_tc_computed_query(self):
        q = ComputedQuery(transitive_closure_transducer())
        I = instance(schema(S=2), S=[(1, 2), (2, 3)])
        assert q(I) == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_emptiness_computed_query(self):
        q = ComputedQuery(emptiness_transducer())
        assert q(Instance.empty(schema(S=1))) == frozenset({()})
        assert q(instance(schema(S=1), S=[(1,)])) == frozenset()

    def test_arity_comes_from_transducer(self):
        q = ComputedQuery(transitive_closure_transducer())
        assert q.arity == 2


class TestCalmVerdicts:
    def test_tc_verdict(self):
        I = instance(schema(S=2), S=[(1, 2)])
        verdict = calm_verdict(
            transitive_closure_transducer(), I, monotonicity_trials=10
        )
        assert verdict.oblivious
        assert verdict.inflationary
        assert verdict.coordination_free
        assert verdict.computed_query_monotone
        assert verdict.consistent_with_calm()

    def test_emptiness_verdict(self):
        I = Instance.empty(schema(S=1))
        verdict = calm_verdict(
            emptiness_transducer(), I, monotonicity_trials=15
        )
        assert not verdict.oblivious
        assert verdict.uses_id and verdict.uses_all
        assert not verdict.coordination_free
        assert not verdict.computed_query_monotone
        assert verdict.consistent_with_calm()

    def test_ping_verdict_matches_theorem16(self):
        """No Id ⇒ monotone, even though not coordination-free (Ex. 15)."""
        I = instance(schema(S=1), S=[(1,)])
        verdict = calm_verdict(
            ping_identity_transducer(), I, monotonicity_trials=15
        )
        assert not verdict.uses_id
        assert verdict.uses_all
        assert not verdict.coordination_free
        assert verdict.computed_query_monotone  # Theorem 16
        assert verdict.consistent_with_calm()

    def test_consistency_logic(self):
        bad = CalmVerdict(
            name="impossible",
            oblivious=True,
            inflationary=True,
            monotone_queries=True,
            uses_id=False,
            uses_all=False,
            coordination_free=False,
            computed_query_monotone=True,
        )
        assert not bad.consistent_with_calm()
        bad2 = CalmVerdict(
            name="impossible2",
            oblivious=False,
            inflationary=False,
            monotone_queries=False,
            uses_id=False,
            uses_all=True,
            coordination_free=None,
            computed_query_monotone=False,
        )
        assert not bad2.consistent_with_calm()  # Theorem 16 violated


def _reference_probes(transducer, test_instance, trials, seed=0):
    """``calm_verdict``'s coordination and monotonicity probes with every
    computed-query evaluation run bare: the coordination probes' expected
    outputs and both sides of each pair, with no answer table."""
    network = line(2)
    query = ComputedQuery(transducer, network, seed=seed)
    probes = [test_instance, Instance.empty(transducer.schema.inputs)]
    coordination_free = all([
        check_coordination_free_on(
            network, transducer, probe, query(probe)
        ).coordination_free
        for probe in probes
    ])
    pairs = instance_pairs(transducer.schema.inputs, (1, 2, 3), trials, seed=seed)
    monotone = all(check_monotone_pair(query, small, big) for small, big in pairs)
    return coordination_free, monotone


class TestAnswerTable:
    """One answer table per verdict: the same verdict as evaluating every
    probe bare, from one run per distinct instance."""

    TRIALS = 12

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Every instance a ``ComputedQuery`` is evaluated on, in order."""
        seen: list[Instance] = []
        evaluate = ComputedQuery.__call__

        def recorded(self, inst):
            seen.append(inst)
            return evaluate(self, inst)

        monkeypatch.setattr(ComputedQuery, "__call__", recorded)
        return seen

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    @pytest.mark.parametrize("instance_seed", [0, 1, 2])
    def test_verdict_equals_bare_evaluation(self, name, instance_seed, evaluations):
        factory = ALL_EXAMPLES[name]
        inputs = factory().schema.inputs
        inst = random_instance(inputs, (1, 2, 3), random.Random(instance_seed), 0.4)
        expected = _reference_probes(factory(), inst, self.TRIALS)
        visited = list(evaluations)
        evaluations.clear()
        verdict = calm_verdict(factory(), inst, monotonicity_trials=self.TRIALS)
        assert (verdict.coordination_free, verdict.computed_query_monotone) == expected
        # Up to the first failing pair, each distinct instance runs once.
        assert len(evaluations) == len(set(visited))
        evaluations.clear()
        static = calm_verdict(
            factory(), inst, monotonicity_trials=self.TRIALS, static_first=True
        )
        assert static == verdict
        assert len(evaluations) <= len(set(visited))
