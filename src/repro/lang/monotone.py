"""Monotonicity: syntactic certificates and empirical testing.

Monotonicity is the pivot of the CALM property (Corollary 13): a query
is distributedly computable coordination-freely iff it is monotone.
Semantic monotonicity is undecidable, so the library offers

* :func:`repro.analysis.static.analyze_query` — a sound, incomplete
  certificate (positive-existential FO, negation-free Datalog/UCQ,
  declared-monotone Python queries);
* :func:`find_monotonicity_counterexample` — randomized search for
  instances ``I ⊆ J`` with ``Q(I) ⊄ Q(J)``, used by the E12 bench to
  *refute* monotonicity of coordinating transducers' queries.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence
from typing import cast

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.schema import DatabaseSchema
from .query import Query, QueryUndefined


class _AnswerTable:
    """*query* evaluated at most once per instance.

    A query is a function of its input instance, so a probe that meets
    an instance again reads the recorded outcome: the answer, or the
    :class:`QueryUndefined` it raised, raised again.  The table fills
    lazily in call order and lives only as long as the probe that
    made it.  It keeps to the :class:`Query` protocol without
    subclassing it: it evaluates nothing itself, so tracers that time
    every ``Query.__call__`` as query evaluation must not count it.
    """

    def __init__(self, query: Query):
        self.query = query
        self.arity = query.arity
        self.input_schema = query.input_schema
        self._outcomes: dict[Instance, frozenset[tuple] | QueryUndefined] = {}

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        outcome = self._outcomes.get(instance)
        if outcome is None:
            try:
                outcome = self.query(instance)
            except QueryUndefined as exc:
                self._outcomes[instance] = exc
                raise
            self._outcomes[instance] = outcome
        elif isinstance(outcome, QueryUndefined):
            raise outcome.with_traceback(None)
        return outcome


def check_monotone_pair(query: Query, small: Instance, big: Instance) -> bool:
    """Check the monotonicity condition on one pair ``small ⊆ big``.

    Per Section 2: if ``Q(I)`` is defined then ``Q(J)`` must be defined
    and contain it.
    """
    if not small.issubset(big):
        raise ValueError("check_monotone_pair needs small ⊆ big")
    try:
        small_answers = query(small)
    except QueryUndefined:
        return True
    try:
        big_answers = query(big)
    except QueryUndefined:
        return False
    return small_answers <= big_answers


def random_instance(
    schema: DatabaseSchema,
    domain: Sequence,
    rng: random.Random,
    density: float = 0.3,
) -> Instance:
    """A random instance: each possible fact kept with probability *density*."""
    facts: list[Fact] = []
    for name in schema.relation_names():
        arity = schema[name]
        for combo in itertools.product(domain, repeat=arity):
            if rng.random() < density:
                facts.append(Fact(name, combo))
    return Instance(schema, facts)


def random_superinstance(
    base: Instance, domain: Sequence, rng: random.Random, density: float = 0.2
) -> Instance:
    """A random instance J with base ⊆ J over a possibly larger domain."""
    extra = random_instance(base.schema, domain, rng, density)
    return base.union(extra)


def find_monotonicity_counterexample(
    query: Query,
    domain: Sequence,
    trials: int = 200,
    seed: int = 0,
    density: float = 0.3,
) -> tuple[Instance, Instance] | None:
    """Search for ``I ⊆ J`` with ``Q(I) ⊄ Q(J)``; ``None`` if none found.

    A returned pair is a genuine refutation of monotonicity; ``None``
    only means no counterexample was found within the trial budget.
    Each distinct instance drawn is evaluated once.
    """
    answers = cast(Query, _AnswerTable(query))
    rng = random.Random(seed)
    for _ in range(trials):
        small = random_instance(query.input_schema, domain, rng, density)
        big = random_superinstance(small, domain, rng, density)
        if not check_monotone_pair(answers, small, big):
            return (small, big)
    return None


def check_monotone_empirical(
    query: Query,
    domain: Sequence,
    trials: int = 200,
    seed: int = 0,
    density: float = 0.3,
) -> bool:
    """True when no counterexample was found (supporting, not proving)."""
    return (
        find_monotonicity_counterexample(query, domain, trials, seed, density) is None
    )


def instance_pairs(
    schema: DatabaseSchema,
    domain: Sequence,
    count: int,
    seed: int = 0,
    density: float = 0.3,
) -> Iterable[tuple[Instance, Instance]]:
    """A reproducible stream of ``I ⊆ J`` pairs for monotonicity workloads."""
    rng = random.Random(seed)
    for _ in range(count):
        small = random_instance(schema, domain, rng, density)
        big = random_superinstance(small, domain, rng, density)
        yield small, big
