"""``tc-sweep``: one cold ``check_consistency`` of the transitive-closure
transducer (Example 3) per op.

Each op builds a fresh transducer and checks a seeded chain on
``line(3)`` over 3 partitions x 2 run seeds with the default engine;
the convergence memo and the run cache stay off, so every op pays the
cold path: per-tuple query evaluation, transitions, the run loop and
the convergence checks.

Chain lengths cover 5..8 in a fixed interleaved order: every other
request has length 7 and every fourth length 8, so any prefix of the op
sequence mixes short and long chains alike, its median falls in the
middle of the length-7 ops and its tail (~87th percentile) in the middle
of the length-8 ops: two runs compare like with like.  The chains are
short so that a run holds ~80 ops: one op's cost swings by up to 2x with its
seeded schedules, and a median over a few dozen ops of 8..16 edges
moved with the seed by a quarter.  The seed draws each chain's node
labels, its fact order and its run seeds; no request recurs within a
run.  Every request is sent twice in a row (odd ops repeat the op
before them): with no cache in play a repeat costs what the first check
cost, which is what ``repeat_p50_s`` shows here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Chain lengths, interleaved so every prefix mixes short and long.
LENGTHS = (7, 5, 7, 8, 7, 6, 7, 8)
#: Distinct requests of a run, more than a run gets through.
REQUESTS = 256
NODES = 3
PARTITIONS = 3
RUN_SEEDS = 2


@dataclass(frozen=True)
class ChainCheck:
    labels: tuple[int, ...]
    facts: tuple[tuple[int, int], ...]
    seeds: tuple[int, ...]

    @property
    def closure(self) -> frozenset:
        """The transitive closure of the chain, computed here, not by the library."""
        labels = self.labels
        return frozenset(
            (labels[a], labels[b])
            for a in range(len(labels))
            for b in range(a + 1, len(labels))
        )


def make_inputs(seed: int) -> list[ChainCheck]:
    """The distinct requests of one run, cycling through ``LENGTHS``."""
    out = []
    for j in range(REQUESTS):
        length = LENGTHS[j % len(LENGTHS)]
        rng = random.Random(f"tc-sweep/{seed}/{j}")
        labels = tuple(rng.sample(range(1, 1_000_000), length + 1))
        facts = [(labels[i], labels[i + 1]) for i in range(length)]
        rng.shuffle(facts)
        first = rng.randrange(1_000_000)
        out.append(ChainCheck(labels, tuple(facts), tuple(range(first, first + RUN_SEEDS))))
    return out


class Workload:
    """The op sequence of one run and its oracle."""

    #: Ops whose exact counts every run reports (every run completes them).
    counted_ops = 8

    def __init__(self, seed: int) -> None:
        from repro.db import instance, schema
        from repro.net import line

        self.requests = make_inputs(seed)
        s2 = schema(S=2)
        self.instances = [instance(s2, S=list(r.facts)) for r in self.requests]
        self.network = line(NODES)

    def _request(self, i: int) -> int:
        return (i // 2) % len(self.requests)

    def is_repeat(self, i: int) -> bool:
        return i % 2 == 1 or i >= 2 * len(self.requests)

    def prepare(self, i: int):
        """Untimed: a fresh transducer for op *i*."""
        from repro.core import transitive_closure_transducer

        return transitive_closure_transducer()

    def execute(self, i: int, transducer):
        """Timed: the op itself."""
        from repro.net import check_consistency

        j = self._request(i)
        return check_consistency(
            self.network,
            transducer,
            self.instances[j],
            partition_count=PARTITIONS,
            seeds=self.requests[j].seeds,
        )

    def check(self, i: int, report) -> tuple[bool, dict]:
        """The oracle, plus the op's exact counts from ``RunStats``."""
        expected = self.requests[self._request(i)].closure
        ok = (
            report.consistent
            and report.unconverged == 0
            and bool(report.outputs)
            and report.outputs[0] == expected
        )
        counts = {
            "runs": len(report.observations),
            "steps": sum(obs.result.stats.steps for obs in report.observations),
        }
        return ok, counts

    def verdict_stats(self, counts) -> dict:
        return {}
