"""``calm-zoo``: one ``calm_verdict`` per op over the paper's example zoo.

Requests go round-robin over the six transducers of
``repro.core.examples.ALL_EXAMPLES``; ``static_first`` is off for one
round and on for the next.  Each request gets a small seeded random
instance (domain 1..5, 1-4 facts per input relation), and each op a
fresh transducer.  The fact count steps through 1..4 every two rounds,
so every stretch of a run holds each size, mode and example alike; the
seed draws the facts.  Every request is sent twice in a row (odd ops repeat
the op before them: same transducer, instance and mode); nothing is
cached across ops, so a repeat costs what the first verdict cost.  No
request recurs otherwise within a run: a run draws ~130 instances, so
its median does not hang on a few draws (with 48 requests cycled, it
moved with the seed by 15%).

The oracle is ``golden_calm.json`` (written by ``make_golden.py``):
each example's full-empirical verdict, which ``make_golden.py`` found
to be the same on every instance this generator can draw.  Static-first
verdicts must equal the empirical ones; that is the analyzer's
soundness contract.
"""

from __future__ import annotations

import json
import pathlib
import random

DOMAIN = (1, 2, 3, 4, 5)
MAX_FACTS = 4
#: Distinct requests of a run, more than a run gets through.
REQUESTS = 600
#: Ops whose exact counts every run reports (every run completes them).
COUNTED_OPS = 48
GOLDEN = pathlib.Path(__file__).with_name("golden_calm.json")
#: The verdict fields the oracle compares (CalmVerdict equality fields).
FIELDS = (
    "oblivious", "inflationary", "monotone_queries", "uses_id", "uses_all",
    "coordination_free", "computed_query_monotone", "topology_independent",
)


def random_relations(rng: random.Random, inputs, size: int | None = None) -> dict[str, list[tuple]]:
    """Random rows over ``DOMAIN`` for each input relation: *size* rows
    each, or 1..``MAX_FACTS`` drawn per relation when *size* is None."""
    rels = {}
    for rel in sorted(inputs):
        arity = inputs[rel]
        rows: set[tuple] = set()
        size_here = rng.randint(1, MAX_FACTS) if size is None else size
        while len(rows) < size_here:
            rows.add(tuple(rng.choice(DOMAIN) for _ in range(arity)))
        rels[rel] = sorted(rows)
    return rels


def verdict_fields(verdict) -> dict:
    return {f: getattr(verdict, f) for f in FIELDS}


class Workload:
    """The op sequence of one run and its oracle."""

    def __init__(self, seed: int) -> None:
        from repro.core.examples import ALL_EXAMPLES
        from repro.db import Instance

        self.factories = ALL_EXAMPLES
        self.names = list(ALL_EXAMPLES)
        self.counted_ops = COUNTED_OPS
        self.golden = json.loads(GOLDEN.read_text())
        schemas = {name: factory().schema.inputs for name, factory in ALL_EXAMPLES.items()}
        self.requests = []
        for j in range(REQUESTS):
            name = self.names[j % len(self.names)]
            inputs = schemas[name]
            rng = random.Random(f"calm-zoo/{seed}/{j}")
            rels = random_relations(rng, inputs, size=1 + (j // 12) % MAX_FACTS)
            static_first = (j // len(self.names)) % 2 == 1
            self.requests.append((name, Instance.from_dict(inputs, rels), static_first))

    def _request(self, i: int):
        return self.requests[(i // 2) % REQUESTS]

    def is_repeat(self, i: int) -> bool:
        return i % 2 == 1 or i >= 2 * REQUESTS

    def prepare(self, i: int):
        name = self._request(i)[0]
        return self.factories[name]()

    def execute(self, i: int, transducer):
        from repro.analysis import calm_verdict

        _name, inst, static_first = self._request(i)
        return calm_verdict(transducer, inst, static_first=static_first)

    def check(self, i: int, verdict) -> tuple[bool, dict]:
        name = self._request(i)[0]
        ok = verdict_fields(verdict) == self.golden[name]
        return ok, {"static": verdict.verdict_source == "static"}

    def verdict_stats(self, counts) -> dict:
        static = sum(1 for c in counts if c.get("static"))
        return {"calm.static_ratio": static / len(counts) if counts else 0.0}
