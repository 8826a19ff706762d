"""Write ``golden_calm.json``, the oracle of the ``calm-zoo`` workload.

For each example it computes the full-empirical ``calm_verdict`` of
every instance the workload's generator can draw (1-4 facts per
relation over 1..5) — exhaustively for unary inputs, ``SAMPLES``
random draws for the transitive-closure transducer's binary ``S`` —
and checks that they all agree: each example has one verdict for the
whole generator, and that verdict is what the file records.

Run from the repository root (takes about two minutes):

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from calm_zoo import DOMAIN, GOLDEN, MAX_FACTS, random_relations, verdict_fields  # noqa: E402

SAMPLES = 40


def all_relations(inputs):
    """Every relation assignment the generator can produce."""
    choices = []
    for rel in sorted(inputs):
        rows = list(itertools.product(DOMAIN, repeat=inputs[rel]))
        subsets = [
            sorted(c) for k in range(1, MAX_FACTS + 1) for c in itertools.combinations(rows, k)
        ]
        choices.append([(rel, s) for s in subsets])
    for combo in itertools.product(*choices):
        yield dict(combo)


def main() -> int:
    from repro.analysis import calm_verdict
    from repro.core.examples import ALL_EXAMPLES
    from repro.db import Instance

    golden: dict[str, dict] = {}
    for name, factory in ALL_EXAMPLES.items():
        inputs = factory().schema.inputs
        if any(arity > 1 for arity in inputs.values()):
            rng = random.Random(f"golden/{name}")
            draws = [random_relations(rng, inputs) for _ in range(SAMPLES)]
        else:
            draws = list(all_relations(inputs))
        for rels in draws:
            fields = verdict_fields(calm_verdict(factory(), Instance.from_dict(inputs, rels)))
            if golden.setdefault(name, fields) != fields:
                raise SystemExit(f"{name}: the verdict on {rels} differs from other instances")
        print(f"{name}: one verdict over {len(draws)} instances", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
