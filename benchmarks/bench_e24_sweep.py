"""E24 — the parallel sweep executor (engineering, not a paper claim).

Consistency checking executes a partitions × seeds grid of fair runs;
PR 3 made the grid a parallel sweep — now the ``fork`` lifetime of the
unified :class:`~repro.net.executor.SweepEngine`.  Every run of a
transducer shares its memos: the transition cache and the convergence
tracker's quiescence summaries (``transducer.summary_memo``), and
forked workers inherit them.

The measurement, on the E17 chain workload (the transitive-closure
flooder on a chain graph — the shape where every transition pays real
query evaluation):

1. **serial cold** — a fresh transducer: every run pays first-time
   query evaluations and summary proofs (later runs of the sweep reuse
   what earlier ones proved);
2. **warming** — the same sweep once more, serially, on the now warm
   transducer (this is what any earlier sweep in a session does);
3. **warm-transducer sweeps at 2 and 4 workers** — the fork lifetime
   on the warm transducer; workers fork-inherit its memos.

The bar: the 4-worker warm-transducer sweep must be ≥ 2.5× faster than
the serial cold sweep, with an *identical* observation list (the
executor's determinism contract — same seeds, same runs, same
evidence).  The summary memo's entry count after each sweep is
reported and snapshotted in ``BENCH_sweep.json``.
"""

import os
import pathlib
import time

from conftest import once, write_snapshot

from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import SweepEngine, check_consistency, line

S2 = schema(S=2)
CHAIN_FACTS = 20
N_NODES = 3
PARTITIONS = 3
SEEDS = (0, 1)
# Overridable for constrained CI runners (e.g. "2" for the 2-worker
# smoke step); the speedup bar applies to the largest count measured.
WORKER_COUNTS = tuple(
    int(w) for w in os.environ.get("REPRO_E24_WORKERS", "2,4").split(",")
)
REQUIRED_SPEEDUP = 2.5
SNAPSHOT = pathlib.Path(__file__).with_name("BENCH_sweep.json")


def _signature(observations):
    return [
        (obs.seed, obs.result.output, obs.result.converged, obs.result.stats.steps)
        for obs in observations
    ]


def test_e24_parallel_warm_sweep(benchmark, report):
    chain = instance(S2, S=[(i, i + 1) for i in range(CHAIN_FACTS)])
    net = line(N_NODES)
    rows = []
    snapshot = []
    ok = True
    bar_speedup = 0.0

    def run_all():
        nonlocal ok, bar_speedup
        transducer = transitive_closure_transducer()
        kwargs = dict(partition_count=PARTITIONS, seeds=SEEDS)

        t0 = time.perf_counter()
        cold = check_consistency(net, transducer, chain, **kwargs)
        t_cold = time.perf_counter() - t0
        ok &= cold.consistent and cold.unconverged == 0
        summaries = len(transducer.summary_memo)
        rows.append(["serial cold", 1, f"{t_cold:.2f}s", "-", summaries, "-"])
        snapshot.append({"sweep": "serial-cold", "workers": 1,
                         "seconds": round(t_cold, 3),
                         "summary_entries": summaries})

        t0 = time.perf_counter()
        warming = check_consistency(net, transducer, chain, **kwargs)
        t_warming = time.perf_counter() - t0
        summaries = len(transducer.summary_memo)
        ok &= warming.consistent
        ok &= _signature(warming.observations) == _signature(cold.observations)
        rows.append([
            "serial warming", 1, f"{t_warming:.2f}s",
            f"{t_cold / max(t_warming, 1e-9):.1f}x", summaries, "-",
        ])
        snapshot.append({
            "sweep": "serial-warming", "workers": 1,
            "seconds": round(t_warming, 3),
            "summary_entries": summaries,
        })

        for workers in WORKER_COUNTS:
            t0 = time.perf_counter()
            warm = check_consistency(
                net, transducer, chain,
                engine=SweepEngine(
                    workers=workers, lifetime="fork" if workers > 1 else None
                ),
                **kwargs,
            )
            t_warm = time.perf_counter() - t0
            speedup = t_cold / max(t_warm, 1e-9)
            # Determinism contract: same seeds, same runs, same evidence
            # — observation for observation, at any worker count.
            identical = warm.observations == cold.observations
            ok &= identical and warm.consistent
            if workers == WORKER_COUNTS[-1]:
                bar_speedup = speedup
            rows.append([
                "warm transducer", workers, f"{t_warm:.2f}s",
                f"{speedup:.1f}x", summaries, "yes" if identical else "NO",
            ])
            snapshot.append({
                "sweep": "warm-transducer", "workers": workers,
                "seconds": round(t_warm, 3),
                "speedup_vs_cold": round(speedup, 2),
                "observations_identical": identical,
            })

        ok &= bar_speedup >= REQUIRED_SPEEDUP
        write_snapshot(SNAPSHOT, {
            "experiment": "E24",
            "claim": f"{WORKER_COUNTS[-1]}-worker warm-transducer consistency "
                     "sweep >= 2.5x over the serial cold sweep on the E17 "
                     f"chain workload "
                     f"(TC flooding, chain n={CHAIN_FACTS}, line({N_NODES}))",
            "required_speedup": REQUIRED_SPEEDUP,
            "measured_speedup": round(bar_speedup, 2),
            "runs_per_sweep": PARTITIONS * len(SEEDS),
            "results": snapshot,
        })

    once(benchmark, run_all)
    report(
        "E24",
        "Parallel sweep executor on a warm transducer "
        f"(TC flooding on chain n={CHAIN_FACTS}, line({N_NODES}), "
        f"{PARTITIONS * len(SEEDS)} runs per sweep)",
        ["sweep", "workers", "time", "speedup", "summary entries",
         "identical"],
        rows,
        ok,
        f"({WORKER_COUNTS[-1]}-worker warm-transducer speedup "
        f"{bar_speedup:.1f}x, "
        f"bar {REQUIRED_SPEEDUP}x; parallel observations == serial "
        "observations)",
    )
