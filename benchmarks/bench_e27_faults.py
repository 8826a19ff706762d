"""E27 — the deterministic fault plane (robustness, not a paper claim).

Two measurements on the E17 chain workload (transitive-closure
flooding on a chain graph over ``line(3)``, the shape where every
transition pays real query evaluation):

1. **Zero-fault overhead** — the same consistency sweep, clean vs
   wrapped in a no-op :class:`~repro.net.FaultPlan` (all rates zero).
   The wrapper still interposes on every scheduler action, so this
   prices the fault plane's bookkeeping itself.  The bar: the median
   over N pairs of the wrapped/clean time ratio is within 15%, with
   identical evidence (same outputs, same steps, run for run).  Each
   pair runs both sweeps back to back, in alternating order, so a
   slow spell on a shared host lands in one pair's ratio rather than
   in one side's best time.

2. **Loss/dup/crash grid** — seeded plans of increasing hostility.
   The CALM prediction for this workload (monotone, retransmits its
   full state on every heartbeat): every cell still *converges to the
   clean output* — message loss costs retransmission rounds, crashes
   cost restarts, but never the answer.  Fault counters from
   :meth:`~repro.net.ConsistencyReport.fault_counts` are snapshotted
   per cell into ``BENCH_faults.json``.

``REPRO_FAULT_SMOKE=1`` (the CI fault-matrix job) runs the grid
through a 2-worker engine, exercising the fault plane and the
self-healing executor together.
"""

import os
import pathlib
import statistics
import time

from conftest import once, write_snapshot

from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import FaultPlan, SweepEngine, check_consistency, line

S2 = schema(S=2)
CHAIN_FACTS = 20
N_NODES = 3
PARTITIONS = 3
SEEDS = (0, 1)
SMOKE = os.environ.get("REPRO_FAULT_SMOKE") == "1"
PAIRS = 9
GRID_WORKERS = 2 if SMOKE else 1
OVERHEAD_BAR = 0.15
SNAPSHOT = pathlib.Path(__file__).with_name("BENCH_faults.json")

#: The hostility ladder: loss alone, duplication alone, both, crashes,
#: and everything at once.  One shared plan seed — the cells are
#: replayable individually with exactly these constructor calls.
GRID = [
    ("loss=0.10", FaultPlan(seed=7, loss=0.10)),
    ("loss=0.25", FaultPlan(seed=7, loss=0.25)),
    ("dup=0.20", FaultPlan(seed=7, duplication=0.20)),
    ("loss+dup", FaultPlan(seed=7, loss=0.10, duplication=0.20)),
    ("crash=0.10", FaultPlan(seed=7, crash=0.10, restart_after=4)),
    (
        "mixed",
        FaultPlan(
            seed=7, loss=0.10, duplication=0.15, delay=0.20,
            crash=0.05, restart_after=4, partition_rate=0.02,
        ),
    ),
]


def _signature(observations):
    return [
        (obs.seed, obs.result.output, obs.result.converged,
         obs.result.stats.steps)
        for obs in observations
    ]


def _total_steps(report):
    return sum(obs.result.stats.steps for obs in report.observations)


def test_e27_fault_plane(benchmark, report):
    chain = instance(S2, S=[(i, i + 1) for i in range(CHAIN_FACTS)])
    net = line(N_NODES)
    transducer = transitive_closure_transducer()
    kwargs = dict(partition_count=PARTITIONS, seeds=SEEDS)
    noop = FaultPlan()
    rows = []
    snapshot = []
    ok = True
    overhead = 0.0

    def run_all():
        nonlocal ok, overhead
        # Warm the transition cache once so the overhead pair compares
        # wrapper bookkeeping, not first-time query evaluation.
        clean = check_consistency(net, transducer, chain, **kwargs)
        ok &= clean.consistent and clean.unconverged == 0

        def timed(plan):
            t0 = time.perf_counter()
            swept = check_consistency(net, transducer, chain, faults=plan, **kwargs)
            return time.perf_counter() - t0, swept

        cleans, noops = [], []
        for pair in range(PAIRS):
            if pair % 2:
                t_noop, wrapped = timed(noop)
                t_clean, again = timed(None)
            else:
                t_clean, again = timed(None)
                t_noop, wrapped = timed(noop)
            cleans.append(t_clean)
            noops.append(t_noop)
            ok &= _signature(wrapped.observations) == _signature(
                again.observations
            )
            ok &= sum(wrapped.fault_counts().values()) == 0
        overhead = statistics.median(
            n / max(c, 1e-9) for n, c in zip(noops, cleans)
        ) - 1.0
        t_clean = statistics.median(cleans)
        t_noop = statistics.median(noops)
        ok &= overhead <= OVERHEAD_BAR
        rows.append([
            "no-op plan",
            f"{t_noop * 1e3:.1f}ms (clean {t_clean * 1e3:.1f}ms)",
            f"{overhead * 100:+.1f}% overhead", 0, 0, 0,
            "yes" if ok else "NO",
        ])
        snapshot.append({
            "cell": "noop-overhead",
            "clean_seconds": round(t_clean, 4),
            "wrapped_seconds": round(t_noop, 4),
            "overhead": round(overhead, 4),
            "pairs": PAIRS,
        })

        clean_steps = _total_steps(clean)
        for label, plan in GRID:
            t0 = time.perf_counter()
            faulty = check_consistency(
                net, transducer, chain, faults=plan,
                engine=SweepEngine(workers=GRID_WORKERS), **kwargs,
            )
            seconds = time.perf_counter() - t0
            counts = faulty.fault_counts()
            # CALM under faults: same outputs, everywhere, every run.
            cell_ok = (
                faulty.consistent
                and faulty.unconverged == 0
                and faulty.outputs == clean.outputs
            )
            ok &= cell_ok
            injected = sum(counts.values())
            ok &= injected > 0  # the plan really fired
            rows.append([
                label, f"{seconds * 1e3:.0f}ms",
                f"{_total_steps(faulty) / max(clean_steps, 1):.2f}x",
                counts["messages_dropped"], counts["messages_duplicated"],
                counts["crashes"], "yes" if cell_ok else "NO",
            ])
            snapshot.append({
                "cell": label,
                "plan": plan.token(),
                "workers": GRID_WORKERS,
                "seconds": round(seconds, 4),
                "steps_vs_clean": round(
                    _total_steps(faulty) / max(clean_steps, 1), 3
                ),
                "converged_to_clean_output": cell_ok,
                **counts,
            })

        write_snapshot(SNAPSHOT, {
            "experiment": "E27",
            "claim": "no-op fault-plan sweeps within 15% of clean sweeps; "
                     "the CALM-positive E17 chain workload (TC flooding, "
                     f"chain n={CHAIN_FACTS}, line({N_NODES})) converges "
                     "to the clean output under every loss/dup/crash cell",
            "overhead_bar": OVERHEAD_BAR,
            "measured_overhead": round(overhead, 4),
            "runs_per_sweep": PARTITIONS * len(SEEDS),
            "grid_workers": GRID_WORKERS,
            "results": snapshot,
        })

    once(benchmark, run_all)
    report(
        "E27",
        "Deterministic fault plane: zero-fault overhead and a seeded "
        f"loss/dup/crash grid (TC flooding on chain n={CHAIN_FACTS}, "
        f"line({N_NODES}), {PARTITIONS * len(SEEDS)} runs per sweep)",
        ["cell", "time", "steps vs clean", "dropped", "duplicated",
         "crashes", "clean output"],
        rows,
        ok,
        f"(no-op overhead {overhead * 100:+.1f}%, bar "
        f"{OVERHEAD_BAR * 100:.0f}%; every grid cell converged to the "
        "clean output)",
    )
