"""E23 — the incremental network runtime (engineering, not a paper claim).

Two measurements on the E17 scaling workload (flooding on a chain
network, the shape where PR 1 left convergence checking as the
dominant cost):

1. **Incremental vs from-scratch convergence checking** at n = 120:
   a converged round-robin-batch run is recorded, then the identical
   sequence of (configuration, produced-output) check points is judged
   by the exact :func:`is_converged` and by a fresh
   :class:`ConvergenceTracker`.  The check points are the ``after``
   snapshots of the kept trace.  Both see the transition cache the recorded run
   warmed; each tracker starts from an empty summary memo, so it proves
   every summary it uses.  Verdicts must agree point for point; the bar is
   the tracker being ≥ 3× faster overall.  Two check cadences are
   timed — once per round (the round-based schedulers' cadence) and a
   denser every-20-transitions stride — because the tracker's witness
   fast path pays off most when checks are frequent.

2. **Scheduler shoot-out** on flooding at n = 30: fair-random,
   round-robin-batch (batched and unbatched) and witness-guided
   (PR 3 — witness facts delivered first) must converge to the same
   output; batching must cut the number of delivery transitions.

A JSON snapshot (``BENCH_runtime.json``) records the timings so later
PRs can track the trajectory.
"""

import pathlib
import time

from conftest import once, write_snapshot

from repro.core import flooding_transducer, multicast_transducer
from repro.db import instance, schema
from repro.memo import Memo
from repro.net import (
    BatchingError,
    ConvergenceTracker,
    is_converged,
    line,
    round_robin,
    run_fair,
    run_round_robin_batch,
    run_witness_guided,
)

S2 = schema(S=2)
CHAIN_INSTANCE = instance(S2, S=[(1, 2), (2, 3)])
N_CONVERGENCE = 120
N_SCHEDULERS = 30
STRIDES = (20, 120)
REQUIRED_SPEEDUP = 3.0
SNAPSHOT = pathlib.Path(__file__).with_name("BENCH_runtime.json")


def _check_sequence(trace, stride):
    """(trace index, configuration, produced) at every *stride* steps."""
    produced: set = set()
    out = []
    for i, transition in enumerate(trace):
        produced |= transition.output
        if (i + 1) % stride == 0:
            out.append((i, transition.after, frozenset(produced)))
    return out


def test_e23_incremental_convergence(benchmark, report):
    flood = flooding_transducer(S2)
    net = line(N_CONVERGENCE)
    partition = round_robin(CHAIN_INSTANCE, net)
    rows = []
    snapshot = []
    ok = True
    total_exact = total_incremental = 0.0

    def run_all():
        nonlocal ok, total_exact, total_incremental
        recorded = run_round_robin_batch(
            net, flood, partition, keep_trace=True, max_rounds=2_000
        )
        ok &= recorded.converged
        for stride in STRIDES:
            seq = _check_sequence(recorded.trace, stride)
            t0 = time.perf_counter()
            exact_verdicts = [
                is_converged(net, flood, config, produced)
                for _, config, produced in seq
            ]
            t_exact = time.perf_counter() - t0

            # The recorded run and the previous stride's tracker proved
            # summaries on this transducer; drop them so the tracker is
            # timed proving its own.
            flood.summary_memo = Memo(flood.summary_memo.limit)
            tracker = ConvergenceTracker(net, flood)
            t0 = time.perf_counter()
            incremental_verdicts = [
                tracker.check(config, produced) for _, config, produced in seq
            ]
            t_incremental = time.perf_counter() - t0

            agree = exact_verdicts == incremental_verdicts
            ok &= agree
            total_exact += t_exact
            total_incremental += t_incremental
            speedup = t_exact / max(t_incremental, 1e-9)
            rows.append([
                N_CONVERGENCE, stride, len(seq),
                f"{t_exact * 1000:.1f}ms", f"{t_incremental * 1000:.1f}ms",
                f"{speedup:.1f}x",
                tracker.witness_hits,
                "yes" if agree else "NO",
            ])
            snapshot.append({
                "n": N_CONVERGENCE,
                "stride": stride,
                "checks": len(seq),
                "exact_s": round(t_exact, 4),
                "incremental_s": round(t_incremental, 4),
                "speedup": round(speedup, 2),
                "witness_hits": tracker.witness_hits,
            })
        overall = total_exact / max(total_incremental, 1e-9)
        ok &= overall >= REQUIRED_SPEEDUP
        write_snapshot(SNAPSHOT, {
            "experiment": "E23",
            "claim": "incremental convergence tracker >= 3x over the "
                     "from-scratch check on E17 chain flooding at n=120",
            "required_speedup": REQUIRED_SPEEDUP,
            "measured_overall_speedup": round(overall, 2),
            "results": snapshot,
        })

    once(benchmark, run_all)
    overall = total_exact / max(total_incremental, 1e-9)
    report(
        "E23",
        "Incremental convergence tracking vs the exact from-scratch check "
        f"(flooding on line({N_CONVERGENCE}))",
        ["n", "stride", "checks", "exact", "incremental", "speedup",
         "witness hits", "verdicts agree"],
        rows,
        ok,
        f"(overall speedup {overall:.1f}x, bar {REQUIRED_SPEEDUP:.0f}x; "
        "incremental == exact on every check point)",
    )


def test_e23_scheduler_shootout(benchmark, report):
    flood = flooding_transducer(S2)
    net = line(N_SCHEDULERS)
    partition = round_robin(CHAIN_INSTANCE, net)
    rows = []
    ok = True

    def run_all():
        nonlocal ok
        fair = run_fair(net, flood, partition, seed=0, max_steps=200_000)
        batched = run_round_robin_batch(net, flood, partition)
        unbatched = run_round_robin_batch(net, flood, partition,
                                          batch_delivery=False)
        witness = run_witness_guided(net, flood, partition)
        witness_batched = run_witness_guided(net, flood, partition,
                                             batch_delivery=True)
        runs = [
            ("fair-random", fair),
            ("round-robin-batch", batched),
            ("round-robin (1-at-a-time)", unbatched),
            ("witness-guided", witness),
            ("witness-guided (batched)", witness_batched),
        ]
        reference = fair.output
        for name, result in runs:
            good = result.converged and result.output == reference
            ok &= good
            rows.append([
                name, result.stats.steps, result.stats.heartbeats,
                result.stats.deliveries, "yes" if good else "NO",
            ])
        # Batching must cut delivery transitions vs the same round shape.
        ok &= batched.stats.deliveries < unbatched.stats.deliveries
        # And the gate must reject the coordination-laden multicast.
        try:
            run_fair(net, multicast_transducer(S2), partition,
                     batch_delivery=True)
            ok = False
            rows.append(["multicast batched", "-", "-", "-", "NOT REJECTED"])
        except BatchingError:
            rows.append(["multicast batched", "-", "-", "-", "rejected (ok)"])

    once(benchmark, run_all)
    report(
        "E23b",
        f"Schedulers on flooding line({N_SCHEDULERS}): same output, "
        "batching cuts deliveries, gate rejects non-oblivious",
        ["scheduler", "steps", "heartbeats", "deliveries", "correct"],
        rows,
        ok,
        "(one-fact-at-a-time semantics stays the reference path)",
    )
