"""Coordination-freeness (Section 5).

"We call Π coordination-free on N if for every instance I of Sin,
there exists a horizontal partition H of I on N and a run ρ of (N, Π)
on H, in which a quiescence point is already reached by only performing
heartbeat transitions."  Π is coordination-free when this holds on
every network.

Operationally: Π is coordination-free on N for instance I iff some
partition H lets round-robin heartbeats alone already produce the full
answer Q(I) (for a consistent network the output can never exceed Q(I),
and outputs accumulate monotonically, so reaching Q(I) by heartbeats
*is* reaching a quiescence point of a fair completion).

The existential over partitions is discharged by trying the named
special partitions first (full replication is the witness for every
oblivious transducer — Prop. 11's proof) and then sampling; for tiny
instances the check can be exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.instance import Instance
from ..core.transducer import Transducer
from .network import Network
from .partition import (
    HorizontalPartition,
    enumerate_partitions,
    full_replication,
    sample_partitions,
)
from .run import run_schedule
from .scheduler import HeartbeatOnlyScheduler, Scheduler


@dataclass
class CoordinationFreenessReport:
    """The verdict for one (network, instance) pair."""

    coordination_free: bool
    witness: HorizontalPartition | None
    expected_output: frozenset
    partitions_tried: int
    exhaustive: bool

    def __repr__(self) -> str:
        status = "free" if self.coordination_free else "NOT free"
        how = "exhaustive" if self.exhaustive else "sampled"
        return (
            f"CoordinationFreenessReport({status}, tried={self.partitions_tried} "
            f"[{how}])"
        )


def heartbeat_output(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    max_rounds: int = 1_000,
    scheduler: Scheduler | None = None,
) -> frozenset:
    """The output reachable by heartbeat transitions alone on *partition*.

    The probe is a :class:`~repro.net.scheduler.HeartbeatOnlyScheduler`
    schedule by default; pass another delivery-free scheduler to vary
    the probe shape (the definition only requires *some* run reaching
    quiescence by heartbeats, so any heartbeat-only schedule is a
    legitimate witness search).  A scheduler that delivers messages
    would silently corrupt the coordination-freeness verdict, so the
    probe rejects one after the fact.
    """
    if scheduler is None:
        scheduler = HeartbeatOnlyScheduler(max_rounds=max_rounds)
    result = run_schedule(
        network, transducer, partition, scheduler, max_steps=None
    )
    if result.stats.deliveries:
        raise ValueError(
            f"heartbeat_output needs a delivery-free scheduler; "
            f"{scheduler.name!r} performed {result.stats.deliveries} deliveries"
        )
    return result.output


def _heartbeat_probe(context, partition):
    """Sweep worker: one heartbeat-only probe (module-level so the
    parallel executor can ship it to forked workers)."""
    network, transducer, max_rounds = context
    return heartbeat_output(network, transducer, partition, max_rounds)


def check_coordination_free_on(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    expected_output: frozenset,
    exhaustive_limit: int = 4_096,
    sample_count: int = 12,
    max_rounds: int = 1_000,
    run_cache=None,
    engine=None,
) -> CoordinationFreenessReport:
    """Search for a witness partition on *network* for *instance*.

    *expected_output* must be Q(I) for the query Q the network computes
    (obtain it via :func:`repro.net.consistency.computed_output`).

    When the space of partitions is small enough the search is
    exhaustive, making a negative verdict a proof (for this instance and
    round bound); otherwise a negative verdict only reports that no
    sampled partition works.

    *engine* (a :class:`~repro.net.executor.SweepEngine`; ``None`` is
    serial) probes candidate partitions concurrently, in chunks.  The report is deterministic and identical
    to the serial search: candidates keep their enumeration order, the
    witness is the *first* succeeding partition in that order, and
    ``partitions_tried`` counts up to it — parallelism only changes how
    much speculative probing happens beyond the witness, never what is
    reported.

    *run_cache* memoizes individual probes (a heartbeat-only run is a
    pure function of ``(network, transducer, partition)``) under the
    ``"heartbeat-only"`` key kind, so re-checks — the CALM diagnostic
    probes the same transducer on the test instance *and* the empty
    instance, and CI re-probes yesterday's grid — skip straight to the
    recorded outputs.  A ``fork``-lifetime *engine* forks one pool per
    search and probes every chunk through it.  Probes are small, so on
    small partition spaces the serial engine can be the fastest (see
    the lifetime table in ``docs/runtime.md``).
    """
    from itertools import islice

    from .executor import CacheSplice, SweepEngine
    from .runcache import resolve_run_cache, run_key, transducer_fingerprint

    nodes = len(network)
    space = (2**nodes - 1) ** max(len(instance), 1)
    exhaustive = space <= exhaustive_limit

    if exhaustive:
        candidates = enumerate_partitions(instance, network)
    else:
        candidates = iter(
            sample_partitions(instance, network, sample_count)
        )

    cache = resolve_run_cache(run_cache)
    fingerprint = (
        transducer_fingerprint(transducer) if cache is not None else None
    )
    probe_kwargs = {"max_rounds": max_rounds}

    def probe_key(partition):
        return run_key(
            "heartbeat-only", network, fingerprint, partition, 0, probe_kwargs
        )

    context = (network, transducer, max_rounds)
    eng = engine if engine is not None else SweepEngine()
    chunk_size = eng.workers if eng.parallel else 1

    def probes():
        # One engine session for the whole search: the worker pool is
        # forked once and reused across chunks (probes are small;
        # per-chunk pools would be dominated by fork setup).  The
        # session is torn down in this generator's ``finally`` and the
        # consumer below closes the generator explicitly, so an early
        # exit — witness found with candidates still unprobed — still
        # drains and joins the session's pool deterministically;
        # abandonment cleanup used to be left to the garbage
        # collector.
        session = eng.session(_heartbeat_probe, context)
        try:
            while True:
                chunk = list(islice(candidates, chunk_size))
                if not chunk:
                    return
                splice = CacheSplice(chunk, cache, probe_key)
                outputs = splice.fill(session.map(splice.pending_tasks))
                yield from zip(chunk, outputs)
        except GeneratorExit:
            raise
        except BaseException:
            session.terminate()
            raise
        finally:
            session.close()

    stream = probes()
    tried = 0
    try:
        for partition, output in stream:
            tried += 1
            if output == expected_output:
                return CoordinationFreenessReport(
                    coordination_free=True,
                    witness=partition,
                    expected_output=expected_output,
                    partitions_tried=tried,
                    exhaustive=exhaustive,
                )
    finally:
        stream.close()
    return CoordinationFreenessReport(
        coordination_free=False,
        witness=None,
        expected_output=expected_output,
        partitions_tried=tried,
        exhaustive=exhaustive,
    )


def full_replication_suffices(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    expected_output: frozenset,
    max_rounds: int = 1_000,
) -> bool:
    """Does the everything-everywhere partition reach Q(I) without messages?

    True for every oblivious transducer (the proof of Proposition 11);
    *not* necessary for coordination-freeness in general — the
    A/B-nonempty transducer of Section 5 is the counterexample, which
    bench E11 exercises.
    """
    partition = full_replication(instance, network)
    return (
        heartbeat_output(network, transducer, partition, max_rounds)
        == expected_output
    )
