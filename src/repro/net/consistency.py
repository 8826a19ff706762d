"""Consistency and network-topology independence (Section 4).

"A transducer network (N, Π) is *consistent* if for every instance I of
Sin, all fair runs on all possible horizontal partitions of I have the
same output."  A consistent network *computes* Q if that common output
is always Q(I).  A transducer is *network-topology independent* when
(N, Π) is consistent for every network N and computes the same query
regardless of N.

Both properties quantify over all instances, partitions and fair runs —
undecidable in general — so the checkers here enumerate/sample per the
substitution rules in DESIGN.md §2 and return evidence-carrying
reports: a counterexample found is a genuine refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.instance import Instance
from ..core.transducer import Transducer
from .network import Network, single, standard_topologies
from .partition import HorizontalPartition, sample_partitions
from .run import RunResult, RunStats, run_fair


@dataclass
class RunObservation:
    """One observed run: where it came from and what it output."""

    network: Network
    partition: HorizontalPartition
    seed: int
    result: RunResult


@dataclass
class ConsistencyReport:
    """Evidence gathered by :func:`check_consistency`.

    ``cache_hits``/``cache_misses``/``cache_dedup`` report the
    run-level :class:`~repro.net.runcache.RunCache` when the sweep ran
    with one (all stay 0 otherwise): hits served from the cache,
    misses actually executed, and in-grid duplicate cells resolved
    without consulting the store (they never execute, so they are
    neither hits nor misses — ``hits + misses + dedup`` covers the
    grid).
    """

    consistent: bool
    outputs: list[frozenset] = field(default_factory=list)
    observations: list[RunObservation] = field(default_factory=list)
    unconverged: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_dedup: int = 0

    def fault_counts(self) -> dict[str, int]:
        """The per-run :meth:`~repro.net.run.RunStats.fault_counts`
        summed over every observation; all 0 for clean sweeps."""
        totals = RunStats().fault_counts()
        for obs in self.observations:
            for name, count in obs.result.stats.fault_counts().items():
                totals[name] += count
        return totals

    def _groups(self) -> dict[frozenset, list[RunObservation]]:
        """Observations grouped by output, one O(n) pass, insertion-ordered."""
        groups: dict[frozenset, list[RunObservation]] = {}
        for obs in self.observations:
            groups.setdefault(obs.result.output, []).append(obs)
        return groups

    @property
    def distinct_outputs(self) -> list[frozenset]:
        # One dict pass instead of the old O(n²) list-membership scan;
        # dict.fromkeys keeps first-seen order, matching the old result.
        return list(dict.fromkeys(self.outputs))

    def witness_pair(self) -> tuple[RunObservation, RunObservation] | None:
        """Two observations with different outputs, if any.

        Matches the old O(n²) pairwise scan's answer — the
        lexicographically first differing pair always involves the
        first observation (any two observations that both equal it
        cannot differ from each other), so grouping by output in one
        pass suffices.
        """
        groups = self._groups()
        if len(groups) <= 1:
            return None
        first, second = list(groups)[:2]
        return (groups[first][0], groups[second][0])


def observe_runs(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    partitions: list[HorizontalPartition] | None = None,
    partition_count: int = 5,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_steps: int = 20_000,
    batch_delivery: bool = False,
    convergence: str = "incremental",
    run_cache=None,
    engine=None,
    faults=None,
) -> list[RunObservation]:
    """Run (N, Π) on several partitions × schedules and record outputs.

    *batch_delivery* and *convergence* are forwarded to
    :func:`~repro.net.run.run_fair` — consistency quantifies over fair
    runs, and batched runs of batchable (oblivious, monotone,
    inflationary) transducers are fair
    runs too, so sampling them strengthens the evidence.

    *engine* (a :class:`~repro.net.executor.SweepEngine`; ``None`` is
    serial) executes the sweep: runs are independent, so they execute
    concurrently without changing a single observation — the returned
    list is identical to the serial one for every worker count.
    *run_cache* short-circuits whole runs already known to the
    :class:`~repro.net.runcache.RunCache`, and a ``persistent``-lifetime
    *engine* reuses one live fork pool across consecutive sweeps; both
    also leave every observation unchanged.  *faults* (a
    :class:`~repro.net.faults.FaultPlan`) subjects every run to the
    same seeded fault plan — a faulty run is
    still a deterministic function of ``(plan, seed, scheduler)``, so
    the returned observations stay reproducible bit-for-bit.
    """
    from .executor import sweep_runs

    if partitions is None:
        partitions = sample_partitions(instance, network, partition_count)
    return sweep_runs(
        network,
        transducer,
        partitions,
        seeds,
        max_steps=max_steps,
        batch_delivery=batch_delivery,
        convergence=convergence,
        run_cache=run_cache,
        engine=engine,
        faults=faults,
    )


def check_consistency(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    partitions: list[HorizontalPartition] | None = None,
    partition_count: int = 5,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_steps: int = 20_000,
    batch_delivery: bool = False,
    convergence: str = "incremental",
    run_cache=None,
    engine=None,
    faults=None,
) -> ConsistencyReport:
    """Empirical consistency check of (N, Π) on one instance.

    Consistency fails definitively if two fair runs produced different
    outputs; it is supported (not proved) when all sampled runs agree.
    *engine*/*run_cache* parallelize and cache the underlying sweep
    (see :func:`observe_runs`) without changing the report's evidence;
    run-cache effectiveness is surfaced on the report.  *faults*
    injects a seeded :class:`~repro.net.faults.FaultPlan` into every
    run; the aggregate fault counters are read through
    :meth:`ConsistencyReport.fault_counts`.
    """
    from .runcache import resolve_run_cache

    cache = resolve_run_cache(run_cache)
    chits0 = cmisses0 = cdedup0 = 0
    if cache is not None:
        chits0, cmisses0 = cache.cache_hits, cache.cache_misses
        cdedup0 = cache.cache_dedup
    observations = observe_runs(
        network,
        transducer,
        instance,
        partitions,
        partition_count,
        seeds,
        max_steps,
        batch_delivery=batch_delivery,
        convergence=convergence,
        run_cache=cache,
        engine=engine,
        faults=faults,
    )
    outputs = [obs.result.output for obs in observations]
    unconverged = sum(1 for obs in observations if not obs.result.converged)
    consistent = len(set(outputs)) <= 1
    return ConsistencyReport(
        consistent=consistent,
        outputs=outputs,
        observations=observations,
        unconverged=unconverged,
        cache_hits=cache.cache_hits - chits0 if cache is not None else 0,
        cache_misses=cache.cache_misses - cmisses0 if cache is not None else 0,
        cache_dedup=cache.cache_dedup - cdedup0 if cache is not None else 0,
    )


def computed_output(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    seed: int = 0,
    max_steps: int = 20_000,
    batch_delivery: bool = False,
    convergence: str = "incremental",
    run_cache=None,
    faults=None,
) -> frozenset:
    """The output of one canonical fair run (full replication, given seed).

    For a consistent network this *is* the computed query's answer.
    *run_cache* skips the run entirely when this exact cell was
    executed before — it shares keys with :func:`sweep_runs`, so a
    consistency sweep can warm the CALM reference evaluation and vice
    versa.
    """
    from .runcache import resolve_run_cache, run_key, transducer_fingerprint

    cache = resolve_run_cache(run_cache)
    partitions = sample_partitions(instance, network, 1)
    key = None
    if cache is not None:
        run_kwargs = {
            "max_steps": max_steps,
            "batch_delivery": batch_delivery,
            "convergence": convergence,
        }
        if faults is not None:
            run_kwargs["faults"] = faults
        key = run_key(
            "fair-random",
            network,
            transducer_fingerprint(transducer),
            partitions[0],
            seed,
            run_kwargs,
        )
        cached = cache.get(key)
        if cached is not None:
            return cached.output
    result = run_fair(
        network,
        transducer,
        partitions[0],
        seed=seed,
        max_steps=max_steps,
        batch_delivery=batch_delivery,
        convergence=convergence,
        faults=faults,
    )
    if cache is not None:
        cache.record(key, result)
    return result.output


@dataclass
class TopologyIndependenceReport:
    """Evidence gathered by :func:`check_topology_independence`."""

    independent: bool
    per_network: dict[str, frozenset] = field(default_factory=dict)
    inconsistent_networks: list[str] = field(default_factory=list)

    def distinct_outputs(self) -> list[frozenset]:
        return list(dict.fromkeys(self.per_network.values()))


def check_topology_independence(
    transducer: Transducer,
    instance: Instance,
    networks: list[Network] | None = None,
    partition_count: int = 3,
    seeds: tuple[int, ...] = (0, 1),
    max_steps: int = 20_000,
    run_cache=None,
    engine=None,
    faults=None,
) -> TopologyIndependenceReport:
    """Empirically check network-topology independence on one instance.

    Every sampled network must be internally consistent, and all
    networks must agree on the output.  The single-node network is
    always included — Example 4 fails exactly there.

    A single *run_cache* is sound across all the networks probed here
    (the network is part of the cache key), and so is a persistent
    *engine*: one live pool serves every per-network sweep, which is
    the fork-amortization this probe grid exists for.
    """
    from .runcache import resolve_run_cache

    if networks is None:
        networks = standard_topologies(4)
    if not any(len(net) == 1 for net in networks):
        networks = [single()] + list(networks)
    run_cache = resolve_run_cache(run_cache)
    per_network: dict[str, frozenset] = {}
    inconsistent: list[str] = []
    for network in networks:
        report = check_consistency(
            network,
            transducer,
            instance,
            partition_count=partition_count,
            seeds=seeds,
            max_steps=max_steps,
            run_cache=run_cache,
            engine=engine,
            faults=faults,
        )
        if not report.consistent:
            inconsistent.append(network.name)
            continue
        per_network[network.name] = report.outputs[0]
    outputs = set(per_network.values())
    independent = not inconsistent and len(outputs) <= 1
    return TopologyIndependenceReport(
        independent=independent,
        per_network=per_network,
        inconsistent_networks=inconsistent,
    )
