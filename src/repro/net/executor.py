"""The unified sweep engine: one executor, serial or forked workers.

The paper's semantic properties (consistency, coordination-freeness,
CALM) quantify over *many* fair runs — every partition × seed ×
scheduler combination — and each of those runs is completely
independent of the others: a seeded schedule is a pure function of
``(network, transducer, partition, seed)``.  That independence is
exactly what makes parallelism safe (the same observation the
Canonical Amoebot Model makes for its concurrency layer: concurrent
executions are justified by reduction to a sequential reference):
executing the runs of a sweep concurrently cannot change any
observation, so the engine guarantees **determinism** — the result
list it returns is identical, result for result, to the serial
sweep's, whatever the worker count.  Results are ordered by task
index, never by completion.  ``tests/test_executor_conformance.py``
enforces the contract differentially: every (lifetime × workers ×
cache configuration) combination is run against the serial unbounded
reference and must match it bit for bit.

Every sweep entry point takes one execution parameter,
``engine=`` (``None`` is a serial engine): a :class:`SweepEngine`
with one of two worker *lifetimes*:

* ``serial`` — the reference loop, in-process, no pool ever;
* ``fork`` — a fresh fork pool per :class:`EngineSession`, with the
  ``(fn, context)`` payload shipped to workers by **fork inheritance**
  (never pickled), so contexts may carry unpicklable ``PythonQuery``
  closures and warm transition caches.  The pool lives exactly as long
  as its session; an engine owns no pool and needs no shutdown.

On top of the engine, :class:`CacheSplice` is the one shared
implementation of the cached/pending bookkeeping every sweep needs
with a :class:`~repro.net.runcache.RunCache`: split the task grid into
cache hits, in-grid duplicates and pending work, fan only the pending
tasks out, and splice the fresh results back in task order
(``sweep_runs``, ``check_coordination_free_on`` and
``sweep_distributed`` all use it).  The splice makes the parent the
cache's only writer: workers receive pending tasks only, never the
cache.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass

from .consistency import RunObservation
from .network import Network
from .partition import HorizontalPartition
from .run import run_fair

__all__ = [
    "CacheSplice",
    "EngineHealth",
    "EngineSession",
    "GridResults",
    "LIFETIMES",
    "SweepEngine",
    "sweep_runs",
]

LIFETIMES = ("serial", "fork")


def _fork_context():
    """The fork multiprocessing context, or None where unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


# ---------------------------------------------------------------------------
# Worker-side plumbing
# ---------------------------------------------------------------------------

# The (fn, context) pair installed in each pool worker by the
# initializer.  With the fork start method this is inherited
# memory, not a pickle — which is what lets the context carry
# transducers with arbitrary (unpicklable) PythonQuery closures and
# warm caches.
_WORKER_PAYLOAD = None


def _init_worker(payload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _call_worker(item):
    fn, context = _WORKER_PAYLOAD
    return fn(context, item)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class EngineHealth:
    """Self-healing counters, accumulated over an engine's lifetime.

    ``worker_deaths`` — pool workers observed dead mid-map (killed,
    ``os._exit``, OOM…); ``respawns`` — pools torn down and rebuilt in
    response (deaths and timeouts both force one — the replacement
    pool a dead worker leaves behind has lost the in-flight task, and
    a hung worker must be killed); ``retries`` — task re-executions
    after a worker-raised exception or a worker death; ``timeouts`` —
    tasks that exceeded the per-run ``timeout=``; ``quarantined`` —
    tasks pulled out of the pool entirely (timed out, or still failing
    at the retry cap from worker deaths) and ``serial_reruns`` — their
    one in-parent re-execution.
    """

    worker_deaths: int = 0
    respawns: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    serial_reruns: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


#: Poll interval of the supervised map's wait loop (seconds).  Waits
#: return the moment a result is ready; the interval only paces the
#: worker-death / timeout checks in between.
_POLL_INTERVAL = 0.02

#: Cap on the exponential retry backoff (seconds).
_BACKOFF_CAP = 1.0


def _supervised_map(session: "EngineSession", items: list) -> list:
    """A pool map that survives worker death, task failure and hangs.

    ``pool.map`` has none of that: a worker that dies mid-task leaves
    its ``AsyncResult`` unfulfilled forever (the pool replaces the
    *process* but not the lost task), a raising task poisons the whole
    map, and a hung task hangs the sweep.  This loop submits each item
    with ``apply_async`` and waits on the results in item order,
    polling for worker death (pool pid-set changes or non-``None``
    exit codes) and for the engine's per-task ``timeout``:

    * a worker-raised exception retries the task (capped exponential
      backoff, ``engine.max_retries`` attempts) — ``KeyboardInterrupt``
      and ``SystemExit`` always propagate;
    * a worker death tears the pool down, respawns it and resubmits
      every unfinished task; tasks still failing at the retry cap are
      quarantined ("repeatedly worker-killing");
    * a timed-out task is quarantined immediately and the pool
      respawned (the hung worker must die).

    Quarantined tasks are re-run serially in the parent, once, after
    the pool rounds finish — their results land in the ordinary result
    list, so the sweep completes with bit-identical observations
    instead of hanging (a task that *always* kills its host or hangs
    will still fail loudly here, in the parent, which is the right
    failure mode).  Every path out — including ``KeyboardInterrupt``
    in the parent — routes through the session's ``terminate()``, so no
    children are leaked.
    """
    engine = session._engine
    n = len(items)
    results: list = [None] * n
    done = [False] * n
    failures = [0] * n
    quarantine: set[int] = set()
    health = engine.health
    round_no = 0
    try:
        while True:
            pending = [i for i in range(n) if not done[i] and i not in quarantine]
            if not pending:
                break
            if round_no:
                time.sleep(
                    min(
                        engine.retry_backoff * (2 ** (round_no - 1)),
                        _BACKOFF_CAP,
                    )
                )
            round_no += 1
            pool = session._live_pool()
            pids = {p.pid for p in pool._pool}
            asyncs = {i: pool.apply_async(_call_worker, (items[i],)) for i in pending}
            broken = False
            death = False
            for i in pending:
                result = asyncs[i]
                started = time.monotonic()
                timed_out = False
                while not result.ready():
                    result.wait(_POLL_INTERVAL)
                    if {p.pid for p in pool._pool} != pids or any(
                        p.exitcode is not None for p in pool._pool
                    ):
                        broken = death = True
                        break
                    if (
                        engine.timeout is not None
                        and time.monotonic() - started > engine.timeout
                    ):
                        timed_out = True
                        break
                if broken:
                    break
                if timed_out:
                    health.timeouts += 1
                    health.quarantined += 1
                    quarantine.add(i)
                    broken = True  # the hung worker must be killed
                    break
                try:
                    results[i] = result.get()
                    done[i] = True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException:
                    failures[i] += 1
                    if failures[i] > engine.max_retries:
                        raise
                    health.retries += 1
            if not broken:
                continue
            # Harvest what already finished, then heal the pool.
            for j, result in asyncs.items():
                if done[j] or j in quarantine or not result.ready():
                    continue
                try:
                    results[j] = result.get()
                    done[j] = True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException:
                    failures[j] += 1
                    if failures[j] > engine.max_retries:
                        raise
                    health.retries += 1
            if death:
                health.worker_deaths += 1
                # The in-flight tasks are lost and unattributable; they
                # all retry, and a task still failing at the cap is
                # quarantined rather than allowed to keep killing pools.
                for j in pending:
                    if done[j] or j in quarantine:
                        continue
                    failures[j] += 1
                    if failures[j] > engine.max_retries:
                        health.quarantined += 1
                        quarantine.add(j)
                    else:
                        health.retries += 1
            session.terminate()
            health.respawns += 1
    except BaseException:
        session.terminate()
        raise
    # The parent has no _WORKER_PAYLOAD; quarantined tasks call directly.
    for i in sorted(quarantine):
        health.serial_reruns += 1
        results[i] = session._fn(session._context, items[i])
    return results


class SweepEngine:
    """A deterministic ordered map over sweep tasks, serial or forked.

    ``lifetime`` is one of :data:`LIFETIMES` (default: ``fork`` exactly
    when ``workers > 1`` and the platform has the fork start method,
    else ``serial``).  The lifetime is resolved once at construction —
    a quietly degraded engine *is* serial from then on, and
    ``engine.parallel`` reports which it is.
    An *explicitly* requested ``fork`` lifetime that cannot actually
    parallelize (``workers == 1``, or no fork) is a misconfiguration
    and raises ``ValueError`` — honoring it silently used to hide wrong
    worker counts and fork-less platforms.

    :meth:`map` applies a module-level function ``fn(context, item)``
    to every item and returns the results in item order regardless of
    completion order — the determinism contract every sweep in the
    library relies on.  :meth:`session` opens a reusable mapping
    session for chunked searches.  Worker pools belong to sessions, so
    the engine itself holds no processes and has nothing to close.
    """

    def __init__(
        self,
        workers: int = 1,
        lifetime: str | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        timeout: float | None = None,
    ):
        workers = max(1, int(workers))
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        mp_context = _fork_context()
        if lifetime is None:
            lifetime = "fork" if workers > 1 and mp_context is not None else "serial"
        elif lifetime not in LIFETIMES:
            raise ValueError(
                f"unknown engine lifetime {lifetime!r}; expected one of {LIFETIMES}"
            )
        elif lifetime != "serial":
            if workers == 1:
                raise ValueError(
                    f"lifetime={lifetime!r} was requested explicitly but "
                    f"workers=1 cannot parallelize; pass lifetime=None to "
                    f"allow the serial fallback"
                )
            if mp_context is None:
                raise ValueError(
                    f"lifetime={lifetime!r} was requested explicitly but the "
                    f"fork start method is unavailable on this platform; "
                    f"pass lifetime=None to allow the serial fallback"
                )
        self.workers = workers
        self.lifetime = lifetime
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self._mp_context = mp_context
        #: Self-healing counters (worker deaths, respawns, retries,
        #: timeouts, quarantines), accumulated across maps and shared
        #: by this engine's sessions.
        self.health = EngineHealth()

    @property
    def parallel(self) -> bool:
        """True when maps actually fan out to forked workers."""
        return self.lifetime != "serial"

    def session(self, fn, context) -> "EngineSession":
        """A reusable mapping session (one worker pool for its lifetime).

        Chunked searches (the coordination-freeness witness probe) call
        :meth:`EngineSession.map` repeatedly; a ``fork`` session opens
        its pool once, amortizing the fork setup across every chunk
        instead of paying it per chunk.
        """
        return EngineSession(self, fn, context)

    def map(self, fn, context, items) -> list:
        """Apply ``fn(context, item)`` to every item, in item order.

        Serial engines, and maps of at most one item, call *fn* inline
        (a pool for one task costs a fork and buys nothing).
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(context, item) for item in items]
        with self.session(fn, context) as session:
            return session.map(items)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"lifetime={self.lifetime!r})"
        )


class EngineSession:
    """A live mapping session of a :class:`SweepEngine`.

    Serial sessions, and maps of at most one item, apply the function
    inline; ``fork`` sessions hold one fork pool, created lazily on the
    first map of two or more items (the payload crosses by fork
    inheritance) and reused until :meth:`close` (or the ``with`` block)
    tears it down.  Results always come back in item order.
    """

    def __init__(self, engine: SweepEngine, fn, context):
        self._engine = engine
        self._fn = fn
        self._context = context
        self._pool = None

    def _live_pool(self):
        if self._pool is None:
            self._pool = self._engine._mp_context.Pool(
                self._engine.workers,
                initializer=_init_worker,
                initargs=((self._fn, self._context),),
            )
        return self._pool

    def map(self, items) -> list:
        items = list(items)
        if not self._engine.parallel or len(items) <= 1:
            return [self._fn(self._context, item) for item in items]
        return _supervised_map(self, items)

    def close(self) -> None:
        """Clean shutdown: let workers finish queued work, then reap.

        ``terminate()`` on the happy path used to kill workers
        mid-cleanup, leaking semaphore-tracker warnings; the hard kill
        is reserved for :meth:`terminate` (the exceptional ``__exit__``
        path).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard shutdown for error paths: kill workers immediately."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()


# ---------------------------------------------------------------------------
# The shared cache-splice bookkeeping
# ---------------------------------------------------------------------------


class GridResults(list):
    """A grid's results in task order, with the grid's own cache counts.

    ``cache_hits``, ``cache_misses`` and ``cache_dedup`` classify this
    grid's cells alone (all 0 without a cache).  A before/after delta of
    a shared :class:`~repro.net.runcache.RunCache`'s counters would also
    count the cells of every sweep running concurrently on that cache.
    """

    cache_hits = cache_misses = cache_dedup = 0


class CacheSplice:
    """The one shared cached/pending bookkeeping of every cached sweep.

    Given a task grid, a :class:`~repro.net.runcache.RunCache` (or
    None) and a key function, the splice partitions the grid into

    * **hits** — tasks whose value the cache already holds (resolved
      immediately, in grid order);
    * **duplicates** — tasks whose key equals an earlier task's (equal
      cells inside one grid — e.g. full replication == all-at-one on a
      single-node network — are the same pure function: run once or
      fetch once, reuse the result);
    * **pending** — tasks that must actually execute.

    Duplicates never consult the store, so they count neither a hit
    nor a miss — the cache's ``cache_dedup`` counter tallies them
    separately.  Counting them as misses (the old behaviour) inflated
    the miss rate with cells that never executed, which matters once
    the counters feed a metrics endpoint: for every grid,
    ``hits + misses + dedup == cells`` and ``misses == cells actually
    executed``.  The splice counts its own grid the same way, on the
    :class:`GridResults` that :meth:`fill` returns.

    Fan :attr:`pending_tasks` out however you like (engine map, chunked
    session, inline loop) and hand the fresh results to :meth:`fill`,
    which records them into the cache, resolves the duplicates and
    returns the full result list in task order.  With ``cache=None``
    every task is pending and the splice is a transparent pass-through.

    *hit* adapts a raw cached value to the caller's result shape (e.g.
    wrapping a cached ``RunResult`` into a ``RunObservation`` for the
    task's own partition and seed); *store* (on :meth:`fill`) extracts
    the cacheable raw value back out of a fresh result.  Both default
    to the identity.
    """

    def __init__(self, tasks, cache, key_fn, hit=None):
        self.tasks = list(tasks)
        self.cache = cache
        self._hit = hit if hit is not None else (lambda task, value: value)
        self.results = GridResults([None] * len(self.tasks))
        self.keys: list | None = None
        self.pending: list[int] = list(range(len(self.tasks)))
        self.duplicates: list[tuple[int, int]] = []
        if cache is not None:
            self.keys = [key_fn(task) for task in self.tasks]
            self.pending = []
            hit_for_key: dict = {}
            first_for_key: dict = {}
            for i, key in enumerate(self.keys):
                # Dedup before the store: a repeated key is resolved
                # from its first occurrence (hit value or pending
                # primary) without touching the cache, so duplicate
                # cells — which never execute — inflate neither the
                # miss nor the hit count.
                if key in hit_for_key:
                    cache.bump("cache_dedup")
                    self.results.cache_dedup += 1
                    self.results[i] = self._hit(self.tasks[i], hit_for_key[key])
                elif key in first_for_key:
                    cache.bump("cache_dedup")
                    self.results.cache_dedup += 1
                    self.duplicates.append((i, first_for_key[key]))
                else:
                    value = cache.get(key)
                    if value is not None:
                        hit_for_key[key] = value
                        self.results.cache_hits += 1
                        self.results[i] = self._hit(self.tasks[i], value)
                    else:
                        first_for_key[key] = i
                        self.pending.append(i)
            self.results.cache_misses = len(self.pending)

    @property
    def pending_tasks(self) -> list:
        """The tasks that must actually execute, in grid order."""
        return [self.tasks[i] for i in self.pending]

    def fill(self, fresh, store=None) -> GridResults:
        """Splice *fresh* results (one per pending task, in pending
        order) back into the grid; returns the full result list."""
        store = store if store is not None else (lambda row: row)
        raw: dict[int, object] = {}
        for i, row in zip(self.pending, fresh):
            self.results[i] = row
            if self.cache is not None:
                value = store(row)
                self.cache.record(self.keys[i], value)
                raw[i] = value
        for i, primary in self.duplicates:
            self.results[i] = self._hit(self.tasks[i], raw[primary])
        return self.results


# ---------------------------------------------------------------------------
# The fair-run sweep
# ---------------------------------------------------------------------------


def _run_task(context, task):
    """One unit of work: a full seeded fair run."""
    network, transducer, run_kwargs = context
    partition, seed = task
    result = run_fair(network, transducer, partition, seed=seed, **run_kwargs)
    return RunObservation(network, partition, seed, result)


def sweep_runs(
    network: Network,
    transducer,
    partitions: list[HorizontalPartition],
    seeds: tuple[int, ...],
    max_steps: int = 20_000,
    batch_delivery: bool = False,
    run_cache=None,
    engine: "SweepEngine | None" = None,
    faults=None,
) -> list[RunObservation]:
    """Run the partitions × seeds grid of fair runs, possibly in parallel.

    Returns the observations in grid order (partitions outer, seeds
    inner) — identical to the serial loop for every worker count and
    lifetime: same seeds, same runs, just executed concurrently.  The
    list is a :class:`GridResults`, carrying the grid's own cache
    counts.  This is the one place a ``"fair-random"`` cache key is
    built: a single cell is a one-cell grid.

    *engine* (a :class:`SweepEngine`; ``None`` is serial) executes
    the grid.  *run_cache* (a :class:`~repro.net.runcache.RunCache`)
    short-circuits grid cells whose
    :class:`~repro.net.run.RunResult` is already known — each cell is
    a pure function of ``(network, transducer, partition, seed,
    kwargs)``, so a cached result is bit-identical to a fresh one, and
    only the uncached cells are executed (the :class:`CacheSplice`
    bookkeeping).

    *faults* (a :class:`~repro.net.faults.FaultPlan`) injects the same
    seeded fault plan into every run of the grid.  The plan becomes
    part of the frozen run kwargs — and hence of every cache key — so
    faulty and clean sweeps never share cells, while a clean sweep's
    keys do not mention faults at all.
    """
    from .runcache import resolve_run_cache, run_key, transducer_fingerprint

    cache = resolve_run_cache(run_cache)
    run_kwargs = {"max_steps": max_steps, "batch_delivery": batch_delivery}
    if faults is not None:
        # Only present when set: clean-run cache keys do not mention
        # faults, and a faulty cell can never alias a clean one (the
        # plan rides in the frozen run_kwargs, through run_key and
        # into run_fair alike).
        run_kwargs["faults"] = faults
    tasks = [(partition, seed) for partition in partitions for seed in seeds]

    if cache is not None:
        fingerprint = transducer_fingerprint(transducer)

        def key_fn(task):
            return run_key(
                "fair-random", network, fingerprint, task[0], task[1], run_kwargs
            )
    else:
        key_fn = None

    splice = CacheSplice(
        tasks,
        cache,
        key_fn,
        hit=lambda task, result: RunObservation(
            network, task[0], task[1], result
        ),
    )
    pending_tasks = splice.pending_tasks

    eng = engine if engine is not None else SweepEngine()
    fresh = eng.map(_run_task, (network, transducer, run_kwargs), pending_tasks)
    # The parent is the cache's only writer: fill records every pending
    # result in grid order, exactly as the serial sweep does.
    return splice.fill(fresh, store=lambda obs: obs.result)
