"""E25 — the run-level result cache (engineering, not a paper claim).

The semantic harnesses re-execute identical run cells constantly: the
CALM diagnostic's coordination, NTI and monotonicity probes, and any
consistency re-check, all replay ``(network, transducer, partition,
seed, kwargs)`` tuples a previous harness already executed.  PR 4's
:class:`~repro.net.runcache.RunCache` memoizes whole
:class:`~repro.net.run.RunResult`s under those keys (guarded by a
canonical transducer fingerprint) and persists them to disk so CI
jobs start warm.

The measurement, a *cross-harness* pass on the E17 chain workload (the
transitive-closure flooder): one consistency sweep plus the full CALM
diagnostic (coordination witness search, NTI probes, 30 monotonicity
trials — every corner of the harness stack):

1. **cold** — a fresh transducer, no cache;
2. **recording** — a fresh transducer writing into a RunCache
   (the pass any earlier CI job or session would have run);
3. **save / load** — the cache round-trips through the persistence
   format, exactly as the CI artifact does;
4. **warm** — a *third*, freshly built transducer served from the
   loaded cache: fingerprint-keyed entries must hit across transducer
   objects, which is what makes cross-process persistence sound.

The bar: the warm pass must be ≥ 2× faster than the cold pass, with
equal evidence — the consistency observations must be equal
observation for observation (a cache hit reproduces the exact
RunResult) and the CALM verdicts must match.  When
``$REPRO_RUNCACHE`` names a persisted cache (the CI warm-start
artifact), it is loaded and merged before the warm pass and the
updated cache is saved back to it afterwards; ``$REPRO_RUNCACHE_MAX``
makes that load take the *bounded* path (``RunCache.load(path,
max_entries=N)``), which CI pins to exercise the LRU restore, and
``$REPRO_RUNCACHE_BYTES`` does the same for the byte budget
(``max_bytes=N``) — CI pins a generous budget so the warm pass stays
all-hits while still exercising the weighted restore.

Two **bounded-cache columns** ride along (``max_entries`` ∈ {64, 8}):
the same warm pass through an LRU-bounded cache built from the loaded
entries.  Eviction churn turns hits back into recomputation, so the
bounded passes trade speed for memory — the bench asserts their
*evidence* is still identical to the cold pass (eviction can cost
time, never correctness) and reports the hit/miss/eviction counts; the
speedup bar applies to the unbounded warm pass only.

A **byte-budget column** repeats that through the byte-weighted LRU
(``max_bytes`` = half the loaded working set, so churn is guaranteed),
and a **disk-tier column** squeezes memory to an eighth of the working
set with a sqlite tier below (``$REPRO_RUNCACHE_DISK``, default
``CACHE_runcache.sqlite``): construction demotes the overflow to disk
and the warm pass promotes it back, so *nothing recomputes* — the
bench asserts zero misses with demotions and promotions both > 0,
which is the hierarchy's whole pitch (eviction demotes, never
discards).
"""

import os
import pathlib
import time

from conftest import once, write_snapshot

from repro.analysis import calm_verdict
from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import RunCache, check_consistency, line

S2 = schema(S=2)
CHAIN_FACTS = 16
N_NODES = 3
PARTITIONS = 3
SEEDS = (0, 1)
REQUIRED_SPEEDUP = 2.0
SNAPSHOT = pathlib.Path(__file__).with_name("BENCH_runcache.json")
CACHE_PATH = pathlib.Path(
    os.environ.get(
        "REPRO_RUNCACHE",
        pathlib.Path(__file__).with_name("CACHE_runcache.pkl"),
    )
)
# The bounded load path: when set (CI pins 1024), the warm-start
# bundle is restored through RunCache.load(path, max_entries=N).
CACHE_MAX = (
    int(os.environ["REPRO_RUNCACHE_MAX"])
    if os.environ.get("REPRO_RUNCACHE_MAX")
    else None
)
# The byte-budget load path: when set (CI pins a generous 16 MiB), the
# bundle is restored through RunCache.load(path, max_bytes=N).
CACHE_BYTES = (
    int(os.environ["REPRO_RUNCACHE_BYTES"])
    if os.environ.get("REPRO_RUNCACHE_BYTES")
    else None
)
DISK_PATH = pathlib.Path(
    os.environ.get(
        "REPRO_RUNCACHE_DISK",
        pathlib.Path(__file__).with_name("CACHE_runcache.sqlite"),
    )
)
BOUNDED_COLUMNS = (64, 8)


def _workload(transducer, run_cache=None):
    """One cross-harness pass: consistency sweep + full CALM diagnostic."""
    chain = instance(S2, S=[(i, i + 1) for i in range(CHAIN_FACTS)])
    consistency = check_consistency(
        line(N_NODES), transducer, chain,
        partition_count=PARTITIONS, seeds=SEEDS, run_cache=run_cache,
    )
    verdict = calm_verdict(transducer, chain, run_cache=run_cache)
    return consistency, verdict


def test_e25_run_cache_warm_pass(benchmark, report):
    rows = []
    snapshot = []
    ok = True
    speedup = 0.0

    def run_all():
        nonlocal ok, speedup

        t0 = time.perf_counter()
        cold_consistency, cold_verdict = _workload(
            transitive_closure_transducer()
        )
        t_cold = time.perf_counter() - t0
        ok &= cold_consistency.consistent and cold_verdict.consistent_with_calm()
        rows.append(["cold", f"{t_cold:.2f}s", "-", "-", "-"])
        snapshot.append({"pass": "cold", "seconds": round(t_cold, 3)})

        cache = RunCache()
        recorder = transitive_closure_transducer()
        t0 = time.perf_counter()
        rec_consistency, rec_verdict = _workload(recorder, run_cache=cache)
        t_rec = time.perf_counter() - t0
        ok &= rec_consistency.observations == cold_consistency.observations
        ok &= rec_verdict == cold_verdict
        rows.append([
            "recording", f"{t_rec:.2f}s", "-",
            cache.cache_misses, len(cache),
        ])
        snapshot.append({
            "pass": "recording", "seconds": round(t_rec, 3),
            "cache_entries": len(cache),
        })

        # Round-trip through the persistence format, exactly like the
        # CI artifact; a pre-existing warm-start file is folded in
        # (fresh entries win on overlap, and an unreadable or
        # different-runtime bundle is simply ignored — cold start, not
        # a failed bench).
        if CACHE_PATH.exists():
            try:
                cache.merge(RunCache.load(CACHE_PATH))
            except Exception:
                pass
        cache.save(CACHE_PATH)
        load_kwargs = {}
        if CACHE_MAX is not None:
            load_kwargs["max_entries"] = CACHE_MAX
        if CACHE_BYTES is not None:
            load_kwargs["max_bytes"] = CACHE_BYTES
        loaded = RunCache.load(CACHE_PATH, **load_kwargs)
        if CACHE_MAX is not None:
            ok &= loaded.max_entries == CACHE_MAX
        if CACHE_BYTES is not None:
            ok &= loaded.max_bytes == CACHE_BYTES

        t0 = time.perf_counter()
        warm_consistency, warm_verdict = _workload(
            transitive_closure_transducer(), run_cache=loaded
        )
        t_warm = time.perf_counter() - t0
        speedup = t_cold / max(t_warm, 1e-9)

        # A cache hit reproduces the exact RunResult: equal evidence,
        # observation for observation, across transducer *objects*.
        identical = (
            warm_consistency.observations == cold_consistency.observations
        )
        ok &= identical
        ok &= warm_verdict == cold_verdict
        # The warm consistency sweep must run without executing a
        # single cell: every cell is a cache hit or an in-grid
        # duplicate of one (dedup cells never consult the store).
        cells = PARTITIONS * len(SEEDS)
        ok &= warm_consistency.cache_hits + warm_consistency.cache_dedup == cells
        ok &= warm_consistency.cache_misses == 0
        ok &= speedup >= REQUIRED_SPEEDUP
        rows.append([
            "warm (loaded)", f"{t_warm:.2f}s", f"{speedup:.1f}x",
            loaded.cache_misses, "yes" if identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-loaded", "seconds": round(t_warm, 3),
            "speedup_vs_cold": round(speedup, 2),
            "cache_hits": loaded.cache_hits,
            "cache_misses": loaded.cache_misses,
            "observations_identical": identical,
        })

        # Bounded-cache columns: the same warm pass through LRU-bounded
        # caches.  Evicted cells recompute; evidence must not change.
        for bound in BOUNDED_COLUMNS:
            bounded = RunCache(loaded.entries, max_entries=bound)
            t0 = time.perf_counter()
            b_consistency, b_verdict = _workload(
                transitive_closure_transducer(), run_cache=bounded
            )
            t_bounded = time.perf_counter() - t0
            b_identical = (
                b_consistency.observations == cold_consistency.observations
            )
            ok &= b_identical
            ok &= b_verdict == cold_verdict
            ok &= len(bounded) <= bound
            rows.append([
                f"warm (max={bound})", f"{t_bounded:.2f}s",
                f"{t_cold / max(t_bounded, 1e-9):.1f}x",
                bounded.cache_misses, "yes" if b_identical else "NO",
            ])
            snapshot.append({
                "pass": f"warm-bounded-{bound}",
                "seconds": round(t_bounded, 3),
                "speedup_vs_cold": round(t_cold / max(t_bounded, 1e-9), 2),
                "max_entries": bound,
                "cache_hits": bounded.cache_hits,
                "cache_misses": bounded.cache_misses,
                "evictions": bounded.evictions,
                "observations_identical": b_identical,
            })

        # Byte-budget column: the same warm pass through the
        # byte-weighted LRU at half the loaded working set — eviction
        # churn is guaranteed, the evidence must not change.
        byte_budget = max(loaded.bytes // 2, 1)
        weighted = RunCache(loaded.entries, max_bytes=byte_budget)
        t0 = time.perf_counter()
        w_consistency, w_verdict = _workload(
            transitive_closure_transducer(), run_cache=weighted
        )
        t_weighted = time.perf_counter() - t0
        w_identical = (
            w_consistency.observations == cold_consistency.observations
        )
        ok &= w_identical
        ok &= w_verdict == cold_verdict
        ok &= weighted.bytes <= byte_budget
        ok &= weighted.evictions > 0
        rows.append([
            f"warm (bytes={byte_budget})", f"{t_weighted:.2f}s",
            f"{t_cold / max(t_weighted, 1e-9):.1f}x",
            weighted.cache_misses, "yes" if w_identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-bytes",
            "seconds": round(t_weighted, 3),
            "speedup_vs_cold": round(t_cold / max(t_weighted, 1e-9), 2),
            "max_bytes": byte_budget,
            "bytes": weighted.bytes,
            "cache_hits": weighted.cache_hits,
            "cache_misses": weighted.cache_misses,
            "evictions": weighted.evictions,
            "observations_identical": w_identical,
        })

        # Disk-tier column: memory squeezed to an eighth of the
        # working set, sqlite tier below.  Construction demotes the
        # overflow and the warm pass promotes it back — nothing
        # recomputes, so zero misses despite the tight budget.
        tight_budget = max(loaded.bytes // 8, 1)
        tiered = RunCache(
            loaded.entries, max_bytes=tight_budget, disk_path=DISK_PATH,
        )
        t0 = time.perf_counter()
        d_consistency, d_verdict = _workload(
            transitive_closure_transducer(), run_cache=tiered
        )
        t_tiered = time.perf_counter() - t0
        d_identical = (
            d_consistency.observations == cold_consistency.observations
        )
        tiered_stats = tiered.stats()
        ok &= d_identical
        ok &= d_verdict == cold_verdict
        ok &= tiered.bytes <= tight_budget
        ok &= tiered.cache_misses == 0  # demote, never discard
        ok &= tiered_stats["demotions"] > 0
        ok &= tiered_stats["promotions"] > 0
        tiered.close()
        rows.append([
            f"warm (disk, bytes={tight_budget})", f"{t_tiered:.2f}s",
            f"{t_cold / max(t_tiered, 1e-9):.1f}x",
            tiered_stats["cache_misses"], "yes" if d_identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-disk",
            "seconds": round(t_tiered, 3),
            "speedup_vs_cold": round(t_cold / max(t_tiered, 1e-9), 2),
            "max_bytes": tight_budget,
            "cache_hits": tiered_stats["cache_hits"],
            "cache_misses": tiered_stats["cache_misses"],
            "demotions": tiered_stats["demotions"],
            "promotions": tiered_stats["promotions"],
            "disk_entries": tiered_stats["disk_entries"],
            "observations_identical": d_identical,
        })

        loaded.merge(cache)
        loaded.save(CACHE_PATH)
        write_snapshot(SNAPSHOT, {
            "experiment": "E25",
            "claim": "warm run-cache cross-harness pass (consistency + "
                     "CALM) >= 2x over cold on the E17 chain workload "
                     f"(TC flooding, chain n={CHAIN_FACTS}, line({N_NODES}))",
            "required_speedup": REQUIRED_SPEEDUP,
            "measured_speedup": round(speedup, 2),
            "results": snapshot,
        })

    once(benchmark, run_all)
    report(
        "E25",
        "Run-level result cache: warm cross-harness pass vs cold "
        f"(consistency + CALM on chain n={CHAIN_FACTS}, line({N_NODES}))",
        ["pass", "time", "speedup", "cache misses", "identical"],
        rows,
        ok,
        f"(warm speedup {speedup:.1f}x, bar {REQUIRED_SPEEDUP}x; cached "
        "observations == fresh observations, CALM verdicts equal)",
    )
