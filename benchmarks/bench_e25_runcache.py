"""E25 — the run-level result cache (engineering, not a paper claim).

The semantic harnesses re-execute identical run cells constantly: the
CALM diagnostic's coordination, NTI and monotonicity probes, and any
consistency re-check, all replay ``(network, transducer, partition,
seed, kwargs)`` tuples a previous harness already executed.
:class:`~repro.net.runcache.RunCache` memoizes whole
:class:`~repro.net.run.RunResult`s under those keys (guarded by a
canonical transducer fingerprint) and keeps them in a sqlite disk
tier, so a later process — a restarted service, the next CI job —
starts warm.

The measurement, a *cross-harness* pass on the E17 chain workload (the
transitive-closure flooder): one consistency sweep plus the full CALM
diagnostic (coordination witness search, NTI probes, 30 monotonicity
trials — every corner of the harness stack):

1. **cold** — a fresh transducer, no cache;
2. **recording** — a fresh transducer writing into a RunCache over
   the disk tier (``$REPRO_RUNCACHE_DISK``, default
   ``CACHE_runcache.sqlite``).  When an earlier run left that file
   (CI restores it from its cache), this pass is already served from
   disk: the ``disk hits`` column counts its promotions;
3. **close / reopen** — ``close()`` spills memory down to the file,
   and a new RunCache opened over it starts with an empty memory
   tier, exactly as a new process would;
4. **warm** — a *third*, freshly built transducer served from the
   reopened cache: every cell is promoted from disk, and
   fingerprint-keyed entries must hit across transducer objects,
   which is what makes cross-process persistence sound.

The bar: the warm pass must be ≥ 2× faster than the cold pass, with
equal evidence — the consistency observations must be equal
observation for observation (a cache hit reproduces the exact
RunResult) and the CALM verdicts must match.

Two **bounded-cache columns** ride along (``max_entries`` ∈ {64, 8}):
the same warm pass through an LRU-bounded cache built by recording the
reopened cache's entries.  Eviction churn turns hits back into
recomputation, so the bounded passes trade speed for memory — the
bench asserts their *evidence* is still identical to the cold pass
(eviction can cost time, never correctness) and reports the
hit/miss/eviction counts; the speedup bar applies to the unbounded
warm pass only.

A **byte-budget column** repeats that through the byte-weighted LRU
(``max_bytes`` = half the working set, so churn is guaranteed), and a
**disk-tier column** squeezes memory to an eighth of the working set
with a sqlite tier of its own below (a temporary file): recording
demotes the overflow and the warm pass promotes it back, so *nothing
recomputes* — the bench asserts zero misses with demotions and
promotions both > 0, which is the hierarchy's whole pitch (eviction
demotes, never discards).
"""

import os
import pathlib
import tempfile
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


def _filled(cache, entries):
    """*cache* with *entries* recorded in order, oldest first."""
    for key, value in entries.items():
        cache.record(key, value)
    return cache


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
        rows.append(["cold", f"{t_cold:.2f}s", "-", "-", "-", "-"])
        snapshot.append({"pass": "cold", "seconds": round(t_cold, 3)})

        # Record into the disk tier.  A file left by an earlier run
        # (and written by this same code) serves this pass already.
        cache = RunCache(disk_path=DISK_PATH)
        disk_rows = cache.stats()["disk_entries"]
        recorder = transitive_closure_transducer()
        t0 = time.perf_counter()
        rec_consistency, rec_verdict = _workload(recorder, run_cache=cache)
        t_rec = time.perf_counter() - t0
        rec_identical = (
            rec_consistency.observations == cold_consistency.observations
        )
        ok &= rec_identical
        ok &= rec_verdict == cold_verdict
        rows.append([
            "recording", f"{t_rec:.2f}s", "-",
            cache.cache_misses, cache.promotions,
            "yes" if rec_identical else "NO",
        ])
        snapshot.append({
            "pass": "recording", "seconds": round(t_rec, 3),
            "cache_entries": len(cache),
            "cache_misses": cache.cache_misses,
            "disk_entries_at_open": disk_rows,
            "disk_hits": cache.promotions,
        })

        # Spill memory to the file, then reopen it: the warm pass
        # starts with an empty memory tier, as a new process would.
        cache.close()
        reopened = RunCache(disk_path=DISK_PATH)
        ok &= len(reopened) == 0
        t0 = time.perf_counter()
        warm_consistency, warm_verdict = _workload(
            transitive_closure_transducer(), run_cache=reopened
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
        ok &= reopened.cache_misses == 0
        ok &= reopened.promotions > 0
        ok &= speedup >= REQUIRED_SPEEDUP
        rows.append([
            "warm (reopened)", f"{t_warm:.2f}s", f"{speedup:.1f}x",
            reopened.cache_misses, reopened.promotions,
            "yes" if identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-reopened", "seconds": round(t_warm, 3),
            "speedup_vs_cold": round(speedup, 2),
            "cache_hits": reopened.cache_hits,
            "cache_misses": reopened.cache_misses,
            "promotions": reopened.promotions,
            "observations_identical": identical,
        })
        entries = dict(reopened.entries)
        working_set = reopened.bytes
        reopened.close()

        # Bounded-cache columns: the same warm pass through LRU-bounded
        # caches.  Evicted cells recompute; evidence must not change.
        for bound in BOUNDED_COLUMNS:
            bounded = _filled(RunCache(max_entries=bound), entries)
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
                bounded.cache_misses, "-", "yes" if b_identical else "NO",
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
        # byte-weighted LRU at half the working set — eviction churn is
        # guaranteed, the evidence must not change.
        byte_budget = max(working_set // 2, 1)
        weighted = _filled(RunCache(max_bytes=byte_budget), entries)
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
            weighted.cache_misses, "-", "yes" if w_identical else "NO",
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
        # working set, a sqlite tier of its own below.  Recording
        # demotes the overflow and the warm pass promotes it back —
        # nothing recomputes, so zero misses despite the tight budget.
        tight_budget = max(working_set // 8, 1)
        with tempfile.TemporaryDirectory() as tmp:
            tiered = _filled(
                RunCache(
                    max_bytes=tight_budget,
                    disk_path=pathlib.Path(tmp) / "tier.sqlite",
                ),
                entries,
            )
            t0 = time.perf_counter()
            d_consistency, d_verdict = _workload(
                transitive_closure_transducer(), run_cache=tiered
            )
            t_tiered = time.perf_counter() - t0
            tiered_stats = tiered.stats()
            tiered.close()
        d_identical = (
            d_consistency.observations == cold_consistency.observations
        )
        ok &= d_identical
        ok &= d_verdict == cold_verdict
        ok &= tiered_stats["bytes"] <= tight_budget
        ok &= tiered_stats["cache_misses"] == 0  # demote, never discard
        ok &= tiered_stats["demotions"] > 0
        ok &= tiered_stats["promotions"] > 0
        rows.append([
            f"warm (disk, bytes={tight_budget})", f"{t_tiered:.2f}s",
            f"{t_cold / max(t_tiered, 1e-9):.1f}x",
            tiered_stats["cache_misses"], tiered_stats["promotions"],
            "yes" if d_identical else "NO",
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
        ["pass", "time", "speedup", "cache misses", "disk hits", "identical"],
        rows,
        ok,
        f"(warm speedup {speedup:.1f}x, bar {REQUIRED_SPEEDUP}x; cached "
        "observations == fresh observations, CALM verdicts equal)",
    )
