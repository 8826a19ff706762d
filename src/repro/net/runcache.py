"""Run-level result caching with an optional LRU bound.

The semantic harnesses (consistency, NTI, coordination-freeness, CALM)
quantify over *every* fair run, so they repeatedly execute the same
``(network, transducer, partition, seed, kwargs)`` cells: the NTI probe
re-runs the consistency grid per topology, the CALM diagnostic re-runs
the NTI grid *and* evaluates the computed query on dozens of instances,
and a CI job re-runs yesterday's whole suite.  A seeded
:class:`~repro.net.run.RunResult` is a pure function of that tuple —
the same independence observation that made the PR 3 sweeps parallel
also makes whole runs memoizable.

:class:`RunCache` is a store of finished run results keyed on
``(kind, network, transducer-fingerprint, partition-digest, seed,
run-kwargs)``.  :func:`repro.net.executor.sweep_runs` (and through it
every checker) short-circuits cached cells with the stored result —
property-tested bit-identical to a fresh run.  For long-running
services the cache is a small storage *hierarchy*: ``max_entries=``
and ``max_bytes=`` turn the in-memory store into an LRU keyed by last
hit (the transition cache's pattern — hits promote, inserts evict the
stalest entry), where
``max_bytes`` weighs each entry by its pickled size — the honest unit,
since a heartbeat-probe frozenset and a traced ``RunResult`` differ by
orders of magnitude; and ``disk_path=`` adds a sqlite tier *below*
the in-memory bound, so eviction demotes entries to disk instead of
discarding them and a memory miss promotes them back.  The sqlite
file is the cache's only persistence: :meth:`RunCache.close` spills
memory down to it, and a later ``RunCache(disk_path=…)`` over the
same file starts warm.  The parent sweep is the cache's only writer:
workers never see the cache, so a parallel sweep leaves the serial
sweep's entries, LRU order and counters.  An evict-then-recompute
cycle is property-tested bit-identical to an unbounded cache (results
are pure functions of their keys, so an eviction costs time, never
correctness).

Fingerprints are the soundness boundary: a cache entry recorded for
one transducer must never be served to a different one.
:func:`transducer_fingerprint` hashes a canonical description of the
schema and every query (rules, formulas, arities), so two structurally
identical transducers — e.g. ``transitive_closure_transducer()`` built
in two different processes — share entries, which is exactly what lets
a reopened disk tier start warm.  Query objects that cannot be
described canonically (closures, ad-hoc ``Query`` subclasses) fall
back to a session-local fingerprint: caching still works within the
process, and persisted entries are conservatively never matched by a
later session (a silent wrong hit is impossible, a cold start is
merely slow).  Partitions are keyed by :func:`partition_digest` —
canonical sorted-fact digests — so differently-ordered but equal
instances (the monotonicity probes regenerate theirs per diagnostic)
land on the same cell, and keys stay compact strings instead of
pinning whole partition object graphs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pathlib
import pickle
import sqlite3
import sys
import threading
import warnings

from ..lang.query import EmptyQuery, FOQuery, PythonQuery, Query
from ..lang.ucq import UCQNegQuery
from .faults import FaultPlan
from .network import Network
from .partition import HorizontalPartition

__all__ = [
    "RunCache",
    "instance_digest",
    "partition_digest",
    "resolve_run_cache",
    "run_key",
    "runtime_token",
    "transducer_fingerprint",
]

_RUNTIME_TOKEN = None
_RUNTIME_TOKEN_LOCK = threading.Lock()


def runtime_token() -> str:
    """A digest of the library's own source code.

    A ``RunResult`` is a pure function of its key *under one runtime*:
    change the scheduler's RNG draws, the delivery semantics, or the
    query evaluator, and the same key maps to a different result.
    The disk tier therefore stamps its file with this token and purges
    every row when it is opened under different code — a stale file
    after any source change is a cold start, never a wrong hit.  The
    token digests this module too, so a change to the cache's own
    storage format also purges old files.  In-memory caching is
    unaffected.

    First-call initialization is double-checked under a lock: two
    service handler threads racing here used to both walk the source
    tree and interleave the module-level write.  The token itself is
    deterministic, so the race was wasteful rather than wrong — but a
    long-running server hits it on every cold start, and the disk tier
    stamps files with the result mid-computation.
    """
    global _RUNTIME_TOKEN
    token = _RUNTIME_TOKEN
    if token is None:
        with _RUNTIME_TOKEN_LOCK:
            if _RUNTIME_TOKEN is None:
                import repro

                root = pathlib.Path(repro.__file__).parent
                digest = hashlib.sha256()
                for path in sorted(root.rglob("*.py")):
                    digest.update(str(path.relative_to(root)).encode())
                    digest.update(path.read_bytes())
                _RUNTIME_TOKEN = digest.hexdigest()
            token = _RUNTIME_TOKEN
    return token


# ---------------------------------------------------------------------------
# Transducer fingerprints
# ---------------------------------------------------------------------------


class _Unfingerprintable(Exception):
    """Raised when a query has no canonical cross-process description."""


def _code_digest(code) -> str:
    """A digest of a function's bytecode (nested code objects included),
    so editing the function's *body* changes its fingerprint even
    though its name stays put."""
    digest = hashlib.sha256()

    def feed(c) -> None:
        digest.update(c.co_code)
        digest.update(repr(c.co_names).encode())
        digest.update(repr(c.co_varnames).encode())
        for const in c.co_consts:
            if hasattr(const, "co_code"):
                feed(const)
            elif isinstance(const, frozenset):
                # Set-literal consts iterate in hash order, which is
                # PYTHONHASHSEED-randomized per process; sort for a
                # canonical rendering.
                digest.update(repr(sorted(const, key=repr)).encode())
            else:
                digest.update(repr(const).encode())

    feed(code)
    return digest.hexdigest()[:16]


def _default_token(value) -> str:
    """A canonical rendering of one default argument value.

    Scalars whose repr is canonical (:data:`_DIGESTABLE_TYPES`), plus
    tuples and frozensets of them, recursively; anything richer has no
    cross-process identity and raises :class:`_Unfingerprintable`
    (the caller falls back to a session-local ``mem:`` fingerprint —
    a wrong hit stays impossible, persistence is merely skipped).
    """
    if type(value) in _DIGESTABLE_TYPES:
        return f"{type(value).__name__}:{value!r}"
    if type(value) is tuple:
        return "(" + ",".join(_default_token(v) for v in value) + ")"
    if type(value) is frozenset:
        # Hash-order iteration is PYTHONHASHSEED-randomized; sort.
        return "{" + ",".join(sorted(_default_token(v) for v in value)) + "}"
    raise _Unfingerprintable(
        f"default value {value!r} of type {type(value).__name__} has no "
        f"canonical rendering"
    )


def _python_query_token(query: PythonQuery) -> str:
    """A token for a PythonQuery wrapping an importable module-level
    function (pickle's criterion for function identity), salted with
    the function's bytecode digest so a changed body never serves the
    old body's cached results; closures and lambdas have no stable
    cross-process identity and must not be persisted.

    Default argument values are part of the salt: ``f(x, limit=10)``
    and ``f(x, limit=20)`` share ``__code__`` bit for bit, so salting
    only the bytecode served the old default's cached results after an
    edit.  Defaults without a canonical rendering make the whole query
    unfingerprintable (``mem:`` fallback), never a silent stale hit.
    """
    func = query.func
    module = sys.modules.get(getattr(func, "__module__", None))
    qualname = getattr(func, "__qualname__", "")
    if module is None or getattr(module, qualname, None) is not func:
        raise _Unfingerprintable(f"non-module-level function {qualname!r}")
    head = (
        f"py:{func.__module__}.{qualname}/{query.arity}"
        f"#{_code_digest(func.__code__)}"
    )
    defaults = func.__defaults__ or ()
    kwdefaults = func.__kwdefaults__ or {}
    if not defaults and not kwdefaults:
        return head
    tokens = [_default_token(v) for v in defaults]
    tokens += [
        f"{name}={_default_token(v)}"
        for name, v in sorted(kwdefaults.items())
    ]
    salt = hashlib.sha256("\x1f".join(tokens).encode()).hexdigest()[:16]
    return f"{head}!{salt}"


def _query_token(query: Query) -> str:
    """A canonical, deterministic description of one transducer query.

    Deterministic across processes: built from rule/formula reprs
    (stable AST dataclasses) and sorted schema names — never from
    ``hash()`` (randomized per process) or object identity.
    """
    token = getattr(query, "cache_token", None)
    if token is not None:
        return str(token() if callable(token) else token)
    if isinstance(query, EmptyQuery):
        return f"empty/{query.arity}"
    if isinstance(query, FOQuery):
        answers = ",".join(v.name for v in query.answer_vars)
        return f"fo[{answers}]{{{query.formula!r}}}"
    if isinstance(query, UCQNegQuery):
        rules = " ; ".join(repr(rule) for rule in query.rules)
        return f"{type(query).__name__}[{rules}]"
    if isinstance(query, PythonQuery):
        return _python_query_token(query)
    # Program-backed queries (Datalog, nonrecursive, stratified) all
    # carry a .program with a .rules tuple of AST Rule objects.
    program = getattr(query, "program", None)
    rules = getattr(program, "rules", None)
    if rules is not None:
        body = " ; ".join(repr(rule) for rule in rules)
        output = getattr(query, "output", "")
        return f"{type(query).__name__}:{output}[{body}]"
    raise _Unfingerprintable(type(query).__name__)


_SESSION_TOKENS = itertools.count()


def transducer_fingerprint(transducer) -> str:
    """A stable identity token for *transducer*'s semantics.

    ``sha256:…`` fingerprints are canonical — equal for structurally
    identical transducers, across processes — and safe to persist.
    ``mem:…`` fingerprints (some query had no canonical description)
    are unique per transducer object and per process: same-session
    cache hits still work, persisted entries never match again.

    The token is computed once and cached on the transducer (it ships
    with the pickle, so forked/pooled workers agree with the parent).
    """
    token = getattr(transducer, "_runcache_fingerprint", None)
    if token is None:
        try:
            parts = [repr(transducer.schema)]
            for role, query in transducer.all_queries():
                parts.append(f"{role}={_query_token(query)}")
            digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
            token = f"sha256:{digest}"
        except _Unfingerprintable:
            token = f"mem:{os.getpid()}:{next(_SESSION_TOKENS)}"
        transducer._runcache_fingerprint = token
    return token


def program_fingerprint(program) -> str:
    """The canonical fingerprint of a Dedalus program (rule reprs are
    deterministic ASTs, so this is always persistable)."""
    parts = [repr(program.edb_schema)]
    parts.extend(repr(rule) for rule in program.rules)
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return f"sha256:{digest}"


# ---------------------------------------------------------------------------
# Canonical instance / partition digests
# ---------------------------------------------------------------------------


class _Undigestable(ValueError):
    """Raised when a value has no canonical, collision-free rendering."""


#: Exact types whose repr is canonical and injective (within the type,
#: and across these types once the type name is mixed in).  ``dom``
#: admits *any* hashable, and an arbitrary object's repr does not
#: determine its identity — two distinct values could render alike and
#: silently collide; those fall back to true-equality keys instead.
_DIGESTABLE_TYPES = (bool, int, float, str, bytes, type(None))


def _value_token(value) -> str:
    if type(value) not in _DIGESTABLE_TYPES:
        raise _Undigestable(
            f"dom value {value!r} of type {type(value).__name__} has no "
            f"canonical digest rendering"
        )
    return f"{type(value).__name__}:{value!r}"


def instance_digest(instance) -> str:
    """A canonical sorted-fact digest of one instance.

    Deterministic across processes and across construction orders:
    facts are rendered from typed value tokens, sorted, and mixed with
    the schema's canonical repr — so two equal instances, however
    their fact sets were built, always digest identically, and
    distinct instances never collide (typed tokens are injective,
    SHA-256 does the rest).  Values outside the canonically
    renderable types (:data:`_DIGESTABLE_TYPES`) raise
    ``ValueError`` — callers like :func:`run_key` fall back to
    true-equality keys, mirroring the conservative ``mem:``
    fingerprint fallback: a wrong hit is impossible, canonicalization
    is merely skipped.  The digest is cached on the immutable
    instance.
    """
    cached = getattr(instance, "_digest", None)
    if cached is not None:
        return cached
    tokens = sorted(
        f"{f.relation}({','.join(_value_token(v) for v in f.values)})"
        for f in instance.facts()
    )
    digest = hashlib.sha256()
    digest.update(repr(instance.schema).encode())
    for token in tokens:
        # Length-prefix every token: bare concatenation let the byte
        # stream of two facts re-parse as one differently-split fact
        # (relation names and str dom values admit arbitrary
        # characters), making distinct instances digest identically.
        encoded = token.encode()
        digest.update(f"{len(encoded)}:".encode())
        digest.update(encoded)
    value = digest.hexdigest()[:24]
    object.__setattr__(instance, "_digest", value)
    return value


def partition_digest(partition: HorizontalPartition) -> str:
    """A canonical digest of one horizontal partition.

    Built from the per-node fragment digests in sorted node order, so
    it identifies *which facts sit where* and nothing else — the
    partition's identity for run-cache purposes.  Using digests
    instead of the partition objects themselves keeps cache keys
    compact (no key pins a whole partition object graph) and makes the
    cross-harness key-reuse canonical: the CALM monotonicity probes
    regenerate their instances per diagnostic, and differently-ordered
    but equal instances land on the same cell.
    Raises ``ValueError`` when a node or dom value has no canonical
    rendering (see :func:`instance_digest`); cached on the partition.
    """
    cached = getattr(partition, "_digest", None)
    if cached is not None:
        return cached
    node_tokens = sorted(
        (_value_token(node), instance_digest(partition.fragment(node)))
        for node in partition.nodes
    )
    digest = hashlib.sha256()
    for token, fragment_digest in node_tokens:
        # Same length framing as instance_digest: a node token must
        # never borrow bytes from its neighbour's fragment digest.
        encoded = token.encode()
        digest.update(f"{len(encoded)}:".encode())
        digest.update(encoded)
        digest.update(f"{len(fragment_digest)}:".encode())
        digest.update(fragment_digest.encode())
    value = "hp:" + digest.hexdigest()[:24]
    object.__setattr__(partition, "_digest", value)
    return value


def run_key(
    kind: str,
    network,
    fingerprint: str,
    partition,
    seed,
    run_kwargs: dict,
) -> tuple:
    """The cache key of one run cell.

    *kind* names the schedule family (``"fair-random"``,
    ``"heartbeat-only"``, ``"dedalus"`` …) so differently shaped runs
    of the same cell never collide.  A :class:`HorizontalPartition` is
    canonicalized to its :func:`partition_digest` (pre-digested
    strings pass through); partitions carrying values with no
    canonical rendering stay in the key as objects, compared by true
    set equality — correctness never rests on the digest.  Networks
    are hashable value objects; *run_kwargs* is frozen into sorted
    items.
    """
    if isinstance(partition, HorizontalPartition):
        try:
            partition = partition_digest(partition)
        except _Undigestable:
            pass
    return (
        kind,
        network,
        fingerprint,
        partition,
        seed,
        tuple(sorted(run_kwargs.items())),
    )


# ---------------------------------------------------------------------------
# The disk tier
# ---------------------------------------------------------------------------


def _network_text(network) -> str:
    """A canonical text rendering of a Network (nodes and edges in
    sorted token order — ``__reduce__`` iterates frozenset edges in
    hash order, which is per-process)."""
    nodes = ",".join(_value_token(n) for n in network.sorted_nodes())
    edges = ";".join(
        sorted(
            "~".join(sorted(_value_token(v) for v in edge))
            for edge in network.edges
        )
    )
    return f"net:{network.name}[{nodes}][{edges}]"


def _key_part_text(part) -> str:
    if isinstance(part, Network):
        return _network_text(part)
    if isinstance(part, FaultPlan):
        # The plan's canonical token renders every field in fixed
        # order, so equal plans share disk cells and distinct plans
        # (or clean runs, which carry no plan at all) never collide.
        return part.token()
    if type(part) is tuple:
        return "(" + ",".join(_key_part_text(p) for p in part) + ")"
    if isinstance(part, str) and part.startswith("mem:"):
        # Session-local fingerprints must never be served across
        # processes, and the sqlite file outlives this one.
        raise _Undigestable("session-local mem: fingerprint")
    return _value_token(part)


def _disk_key_text(key: tuple) -> str | None:
    """The canonical text rendering of a :func:`run_key`, or None when
    the key has no cross-process rendering (``mem:`` fingerprints,
    partitions kept as objects, exotic dom values) — such cells simply
    never spill to disk.
    """
    try:
        return "|".join(_key_part_text(part) for part in key)
    except (_Undigestable, TypeError):
        return None


class _DiskTier:
    """The sqlite tier below the in-memory bound.

    Rows are ``(canonical run_key text, pickled frozen value)``.  The
    file carries the :func:`runtime_token` of the code that wrote it;
    opening it under different library source purges every row
    (results are pure functions of their keys only under one runtime),
    so a stale file degrades to a cold tier, never a wrong hit.

    Damage degrades, never crashes: a corrupt or truncated file at
    open is warned about, deleted and recreated fresh, and a row that
    no longer unpickles is warned about and deleted (a miss); if the
    recreation fails — or sqlite errors mid-session — the tier
    disables itself (gets miss, puts discard) and the cache continues
    memory-only.  A long sweep must survive a bad disk, and the tier
    is only ever an accelerator.

    The tier is thread-safe: the connection is opened with
    ``check_same_thread=False`` (sqlite's default refuses any use from
    a thread other than the opener — the first cross-thread ``get``
    from a service handler used to raise ``ProgrammingError``) and
    every connection touch, including :meth:`close` and the
    ``_disable`` error path, holds one tier-level lock, so a close
    racing an in-flight read waits for it instead of yanking the
    handle out from under the cursor.
    """

    def __init__(self, path):
        self.path = str(path)
        self._conn = None
        # One lock for every connection touch: sqlite serializes its
        # own C-level access, but _disable/close must not race a get()
        # between the None-check and the execute.
        self._lock = threading.RLock()
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError as exc:
            warnings.warn(
                f"run-cache disk tier {self.path!r} is corrupt ({exc}); "
                "purging and starting a fresh tier",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                os.remove(self.path)
            except OSError:
                pass
            try:
                self._conn = self._open()
            except sqlite3.DatabaseError:
                self._disable("could not be recreated")

    def _open(self):
        # check_same_thread=False: the tier outlives the thread that
        # opened it (a service submits jobs from a handler thread and
        # reads from orchestrator workers); cross-thread use is safe
        # because every touch holds self._lock.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries (k TEXT PRIMARY KEY, v BLOB)"
            )
            stamp = runtime_token()
            row = conn.execute(
                "SELECT v FROM meta WHERE k = 'runtime'"
            ).fetchone()
            if row is None or row[0] != stamp:
                conn.execute("DELETE FROM entries")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (k, v) VALUES ('runtime', ?)",
                    (stamp,),
                )
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _disable(self, why: str) -> None:
        warnings.warn(
            f"run-cache disk tier {self.path!r} {why}; "
            "disabling the tier (the cache continues memory-only)",
            RuntimeWarning,
            stacklevel=4,
        )
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None

    def get(self, text: str) -> bytes | None:
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT v FROM entries WHERE k = ?", (text,)
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                self._disable(f"failed mid-session ({exc})")
                return None
            return row[0] if row is not None else None

    def put(self, text: str, blob: bytes) -> None:
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO entries (k, v) VALUES (?, ?)",
                    (text, blob),
                )
                self._conn.commit()
            except sqlite3.DatabaseError as exc:
                self._disable(f"failed mid-session ({exc})")

    def delete(self, text: str) -> None:
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute("DELETE FROM entries WHERE k = ?", (text,))
                self._conn.commit()
            except sqlite3.DatabaseError as exc:
                self._disable(f"failed mid-session ({exc})")

    def __len__(self) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            try:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()[0]
            except sqlite3.DatabaseError as exc:
                self._disable(f"failed mid-session ({exc})")
                return 0

    def close(self) -> None:
        # Safe against concurrent in-flight reads: a get() holds the
        # lock across its execute, so close() waits its turn instead
        # of closing the handle under a live cursor.
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


# ---------------------------------------------------------------------------
# The run-level cache
# ---------------------------------------------------------------------------


#: Weight charged to a value that cannot be pickled (it still occupies
#: memory, so it must still count against a byte budget).
_NOMINAL_WEIGHT = 1024


def _weigh(value) -> int:
    """The byte weight of one cached value: its pickled size — the one
    size measure that is well-defined for every value shape the cache
    holds (RunResults, frozensets, Dedalus traces)."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return _NOMINAL_WEIGHT


class RunCache:
    """A store of finished run results, keyed by :func:`run_key`.

    One cache may serve many transducers — the fingerprint in the key
    is the isolation boundary.  Values are whatever the
    recording harness produced for the cell (a
    :class:`~repro.net.run.RunResult` for fair-run sweeps, an output
    frozenset for heartbeat probes, a ``DedalusTrace`` for distributed
    Dedalus cells); callers must treat returned objects as immutable —
    they are shared, not copied.

    *max_entries* bounds the store as an LRU keyed by last hit: a
    :meth:`get` hit promotes its entry to most-recent, a
    :meth:`record` past the bound evicts the least-recently-used entry
    first (``evictions`` counts them).  *max_bytes* bounds the same
    LRU by **weight** instead of count: every entry is weighed by its
    pickled size, and eviction pops the stalest entries until the
    total fits.  An entry heavier than the whole budget never enters
    memory — making room for it would evict every other entry and then
    the entry itself — so it counts as one eviction and goes straight
    to disk.  Both bounds may be active at once; ``None`` (the
    default) leaves the store unbounded.  Because every value is a
    pure function of its key, eviction is always safe — a later miss
    on an evicted key recomputes the identical value (property-tested).

    *disk_path* opens a sqlite tier **below** the in-memory bound:
    eviction *demotes* the entry to disk (``demotions``) when its key
    has a canonical cross-process rendering, and a memory miss checks
    disk before giving up — a disk hit *promotes* the entry back into
    memory (``promotions``) and counts as a cache hit.  The tier is the
    cache's only persistence: :meth:`close` spills memory down to it,
    and a new cache opened over the same file starts warm, in this
    process or another.  The file is guarded by :func:`runtime_token`,
    so a stale file degrades to a cold tier.  The bounds and the LRU
    order are not persisted: a reopened cache takes the bounds it is
    given and starts with an empty memory tier.

    The cache is **thread-safe**: one reentrant lock guards every
    mutation path — :meth:`get` (LRU promotion + counters),
    :meth:`record`, eviction/demotion and :meth:`close`'s spill.
    Unlocked, two orchestrator workers interleaving
    ``get``/``record`` could corrupt the recency dict
    mid-promotion (``del`` then re-insert is two steps), double-evict
    one key (both pop the same front entry, the ``bytes`` ledger
    drifts), or lose counter increments (``+=`` is a read-modify-write)
    — exactly what a verification service sharing one cache across
    concurrent jobs flushed out.  Counter arithmetic from outside the
    class goes through :meth:`bump` so it lands under the same lock.
    The lock also makes the cache unpicklable, which is deliberate:
    a cache lives in the process that opened it, and workers never
    receive one.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        disk_path=None,
    ):
        if max_entries is not None:
            max_entries = int(max_entries)
            if max_entries < 1:
                raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None:
            max_bytes = int(max_bytes)
            if max_bytes < 1:
                raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # Reentrant: get() -> _disk_get() -> _store() -> demotion all
        # run under one acquisition.
        self._lock = threading.RLock()
        self.entries: dict[tuple, object] = {}
        #: key -> pickled size; ``bytes`` is the running total.
        self._weights: dict[tuple, int] = {}
        self.bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: In-grid duplicate cells resolved without consulting the
        #: store (see CacheSplice) — neither hits nor misses.
        self.cache_dedup = 0
        self.evictions = 0
        self.demotions = 0
        self.promotions = 0
        self.disk_path = str(disk_path) if disk_path is not None else None
        self._disk = _DiskTier(disk_path) if disk_path is not None else None

    def __len__(self) -> int:
        return len(self.entries)

    def bump(self, counter: str, n: int = 1) -> None:
        """Atomically add *n* to a named counter (``cache_dedup``).
        ``+=`` on the attribute is a read-modify-write that loses
        increments under concurrent sweeps; external counter arithmetic
        routes through here so it shares the cache's own lock."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def get(self, key: tuple):
        """The cached result for *key* (None on miss), counting.

        A hit promotes the entry to most-recently-used, so the LRU
        bound evicts by last *hit*, not last insert.  With a disk
        tier, a memory miss falls through to disk; a disk hit promotes
        the entry back into memory (the row stays — the disk tier is
        a superset, not a spill-once) and counts as a cache hit.
        """
        with self._lock:
            value = self.entries.get(key)
            if value is None:
                if self._disk is not None:
                    value = self._disk_get(key)
                    if value is not None:
                        return value
                self.cache_misses += 1
                return None
            self.cache_hits += 1
            # Promotion: dicts iterate in insertion order, so
            # re-inserting makes insertion order *recency* order —
            # eviction pops the front, i.e. the least recently hit
            # entry.
            del self.entries[key]
            self.entries[key] = value
        return value

    def _disk_get(self, key: tuple):
        # Caller (get) holds the lock.
        text = _disk_key_text(key)
        if text is None:
            return None
        blob = self._disk.get(text)
        if blob is None:
            return None
        try:
            value = pickle.loads(blob)
        except Exception as exc:
            # A damaged row is a miss, not a crash: drop it so the
            # recomputed value can take its place.
            warnings.warn(
                f"run-cache disk tier {self._disk.path!r} holds an "
                f"undecodable row ({exc!r}); dropping it",
                RuntimeWarning,
                stacklevel=3,
            )
            self._disk.delete(text)
            return None
        self.cache_hits += 1
        self.promotions += 1
        self._store(key, value, demote=False)  # the row stays on disk
        return value

    def record(self, key: tuple, value) -> None:
        with self._lock:
            self._store(key, value)

    def _store(self, key: tuple, value, demote: bool = True) -> None:
        """Insert *value* as most-recent and evict down to the bounds,
        keeping the weight ledger exact on re-insert.

        An entry heavier than the whole byte budget is evicted on the
        spot (demoted too, unless *demote* is false) instead of
        flushing every resident entry on its way out.
        """
        old = self._weights.pop(key, None)
        if old is not None:
            del self.entries[key]
            self.bytes -= old
        weight = _weigh(value)
        if self.max_bytes is not None and weight > self.max_bytes:
            self.evictions += 1
            if demote:
                self._demote(key, value)
            return
        self.entries[key] = value
        self._weights[key] = weight
        self.bytes += weight
        if self.max_entries is not None:
            while len(self.entries) > self.max_entries:
                self._evict_one()
        if self.max_bytes is not None:
            while self.bytes > self.max_bytes:
                self._evict_one()

    def _evict_one(self) -> None:
        key = next(iter(self.entries))
        value = self.entries.pop(key)
        self.bytes -= self._weights.pop(key)
        self.evictions += 1
        self._demote(key, value)

    def _demote(self, key: tuple, value) -> None:
        """Write one entry down to the disk tier, if there is one and
        the entry has a cross-process rendering (``mem:`` fingerprints,
        object keys and unpicklable values are simply dropped)."""
        if self._disk is None:
            return
        text = _disk_key_text(key)
        if text is None:
            return
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        self._disk.put(text, blob)
        self.demotions += 1

    def close(self) -> None:
        """Spill memory entries down to the disk tier (when present)
        and close its sqlite handle (idempotent; the cache keeps
        working memory-only afterwards).

        The spill is what makes the file a complete warm start:
        eviction-time demotion only covers cells that *left* memory,
        so without it the most recently used cells — exactly the ones
        a client is most likely to resubmit — would die with the
        process.  Counted as demotions; the usual restrictions apply
        (``mem:`` fingerprints and object keys never spill).
        """
        with self._lock:
            if self._disk is not None:
                for key, value in self.entries.items():
                    self._demote(key, value)
                self._disk.close()
                self._disk = None

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self.entries),
                "bytes": self.bytes,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_dedup": self.cache_dedup,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "evictions": self.evictions,
                "demotions": self.demotions,
                "promotions": self.promotions,
                "disk_entries": len(self._disk) if self._disk is not None else 0,
            }

    def __repr__(self) -> str:
        bound = "∞" if self.max_entries is None else self.max_entries
        byte_bound = "∞" if self.max_bytes is None else self.max_bytes
        disk = f", disk={self.disk_path}" if self.disk_path else ""
        return (
            f"RunCache({len(self.entries)}/{bound} runs, "
            f"{self.bytes}/{byte_bound} bytes, "
            f"hits={self.cache_hits}, "
            f"misses={self.cache_misses}, evictions={self.evictions}{disk})"
        )


def resolve_run_cache(run_cache) -> RunCache | None:
    """Normalize the ``run_cache=`` knob the harness entry points accept:
    ``None``/``False`` → no caching; a :class:`RunCache` → itself."""
    if run_cache is None or run_cache is False:
        return None
    if not isinstance(run_cache, RunCache):
        raise TypeError(f"run_cache must be a RunCache, got {run_cache!r}")
    return run_cache
