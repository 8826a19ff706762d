"""Convergence detection: the exact test and its incremental tracker.

A configuration is *converged* when no reachable future transition can
change any node state or produce output outside what the run already
produced — then the output quiescence point of Proposition 1 has
passed and truncation is safe.  :func:`is_converged` is the exact
reference test: a closure computation over the finitely many
circulating facts (buffered facts plus everything quiet transitions
can still send), sound and complete because local queries cannot
invent values.

:class:`ConvergenceTracker` computes the *same verdict* incrementally
(a Hypothesis suite pins ``tracker.check == is_converged`` on random
networks, transducers and schedule prefixes).  Two observations make
the memoization sound:

* a local transition is a pure function of ``(state, incoming fact)``,
  so "delivery of f at state I leaves the state fixed, outputs O and
  sends J" is a run-independent certificate; once proven it never needs
  re-proving — only the comparison ``O ⊆ produced`` is re-evaluated,
  and since ``produced`` only grows along a run, a pair that was
  output-quiet stays output-quiet;
* the closure a node contributes is a function of ``(state, incoming
  fact set)`` alone, so whole-node summaries (all transitions quiet;
  union of outputs; union of sent facts) are memoizable under that key,
  and a check over a configuration where few nodes changed since the
  last check costs dictionary lookups for all the clean nodes.

Between checks the tracker additionally keeps the last *failure
witness* — the concrete non-quiet transition that refuted convergence.
While that witness remains enabled (same node state, fact still
buffered, outputs still unproduced), the verdict is still False and
the check is O(1).  This is the delta-invalidation the ROADMAP asked
for: only nodes whose state or buffers changed since the last check
are ever re-examined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.transducer import Transducer
from ..db.fact import Fact
from ..db.instance import Instance
from ..memo import Memo
from .config import Configuration
from .network import Network, Node

SUMMARY_MEMO_LIMIT = 8_192  # entries of a tracker's run-local summary memo


def is_converged(
    network: Network,
    transducer: Transducer,
    config: Configuration,
    produced_output: frozenset,
) -> bool:
    """Exact convergence test: no future transition can change anything.

    Simulates, without committing, every transition reachable from
    *config*: heartbeats at every node and deliveries of every fact that
    is buffered or could still be sent (the closure of the circulating
    facts).  Because states are required to stay fixed, the closure is
    finite and the test is sound and complete for the property "every
    continuation of the run leaves all states unchanged and produces no
    output outside *produced_output*".

    The simulated transitions are memoized inside the transducer
    (pure functions of (state, fact)), so repeated convergence checks
    over a stable configuration cost hash lookups, not query runs.
    """
    pending: list[tuple[Node, Fact]] = []
    seen: set[tuple[Node, Fact]] = set()

    def push_sends(sender: Node, sent: frozenset[Fact]) -> bool:
        for neighbor in network.neighbors(sender):
            for f in sent:
                key = (neighbor, f)
                if key not in seen:
                    seen.add(key)
                    pending.append(key)
        return True

    for node in network.sorted_nodes():
        local = transducer.heartbeat(config.state(node))
        if local.new_state != local.state:
            return False
        if not local.output <= produced_output:
            return False
        push_sends(node, local.sent.facts())
        for f in config.buffer(node).distinct():
            key = (node, f)
            if key not in seen:
                seen.add(key)
                pending.append(key)

    while pending:
        node, f = pending.pop()
        local = transducer.deliver(config.state(node), f)
        if local.new_state != local.state:
            return False
        if not local.output <= produced_output:
            return False
        push_sends(node, local.sent.facts())
    return True


@dataclass(frozen=True)
class _Summary:
    """A proven-quiet node certificate for one (state, incoming) key.

    Every transition (heartbeat + delivery of each incoming fact) left
    the state fixed; *outputs* and *sent* union the transitions'
    outputs and sends.  Quietness of the *outputs* against the run's
    accumulated output is re-judged per check (it is monotone in
    ``produced``, so certificates never expire in that direction).
    """

    outputs: frozenset
    sent: frozenset


@dataclass(frozen=True)
class _NonQuiet:
    """A (state, incoming) key refuted by a concrete transition.

    ``fact`` is the delivered fact, or None for the heartbeat.  State
    changes are run-independent, so refutations are memoized alongside
    certificates.
    """

    fact: Fact | None


@dataclass(frozen=True)
class _Witness:
    """The enabled non-quiet transition that last refuted convergence."""

    node: Node
    state: Instance
    fact: Fact | None  # None: the heartbeat itself is non-quiet
    outputs: frozenset | None  # set when only the output bound failed


class ConvergenceMemo:
    """A cross-run store of (state, incoming-facts) → node summaries.

    The tracker's certificates are pure functions of the *transducer*
    (not of the run, the partition, the seed, or even the network —
    :meth:`ConvergenceTracker._summarize` only consults
    ``transducer.heartbeat``/``deliver``), so a sweep over many runs of
    the same transducer can share them: hang one memo off the
    transducer (``transducer.convergence_memo``), pass it to each run's
    :class:`ConvergenceTracker`, and later runs start warm.  Never
    share a memo between different transducers — entries would be
    wrong, and nothing can detect it.

    The memo is picklable (entries are Instances, Facts and
    frozensets, all with cheap ``__reduce__`` hooks) and *mergeable*:
    parallel sweep workers return the entries they built
    (:meth:`drain_new`) and the parent folds them back in with
    :meth:`merge`.  Merging is conflict-free — values are deterministic
    in their key, so last-write-wins is a no-op on overlaps.

    ``memo_hits``/``memo_misses`` count tracker lookups that were
    served from / had to be computed despite the memo; they are
    surfaced in :class:`~repro.net.consistency.ConsistencyReport` and
    the E24 bench output.
    """

    def __init__(self, entries: dict | None = None):
        self.entries: dict[tuple[Instance, frozenset[Fact]], _Summary | _NonQuiet] = (
            dict(entries) if entries else {}
        )
        # Delta journal for parallel merge-back; None (off) until a
        # worker calls start_journal(), so the serial path — where the
        # tracker records straight into the shared store — never
        # accumulates an unbounded second copy.
        self._new: dict | None = None
        self.memo_hits = 0
        self.memo_misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key):
        """A memoized summary for *key*, counting the hit or miss."""
        value = self.entries.get(key)
        if value is None:
            self.memo_misses += 1
        else:
            self.memo_hits += 1
        return value

    def record(self, key, value) -> None:
        """Store a freshly built summary (journalled when enabled)."""
        self.entries[key] = value
        if self._new is not None:
            self._new[key] = value

    def start_journal(self) -> None:
        """Begin journalling fresh entries for :meth:`drain_new`."""
        if self._new is None:
            self._new = {}

    def drain_new(self) -> dict:
        """Entries recorded since the last drain (a worker's delta)."""
        delta = self._new or {}
        self._new = {}
        return delta

    def merge(self, other: "ConvergenceMemo | dict") -> int:
        """Fold another memo (or a drained delta) in; returns #added."""
        if isinstance(other, ConvergenceMemo):
            entries = other.entries
        else:
            entries = other
        before = len(self.entries)
        self.entries.update(entries)
        return len(self.entries) - before

    def add_counts(self, hits: int, misses: int) -> None:
        """Aggregate hit/miss counters reported back by a worker."""
        self.memo_hits += hits
        self.memo_misses += misses

    def stats(self) -> dict:
        return {
            "entries": len(self.entries),
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }

    def __reduce__(self):
        return (_unpickle_memo, (self.entries, self.memo_hits, self.memo_misses))

    def __repr__(self) -> str:
        return (
            f"ConvergenceMemo({len(self.entries)} entries, "
            f"hits={self.memo_hits}, misses={self.memo_misses})"
        )


def _unpickle_memo(entries: dict, hits: int, misses: int) -> ConvergenceMemo:
    memo = ConvergenceMemo(entries)
    memo.memo_hits = hits
    memo.memo_misses = misses
    return memo


def shared_memo(transducer: Transducer) -> ConvergenceMemo:
    """Get-or-create the memo hung off *transducer* (like its
    transition cache; see :class:`ConvergenceMemo` for why the
    transducer is the right scope)."""
    memo = getattr(transducer, "convergence_memo", None)
    if memo is None:
        memo = ConvergenceMemo()
        transducer.convergence_memo = memo
    return memo


def resolve_memo(
    memo: "ConvergenceMemo | bool | None", transducer: Transducer
) -> ConvergenceMemo | None:
    """Normalize the ``memo=`` knob the sweep entry points accept.

    ``None``/``False`` → no cross-run memo; ``True`` → the memo hung
    off the transducer (created on first use, like the transition
    cache); a :class:`ConvergenceMemo` → itself.
    """
    if memo is None or memo is False:
        return None
    if memo is True:
        return shared_memo(transducer)
    if not isinstance(memo, ConvergenceMemo):
        raise TypeError(f"memo must be a ConvergenceMemo or bool, got {memo!r}")
    return memo


class ConvergenceTracker:
    """Incremental convergence checking with delta invalidation.

    Create one per run; call :meth:`check` wherever the exact
    :func:`is_converged` would be called — the verdicts are equal.
    :meth:`note_transition` is an optional hint that keeps the
    cheap-path bookkeeping exact; :meth:`check` is self-contained and
    correct without it.

    *memo* plugs in a cross-run :class:`ConvergenceMemo`: summaries it
    already holds are used instead of being re-proven, and summaries
    built here are recorded into it.  Verdicts are unaffected — the
    memoized certificates equal what :meth:`_summarize` would compute
    (the Hypothesis suite pins warm == fresh).
    """

    def __init__(
        self,
        network: Network,
        transducer: Transducer,
        memo: ConvergenceMemo | None = None,
    ):
        self.network = network
        self.transducer = transducer
        self._nodes = network.sorted_nodes()
        self._neighbors = {v: tuple(network.neighbors(v)) for v in self._nodes}
        self._memo = Memo(SUMMARY_MEMO_LIMIT)
        self._shared = memo
        self._witnesses: list[_Witness] = []
        self._last_config: Configuration | None = None
        self._last_produced: frozenset | None = None
        self._last_verdict: bool | None = None
        self._dirty = True
        # Introspection counters (reported by bench E23 and docs/runtime.md).
        self.checks = 0
        self.fast_replays = 0
        self.witness_hits = 0
        self.summaries_built = 0

    # -- runtime hooks ------------------------------------------------------

    def note_transition(self, transition) -> None:
        """Record that the configuration changed since the last check."""
        self._dirty = True

    def witness_facts(self) -> list[tuple[Node, Fact]]:
        """The (node, fact) deliveries among the cached failure witnesses.

        These are the concrete transitions the last check proved were
        keeping the run alive (a state change or unproduced output on
        delivery of a still-buffered fact) — exactly what a scheduler
        should deliver next to shorten the convergence tail.  Heartbeat
        witnesses (fact is None) are excluded: heartbeats happen every
        round anyway.
        """
        return [(w.node, w.fact) for w in self._witnesses if w.fact is not None]

    # -- the check ----------------------------------------------------------

    def check(self, config: Configuration, produced_output: frozenset) -> bool:
        """Incremental verdict, equal to ``is_converged`` on the same input."""
        self.checks += 1

        # Fast path 1: nothing happened since the last check and the
        # produced output is unchanged — replay the cached verdict.
        if (
            not self._dirty
            and config == self._last_config
            and produced_output == self._last_produced
        ):
            self.fast_replays += 1
            return bool(self._last_verdict)

        # Fast path 2: some previously found refuting transition is
        # still enabled — same node state (shared Instance objects make
        # the identity test catch unchanged nodes), fact (if any) still
        # buffered, outputs (if the refutation was output-only) still
        # unproduced.  Witnesses at several nodes die independently, so
        # a full check harvests a handful.
        for w in self._witnesses:
            state = config.state(w.node)
            if (state is w.state or state == w.state) and (
                w.fact is None or w.fact in config.buffer(w.node)
            ):
                if w.outputs is None or not w.outputs <= produced_output:
                    self.witness_hits += 1
                    self._remember(config, produced_output, False)
                    return False
        self._witnesses = []

        verdict = self._full_check(config, produced_output)
        self._remember(config, produced_output, verdict)
        return verdict

    # -- internals ----------------------------------------------------------

    def _remember(
        self, config: Configuration, produced: frozenset, verdict: bool
    ) -> None:
        self._last_config = config
        self._last_produced = produced
        self._last_verdict = verdict
        self._dirty = False

    def _full_check(self, config: Configuration, produced: frozenset) -> bool:
        """Fixpoint over per-node summaries with (state, incoming) memo.

        ``incoming[v]`` grows from v's buffered facts to the closure of
        facts quiet transitions can still send to v — the same closure
        the exact test walks pair by pair; here whole-node summaries
        are reused across checks via the memo.  Chaotic iteration over
        a worklist: a node is re-summarized only when its incoming set
        actually grew, so the number of key computations is bounded by
        the number of (node, fact) closure events, as in the exact
        test — but each computation is a dictionary hit when the run
        has been here before.
        """
        nodes = self._nodes
        neighbors = self._neighbors
        states = config.states
        buffers = config.buffers
        memo = self._memo
        # Buffers are shared between configurations, so distinct_set()
        # (and the frozenset's cached hash) is amortized across checks.
        incoming: dict[Node, frozenset] = {
            v: buffers[v].distinct_set() for v in nodes
        }
        summaries: dict[Node, _Summary] = {}
        refuted = False
        witnesses: list[_Witness] = []
        worklist = deque(nodes)
        queued = set(nodes)
        while worklist:
            v = worklist.popleft()
            queued.discard(v)
            key = (states[v], incoming[v])
            cached = memo.get(key)
            if cached is None:
                # Miss in the run-local memo: consult the cross-run memo
                # before paying for a fresh proof, and record fresh
                # proofs into it so later runs in the sweep start warm.
                if self._shared is not None:
                    cached = self._shared.get(key)
                    if cached is None:
                        cached = self._summarize(key[0], key[1])
                        self._shared.record(key, cached)
                else:
                    cached = self._summarize(key[0], key[1])
                memo.put(key, cached)
            if isinstance(cached, _NonQuiet):
                refuted = True
                # Only buffered-fact (or heartbeat) refutations make
                # cheap witnesses: closure-only facts would need a
                # reachability re-proof to stay valid.  Keep walking the
                # other nodes to harvest independent witnesses (they die
                # independently, raising the O(1)-refutation hit rate);
                # sends of a non-quiet node are not propagated, exactly
                # as the exact test never explores past a refutation.
                if cached.fact is None or cached.fact in buffers[v]:
                    witnesses.append(_Witness(v, key[0], cached.fact, None))
                    if len(witnesses) >= 8:
                        break
                continue
            summaries[v] = cached
            sent = cached.sent
            if sent:
                for neighbor in neighbors[v]:
                    target = incoming[neighbor]
                    if not sent <= target:
                        incoming[neighbor] = target | sent
                        if neighbor not in queued:
                            queued.add(neighbor)
                            worklist.append(neighbor)
        if refuted:
            self._witnesses = witnesses
            return False
        for v in nodes:
            if not summaries[v].outputs <= produced:
                w = self._output_witness(v, config, produced)
                self._witnesses = [w] if w is not None else []
                return False
        return True

    def _output_witness(
        self, v: Node, config: Configuration, produced: frozenset
    ) -> _Witness | None:
        """A concrete still-enabled transition whose output exceeds
        *produced*, if one exists among v's heartbeat and buffered
        facts (closure-only violations get no cheap witness — their
        enabledness would need a reachability re-proof)."""
        state = config.state(v)
        local = self.transducer.heartbeat(state)
        if not local.output <= produced:
            return _Witness(v, state, None, frozenset(local.output))
        for f in config.distinct_buffer(v):
            local = self.transducer.deliver(state, f)
            if not local.output <= produced:
                return _Witness(v, state, f, frozenset(local.output))
        return None

    def _summarize(
        self, state: Instance, incoming: frozenset[Fact]
    ) -> _Summary | _NonQuiet:
        """Prove (or refute) quietness of one (state, incoming) key."""
        self.summaries_built += 1
        transducer = self.transducer
        local = transducer.heartbeat(state)
        if local.new_state != state:
            return _NonQuiet(None)
        outputs = set(local.output)
        sent = set(local.sent.facts())
        for f in sorted(incoming, key=Fact._sort_key):
            local = transducer.deliver(state, f)
            if local.new_state != state:
                return _NonQuiet(f)
            outputs |= local.output
            sent |= local.sent.facts()
        return _Summary(frozenset(outputs), frozenset(sent))
