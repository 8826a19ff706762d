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

Both tests read a configuration through a small protocol that the
immutable :class:`~repro.net.config.Configuration` and the run's
:class:`~repro.net.config.WorkingConfiguration` share: ``states``,
``distinct_set(node)``, ``distinct_buffer(node)``, ``fact in
buffer(node)`` and ``version``.  A check therefore builds no snapshot.

Between checks the tracker additionally keeps the *failure witnesses*
of the last full check — concrete non-quiet transitions that refuted
convergence; the check stops at its first one unless the run's
scheduler reads more (``witnesses``).  While a witness remains
enabled (same node state, fact still buffered, outputs still
unproduced), the verdict is still False and the check is O(1).  This
is the delta-invalidation the ROADMAP asked for: only nodes whose
state or buffers changed since the last check are ever re-examined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.transducer import Transducer
from ..db.fact import Fact
from ..db.instance import Instance
from .network import Network, Node


def is_converged(
    network: Network,
    transducer: Transducer,
    config,
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
        for f in config.distinct_buffer(node):
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


class ConvergenceTracker:
    """Incremental convergence checking with delta invalidation.

    Create one per run; call :meth:`check` wherever the exact
    :func:`is_converged` would be called — the verdicts are equal.

    Node summaries are memoized on the transducer
    (``transducer.summary_memo``), since they are pure functions of it,
    so every run of a transducer reuses the summaries earlier runs
    proved.  Verdicts are unaffected: a memoized certificate equals
    what :meth:`_summarize` would compute (the tests pin warm == fresh).

    A full check stops at the *witnesses*-th buffered refutation.  One
    decides the verdict; summarizing more nodes to harvest more costs
    more than the witness hits it buys, except to a scheduler that
    delivers the witness facts (:meth:`witness_facts`).
    """

    def __init__(self, network: Network, transducer: Transducer, witnesses: int = 1):
        self.network = network
        self.transducer = transducer
        self._nodes = network.sorted_nodes()
        self._neighbors = {v: tuple(network.neighbors(v)) for v in self._nodes}
        self._memo = transducer.summary_memo
        self._witness_limit = witnesses
        self._witnesses: list[_Witness] = []
        self._last_config = None
        self._last_version = -1
        self._last_produced: frozenset | None = None
        self._last_verdict: bool | None = None
        # Introspection counters (reported by bench E23 and docs/runtime.md).
        self.checks = 0
        self.fast_replays = 0
        self.witness_hits = 0
        self.summaries_built = 0

    # -- runtime hooks ------------------------------------------------------

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

    def check(self, config, produced_output: frozenset) -> bool:
        """Incremental verdict, equal to ``is_converged`` on the same input.

        *config* is a :class:`~repro.net.config.Configuration` or a
        :class:`~repro.net.config.WorkingConfiguration`.
        """
        self.checks += 1

        # Fast path 1: the same configuration, at the same version (a
        # working configuration counts every step and edit), and the
        # produced output is unchanged — replay the cached verdict.
        if (
            config is self._last_config
            and config.version == self._last_version
            and produced_output == self._last_produced
        ):
            self.fast_replays += 1
            return bool(self._last_verdict)

        # Fast path 2: some previously found refuting transition is
        # still enabled — same node state (shared Instance objects make
        # the identity test catch unchanged nodes), fact (if any) still
        # buffered, outputs (if the refutation was output-only) still
        # unproduced.
        states = config.states
        for w in self._witnesses:
            state = states[w.node]
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

    def _remember(self, config, produced: frozenset, verdict: bool) -> None:
        self._last_config = config
        self._last_version = config.version
        self._last_produced = produced
        self._last_verdict = verdict

    def _full_check(self, config, produced: frozenset) -> bool:
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
        memo = self._memo
        # The distinct-fact frozensets are cached until a buffer's set
        # of distinct facts changes, so they (and their cached hashes)
        # are amortized across checks.
        incoming: dict[Node, frozenset] = {
            v: config.distinct_set(v) for v in nodes
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
                cached = self._summarize(key[0], key[1])
                memo.put(key, cached)
            if isinstance(cached, _NonQuiet):
                refuted = True
                # Only buffered-fact (or heartbeat) refutations make
                # cheap witnesses: closure-only facts would need a
                # reachability re-proof to stay valid.  Sends of a
                # non-quiet node are not propagated, exactly as the exact
                # test never explores past a refutation.
                if cached.fact is None or cached.fact in config.buffer(v):
                    witnesses.append(_Witness(v, key[0], cached.fact, None))
                    if len(witnesses) >= self._witness_limit:
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
        self, v: Node, config, produced: frozenset
    ) -> _Witness | None:
        """A concrete still-enabled transition whose output exceeds
        *produced*, if one exists among v's heartbeat and buffered
        facts (closure-only violations get no cheap witness — their
        enabledness would need a reachability re-proof)."""
        state = config.states[v]
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
