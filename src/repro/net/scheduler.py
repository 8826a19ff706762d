"""Pluggable schedulers for transducer-network runs.

The paper quantifies over *all* fair runs; the runtime realizes a run
as a schedule — a stream of heartbeat/delivery decisions — produced by
a :class:`Scheduler` and executed by :func:`repro.net.run.run_schedule`.
Separating the two (the same move the Canonical Amoebot Model makes
between the concurrency layer and node-local algorithms) makes
schedules swappable and testable: the semantic checkers quantify over
schedulers exactly as they quantify over seeds and partitions.

A scheduler is a generator of :class:`Action` values:

* ``heartbeat``/``deliver``/``deliver_batch`` actions are executed by
  the driver, which sends the committed
  :class:`~repro.net.transition.GlobalTransition` back into the
  generator (so schedulers like fifo-rounds can track message order);
* ``check`` actions ask the driver to run the convergence test; the
  driver ends the run as soon as a check passes, so schedulers place
  checks wherever their schedule shape makes quiescence plausible;
* returning from the generator ends the schedule with an explicit
  verdict (``return True/False``) or ``None`` to delegate to a final
  convergence check.

Five implementations ship:

* :class:`FairRandomScheduler` — the seeded random fair workhorse
  (bit-for-bit the schedule :func:`~repro.net.run.run_fair` always
  produced, so seeded traces replay across the refactor);
* :class:`HeartbeatOnlyScheduler` — round-robin heartbeats with
  state-cycle detection (the Section 5 coordination-freeness probe);
* :class:`FifoRoundsScheduler` — the deterministic fifo round schedule
  of Theorem 16's proof, with skip-node support;
* :class:`RoundRobinBatchScheduler` — a round-based scheduler that
  drains each nonempty buffer in one batched delivery per visit;
* :class:`WitnessGuidedScheduler` — a round-based scheduler that
  delivers the convergence tracker's cached failure-witness facts
  first, shortening convergence tails.

Batched delivery (one transition reads a node's whole buffer) is an
opt-in fast path that is only sound for *oblivious, monotone,
inflationary* transducers: no Id/All, monotone local queries and no
deletions make insert-only transitions commute, giving the CALM
schedule-invariance guarantee that the accumulated output of any fair
schedule — in particular one that coalesces deliveries — equals the
one-fact-at-a-time reference semantics.  The driver enforces the gate
via :func:`require_batchable`; everything else raises
:class:`BatchingError`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Generator
from dataclasses import dataclass

from ..core.properties import is_inflationary, is_monotone, is_oblivious
from ..core.transducer import Transducer
from ..db.fact import Fact
from .network import Node


class BatchingError(ValueError):
    """Batched delivery requested for a transducer it is not sound for."""


def batching_allowed(transducer: Transducer) -> bool:
    """Is batched delivery sound for *transducer*?

    True for oblivious (no Id/All), *inflationary* (no deletions)
    transducers whose local queries are all monotone: delivering
    {f1, ..., fk} in one transition then equals delivering them in any
    order, up to the accumulated-output semantics (the CALM
    schedule-invariance argument — see docs/runtime.md).

    All three conditions are needed.  Monotone queries over a state
    with *deletions* are not enough: the update formula applies
    Qins/Qdel of the coalesced read atomically, so a batch can reach a
    state (and emit output) that no one-fact-at-a-time interleaving
    ever produces — e.g. two facts whose deliveries delete each
    other's insertions.  Insert-only transitions commute, which is
    what makes the coalescing a legal reordering.
    """
    return (
        is_oblivious(transducer)
        and is_monotone(transducer)
        and is_inflationary(transducer)
    )


def require_batchable(transducer: Transducer) -> None:
    """Raise :class:`BatchingError` unless batching is sound."""
    if not batching_allowed(transducer):
        missing = [
            label
            for label, ok in (
                ("not oblivious", is_oblivious(transducer)),
                ("not monotone", is_monotone(transducer)),
                ("not inflationary", is_inflationary(transducer)),
            )
            if not ok
        ]
        raise BatchingError(
            f"batched delivery is only sound for oblivious, monotone, "
            f"inflationary transducers; {transducer.name!r} is "
            + " and ".join(missing)
        )


@dataclass(frozen=True)
class Action:
    """One scheduler decision.

    ``kind`` is one of ``"heartbeat"``, ``"deliver"``,
    ``"deliver_batch"`` or ``"check"``; ``node`` identifies the acting
    node (unused for checks); ``fact`` is the delivered fact for
    one-at-a-time deliveries.  The fault plane
    (:mod:`repro.net.faults`) adds its own kinds — ``drop``,
    ``duplicate``, ``delay``, ``crash``, ``restart``, ``partition`` —
    executed by the driver on the wrapper's behalf; ``payload``
    carries their extras (the restart's retain flag, the cut edge).
    """

    kind: str
    node: Node | None = None
    fact: Fact | None = None
    payload: object = None

    @classmethod
    def heartbeat(cls, node: Node) -> "Action":
        return cls("heartbeat", node)

    @classmethod
    def deliver(cls, node: Node, fact: Fact) -> "Action":
        return cls("deliver", node, fact)

    @classmethod
    def deliver_batch(cls, node: Node) -> "Action":
        return cls("deliver_batch", node)

    @classmethod
    def check(cls) -> "Action":
        return cls("check")

    @classmethod
    def drop(cls, node: Node, fact: Fact) -> "Action":
        """Fault plane: remove one buffered occurrence of *fact*."""
        return cls("drop", node, fact)

    @classmethod
    def duplicate(cls, node: Node, fact: Fact) -> "Action":
        """Fault plane: add one extra buffered occurrence of *fact*."""
        return cls("duplicate", node, fact)

    @classmethod
    def crash(cls, node: Node) -> "Action":
        """Fault plane: take *node* down, clearing its buffer."""
        return cls("crash", node)

    @classmethod
    def restart(cls, node: Node, retain_state: bool) -> "Action":
        """Fault plane: bring *node* back (rebuilding state unless retained)."""
        return cls("restart", node, payload=retain_state)


def _reused_actions(nodes) -> tuple[Action, dict[Node, Action]]:
    """One check action and one heartbeat action per node, for one
    schedule to yield over and over (actions are immutable).  Delivery
    actions stay fresh per step."""
    return Action.check(), {v: Action.heartbeat(v) for v in nodes}


# The driver sends back a GlobalTransition (for transition actions) or a
# bool (for check actions); the generator's return value is the
# scheduler's own convergence verdict, None delegating to a final check.
Schedule = Generator[Action, object, "bool | None"]


class Scheduler(ABC):
    """A schedule generator plus the driver-facing policy flags."""

    name: str = "scheduler"
    #: When True the driver validates batching soundness before running.
    uses_batching: bool = False
    #: When True and the schedule ends without a verdict, the driver
    #: runs one final convergence check (the fair-random contract).
    final_check: bool = True

    @abstractmethod
    def schedule(self, ctx) -> Schedule:
        """Yield actions against the live :class:`~repro.net.run.RunContext`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FairRandomScheduler(Scheduler):
    """Seeded random fair scheduling — the workhorse of every bench.

    Fairness of the infinite completion is modelled by (i) uniform node
    choice, so every node heartbeats infinitely often, and (ii) a
    delivery bias, so buffered facts are eventually delivered.  The rng
    stream (node choice, bias draw, fact choice) is exactly the one the
    pre-scheduler ``run_fair`` consumed, so seeded runs replay
    bit-for-bit across the refactor (the golden-replay suite pins
    this).
    """

    name = "fair-random"

    def __init__(
        self,
        seed: int = 0,
        deliver_bias: float = 0.75,
        check_every: int | None = None,
        batch_delivery: bool = False,
    ):
        self.seed = seed
        self.deliver_bias = deliver_bias
        self.check_every = check_every
        self.uses_batching = batch_delivery

    def schedule(self, ctx) -> Schedule:
        rng = random.Random(self.seed)
        nodes = ctx.network.sorted_nodes()
        check_every = self.check_every
        if check_every is None:
            check_every = max(8, 4 * len(nodes))
        check, heartbeats = _reused_actions(nodes)
        yield check
        steps_since_check = 0
        while True:
            node = rng.choice(nodes)
            buffer = ctx.config.buffer(node)
            if buffer and rng.random() < self.deliver_bias:
                if self.uses_batching:
                    yield Action.deliver_batch(node)
                else:
                    choices = buffer.distinct()
                    f = choices[rng.randrange(len(choices))]
                    yield Action.deliver(node, f)
            else:
                yield heartbeats[node]
            steps_since_check += 1
            if steps_since_check >= check_every or ctx.config.buffers_empty():
                steps_since_check = 0
                yield check


class HeartbeatOnlyScheduler(Scheduler):
    """Round-robin heartbeats only — the coordination-freeness probe.

    No deliveries ever happen; the schedule ends (converged) when the
    global state vector repeats, since heartbeats are deterministic
    functions of state.  Messages still accumulate in buffers,
    faithfully — they are simply never read within this prefix.
    """

    name = "heartbeat-only"
    final_check = False

    def __init__(self, max_rounds: int = 1_000):
        self.max_rounds = max_rounds

    def schedule(self, ctx) -> Schedule:
        nodes = ctx.network.sorted_nodes()
        _, heartbeats = _reused_actions(nodes)
        seen_states = {ctx.config.states_key()}
        for _ in range(self.max_rounds):
            for node in nodes:
                yield heartbeats[node]
            key = ctx.config.states_key()
            if key in seen_states:
                return True
            seen_states.add(key)
        return False


class FifoRoundsScheduler(Scheduler):
    """The deterministic fifo round schedule of Theorem 16's proof.

    Each round: every (non-skipped) node heartbeats, in sorted order;
    then, if some fifo is nonempty, every node with a nonempty fifo
    delivers its *oldest* buffered fact; otherwise every node heartbeats
    a second time.  ``skip_nodes`` realizes the proof's run ρ' where
    node 3 is "ignored completely" — with skipped nodes the schedule
    ends once the active part is quiet (states stable under heartbeat,
    no pending fifo messages) instead of via the global convergence
    test.
    """

    name = "fifo-rounds"
    final_check = False

    def __init__(
        self,
        max_rounds: int = 2_000,
        skip_nodes: frozenset | None = None,
        batch_delivery: bool = False,
    ):
        self.max_rounds = max_rounds
        self.skip_nodes = skip_nodes or frozenset()
        self.uses_batching = batch_delivery

    def schedule(self, ctx) -> Schedule:
        network = ctx.network
        skip = self.skip_nodes
        nodes = [v for v in network.sorted_nodes() if v not in skip]
        fifo: dict[Node, list[Fact]] = {v: [] for v in network.sorted_nodes()}
        check, heartbeats = _reused_actions(nodes)

        def absorb(transition) -> None:
            sent = sorted(transition.sent_facts)
            if sent:
                for neighbor in network.neighbors(transition.node):
                    fifo[neighbor].extend(sent)

        for _ in range(self.max_rounds):
            for node in nodes:
                absorb((yield heartbeats[node]))
            if any(fifo[v] for v in nodes):
                for node in nodes:
                    if fifo[node]:
                        if self.uses_batching:
                            # One transition drains the whole buffer;
                            # the fifo ordering collapses with it.
                            fifo[node].clear()
                            absorb((yield Action.deliver_batch(node)))
                        else:
                            f = fifo[node].pop(0)
                            absorb((yield Action.deliver(node, f)))
            else:
                for node in nodes:
                    absorb((yield heartbeats[node]))
            if not skip:
                yield check
            elif all(not fifo[v] for v in nodes):
                # With skipped nodes we stop once the active part is
                # quiet: states stable under heartbeat and no pending
                # fifo messages.
                produced = ctx.produced
                stable = True
                for v in nodes:
                    local = ctx.transducer.heartbeat(ctx.config.state(v))
                    if (
                        local.new_state != ctx.config.state(v)
                        or not local.output <= produced
                    ):
                        stable = False
                        break
                if stable:
                    return True
        return False


class WitnessGuidedScheduler(Scheduler):
    """Round-based delivery that retires convergence witnesses first.

    The incremental :class:`~repro.net.convergence.ConvergenceTracker`
    caches *failure witnesses*: concrete still-enabled transitions —
    typically a buffered fact whose delivery changes a node state or
    produces missing output — that refuted the last convergence check.
    Those facts are exactly what keeps the run alive, so each round
    delivers them before the ordinary drain sweep, shortening the
    convergence tail (the ROADMAP's witness-guided-scheduling item).

    Round shape: heartbeat every node in sorted order; deliver every
    currently-buffered witness fact; then one rotating distinct fact
    per remaining nonempty buffer (or a whole-buffer drain with
    ``batch_delivery=True``, gated as usual); then check.  Every node
    heartbeats every round and every nonempty buffer progresses every
    round, so the schedule is fair, and on batchable transducers the
    accumulated output equals any fair run's (the CALM
    schedule-invariance argument — the Hypothesis suite pins
    witness-guided == fair).

    Requires the incremental convergence engine — with
    ``convergence="exact"`` there is no tracker and the schedule
    degrades gracefully to plain round-robin delivery.
    """

    name = "witness-guided"

    def __init__(self, max_rounds: int = 2_000, batch_delivery: bool = False):
        self.max_rounds = max_rounds
        self.uses_batching = batch_delivery

    def schedule(self, ctx) -> Schedule:
        nodes = ctx.network.sorted_nodes()
        cursor = {v: 0 for v in nodes}
        check, heartbeats = _reused_actions(nodes)
        yield check
        for _ in range(self.max_rounds):
            for node in nodes:
                yield heartbeats[node]
            delivered: set = set()
            tracker = ctx.tracker
            if tracker is not None and not self.uses_batching:
                for node, f in tracker.witness_facts():
                    if (node, f) in delivered:
                        continue
                    if f in ctx.config.buffer(node):
                        delivered.add((node, f))
                        yield Action.deliver(node, f)
            elif tracker is not None:
                # Batched mode: a drain subsumes every witness at the
                # node, so just put witness nodes first in the sweep.
                for node, _ in tracker.witness_facts():
                    if node in delivered:
                        continue
                    if ctx.config.buffer(node):
                        delivered.add(node)
                        yield Action.deliver_batch(node)
            for node in ctx.config.nonempty_buffer_nodes():
                if self.uses_batching:
                    yield Action.deliver_batch(node)
                else:
                    choices = ctx.config.distinct_buffer(node)
                    f = choices[cursor[node] % len(choices)]
                    cursor[node] += 1
                    if (node, f) in delivered:
                        continue
                    yield Action.deliver(node, f)
            yield check
        return False


class RoundRobinBatchScheduler(Scheduler):
    """Round-based batched delivery: heartbeat sweep, then drain buffers.

    Each round first heartbeats every node in sorted order (so local
    inputs keep flowing out — a node whose buffer never empties must
    still act spontaneously for the schedule to be fair), then every
    node with a nonempty buffer delivers: the *whole* buffer in one
    transition when batching is on (the default), one rotating distinct
    fact otherwise.  Convergence is checked once per round.  This is
    the round shape the ROADMAP's sharded/parallel node-stepping items
    build on: within a sweep the per-node work is independent.
    """

    name = "round-robin-batch"

    def __init__(self, max_rounds: int = 2_000, batch_delivery: bool = True):
        self.max_rounds = max_rounds
        self.uses_batching = batch_delivery

    def schedule(self, ctx) -> Schedule:
        nodes = ctx.network.sorted_nodes()
        # Per-node rotation over the distinct buffered facts, so the
        # unbatched variant delivers every circulating fact eventually
        # (always taking the smallest would starve the rest under
        # duplicate re-sends).
        cursor = {v: 0 for v in nodes}
        check, heartbeats = _reused_actions(nodes)
        yield check
        for _ in range(self.max_rounds):
            for node in nodes:
                yield heartbeats[node]
            for node in ctx.config.nonempty_buffer_nodes():
                if self.uses_batching:
                    yield Action.deliver_batch(node)
                else:
                    choices = ctx.config.distinct_buffer(node)
                    f = choices[cursor[node] % len(choices)]
                    cursor[node] += 1
                    yield Action.deliver(node, f)
            yield check
        return False


#: Named registry, for CLI-ish call sites and reports.
SCHEDULERS: dict[str, type[Scheduler]] = {
    FairRandomScheduler.name: FairRandomScheduler,
    HeartbeatOnlyScheduler.name: HeartbeatOnlyScheduler,
    FifoRoundsScheduler.name: FifoRoundsScheduler,
    RoundRobinBatchScheduler.name: RoundRobinBatchScheduler,
    WitnessGuidedScheduler.name: WitnessGuidedScheduler,
}
