"""The deterministic fault plane: seeded message/node/link faults.

The paper's asynchronous delivery model already permits arbitrary
message delay and duplication; real networks add loss, node crashes
and link partitions.  This module makes all of them first-class and
*replayable*: a :class:`FaultPlan` is a frozen, picklable description
of fault rates whose decisions are drawn from the plan's **own**
seeded RNG stream, so any ``(plan, scheduler, seed)`` triple replays
bit-identically — clean schedules are untouched (``faults=None`` does
no wrapping at all), and faulty schedules are golden-replay protected
exactly like the schedulers themselves
(``tests/test_fault_replay.py``).

A plan composes with *every* :class:`~repro.net.scheduler.Scheduler`
through :class:`FaultyScheduler`, a wrapper that intercepts the inner
scheduler's action stream:

* **loss** (per-link overridable) and **link partitions** remove sent
  copies from neighbour buffers right after the sending transition
  commits — the message was lost in transit;
* **duplication** injects an extra buffered occurrence of a sent copy
  — the network delivered it twice;
* **delay** never mutates buffers: a delivery attempt is *suppressed*
  and the (node, fact) pair held for a bounded number of steps, which
  reorders deliveries while keeping the fact visible to the
  convergence test (so truncation-at-convergence stays sound: a run
  is never declared converged while a delayed message could still
  change it);
* **crash** suspends a node for ``restart_after`` intercepted steps
  and clears its buffer (messages addressed to a down node are lost);
  **restart** resumes it, rebuilding the initial state from the
  node's input fragment unless ``retain_state=True``.

The wrapper makes every decision; the driver
(:func:`~repro.net.run.run_schedule`) executes the mechanical buffer
and state edits via dedicated fault action kinds (it owns the
partition, the trace and the stats), and sends a :class:`FaultEvent`
back.  Suppressed inner actions receive a synthetic
:class:`FaultEvent` in place of the committed transition — it exposes
the same ``node``/``kind``/``sent_facts`` surface, so schedulers that
track message order (fifo-rounds) absorb it unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..db.fact import Fact
from .network import Node
from .scheduler import Action, Schedule, Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .run import RunContext

__all__ = [
    "FAULT_ACTION_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultyScheduler",
    "execute_fault_action",
]

#: Action kinds executed by the run driver on behalf of the fault
#: plane.  ``drop``/``duplicate`` edit one buffered occurrence,
#: ``crash``/``restart`` flip a node's liveness (clearing its buffer /
#: rebuilding its state), ``delay`` and ``partition`` are pure
#: bookkeeping (counters + trace) — delayed facts stay buffered and
#: cut links act through subsequent ``drop``s.
FAULT_ACTION_KINDS = frozenset(
    {"drop", "duplicate", "delay", "crash", "restart", "partition"}
)


def _edge_key(edge) -> tuple:
    """A process-independent sort key for an undirected edge (a
    frozenset of two nodes): its sorted endpoint reprs.  A frozenset's
    own repr follows hash-seeded iteration order and must never feed a
    seeded choice."""
    return tuple(sorted(repr(node) for node in edge))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable description of the faults to inject.

    All rates are probabilities in ``[0, 1]`` drawn from the plan's
    own ``random.Random(seed)`` stream — independent of every
    scheduler seed, so fault decisions replay bit-identically for a
    fixed plan regardless of which scheduler they compose with.

    * ``loss`` — probability that a sent copy (one fact, one link) is
      lost in transit; ``link_loss`` overrides it per (undirected)
      link: an iterable of ``(node_a, node_b, probability)``.
    * ``duplication`` — probability that a delivered-to-buffer copy is
      duplicated (one extra occurrence).
    * ``delay`` — probability that a delivery attempt is held for
      ``1..max_delay`` intercepted steps (bounded delay/reorder; the
      fact stays buffered, so convergence truncation stays sound).
    * ``crash`` — probability per intercepted action that the acting
      node crashes: its buffer is cleared and it stops acting for
      ``restart_after`` steps, then restarts — with its state retained
      (``retain_state=True``) or rebuilt from its input fragment.
      ``max_crashes`` bounds the total (``None`` = unbounded).
    * ``partition_rate`` — probability per intercepted action that a
      random live link is cut for ``heal_after`` steps; copies sent
      across a cut link are dropped.  ``max_partitions`` bounds the
      total.
    """

    seed: int = 0
    loss: float = 0.0
    link_loss: tuple = ()
    duplication: float = 0.0
    delay: float = 0.0
    max_delay: int = 4
    crash: float = 0.0
    restart_after: int = 8
    retain_state: bool = True
    max_crashes: int | None = 2
    partition_rate: float = 0.0
    heal_after: int = 6
    max_partitions: int | None = 2

    def __post_init__(self) -> None:
        for name in ("loss", "duplication", "delay", "crash", "partition_rate"):
            rate = getattr(self, name)
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        for name in ("max_delay", "restart_after", "heal_after"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("max_crashes", "max_partitions"):
            bound = getattr(self, name)
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be None or >= 0")
        # Normalize link overrides to a canonical hashable tuple:
        # sorted endpoints per link, sorted links, validated rates.
        if isinstance(self.link_loss, dict):
            items = [(k, v) for k, v in self.link_loss.items()]
        else:
            items = [(entry[:2], entry[2]) for entry in self.link_loss]
        canon = []
        for (a, b), rate in items:
            if not 0.0 <= rate <= 1.0:
                raise ValueError("link_loss rates must be probabilities")
            u, v = sorted((a, b), key=repr)
            canon.append((u, v, float(rate)))
        canon.sort(key=repr)
        object.__setattr__(self, "link_loss", tuple(canon))

    def is_noop(self) -> bool:
        """True when no fault can ever fire under this plan."""
        return (
            self.loss == 0.0
            and not any(rate for _, _, rate in self.link_loss)
            and self.duplication == 0.0
            and self.delay == 0.0
            and self.crash == 0.0
            and self.partition_rate == 0.0
        )

    def loss_for(self, a: Node, b: Node) -> float:
        """The loss probability on the (undirected) link ``{a, b}``."""
        for u, v, rate in self.link_loss:
            if {u, v} == {a, b}:
                return rate
        return self.loss

    def token(self) -> str:
        """A canonical text rendering, for cache keys.

        Two equal plans render identically (field order is fixed and
        ``link_loss`` is canonicalized at construction), and any field
        change renders differently — this is what
        :func:`~repro.net.runcache.run_key` folds into the cache key
        so faulty and clean runs never alias, and what gives fault
        cells a cross-process rendering for the sqlite disk tier.
        """
        parts = ",".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"fault-plan({parts})"


@dataclass(frozen=True)
class FaultEvent:
    """A fault the driver executed (or the wrapper suppressed).

    Appears in kept traces alongside :class:`GlobalTransition` and is
    sent into the wrapped scheduler in place of a committed transition
    when its action was suppressed — hence the transition-shaped
    surface: ``node``, ``kind``, empty ``sent_facts``/``output``/
    ``received``, so order-tracking schedulers absorb it unchanged.
    ``dropped`` counts removed buffer occurrences (for crashes, the
    whole cleared buffer).
    """

    kind: str
    node: Node | None = None
    fact: Fact | None = None
    dropped: int = 0
    detail: tuple = ()

    #: Transition-shaped surface for schedulers and trace readers.
    received: tuple = ()
    sent_facts: frozenset = field(default_factory=frozenset)
    output: frozenset = field(default_factory=frozenset)


def execute_fault_action(
    ctx: "RunContext", partition, action: Action
) -> FaultEvent:
    """Execute one fault action against the live run context.

    Called by :func:`~repro.net.run.run_schedule`; edits the working
    configuration ``ctx.config`` in place, bumps the fault counters on
    ``ctx.stats``, and
    returns the :class:`FaultEvent` record (which the driver sends
    back to the wrapper and appends to kept traces).
    """
    stats = ctx.stats
    work = ctx.config
    kind = action.kind
    if kind == "drop":
        removed = work.drop(action.node, action.fact)
        stats.messages_dropped += removed
        return FaultEvent(kind, action.node, action.fact, dropped=removed)
    if kind == "duplicate":
        work.duplicate(action.node, action.fact)
        stats.messages_duplicated += 1
        return FaultEvent(kind, action.node, action.fact)
    if kind == "delay":
        stats.messages_delayed += 1
        return FaultEvent(kind, action.node, action.fact)
    if kind == "crash":
        cleared = work.crash(action.node)
        stats.crashes += 1
        stats.messages_dropped += cleared
        return FaultEvent(kind, action.node, dropped=cleared)
    if kind == "restart":
        retain = bool(action.payload)
        if not retain:
            state = ctx.transducer.make_state(
                partition.fragment(action.node),
                action.node,
                ctx.network.nodes,
            )
            work.set_state(action.node, state)
        stats.restarts += 1
        return FaultEvent(kind, action.node, detail=("retain", retain))
    if kind == "partition":
        stats.partitions += 1
        return FaultEvent(kind, detail=tuple(sorted(action.payload, key=repr)))
    raise ValueError(f"unknown fault action kind {kind!r}")


class _PlanState:
    """Mutable per-run fault bookkeeping (the plan itself is frozen)."""

    __slots__ = (
        "step",
        "crashed",
        "crashes_done",
        "cut",
        "partitions_done",
        "held",
        "suppressed",
    )

    def __init__(self) -> None:
        self.step = 0
        #: node -> step at which it restarts
        self.crashed: dict[Node, int] = {}
        self.crashes_done = 0
        #: frozenset edge -> step at which it heals
        self.cut: dict[frozenset, int] = {}
        self.partitions_done = 0
        #: (node, fact-or-None) -> step until which delivery is held
        self.held: dict[tuple, int] = {}
        #: every (node, fact) whose delivery was ever suppressed —
        #: candidates for the liveness flush when the schedule ends
        self.suppressed: list[tuple] = []


class FaultyScheduler(Scheduler):
    """Wrap any scheduler with a :class:`FaultPlan`.

    The wrapper forwards the inner scheduler's actions to the driver,
    drawing fault decisions from the plan's own RNG stream at three
    interception points: before each action (due restarts, link
    heals, crash/partition rolls, crash- and delay-suppression), and
    after each committed transition (per-link loss, duplication and
    partition drops on the freshly sent copies).  Suppressed actions
    are answered with a synthetic :class:`FaultEvent` so the inner
    generator keeps its own bookkeeping.

    When the inner schedule ends, the wrapper restores liveness —
    restarts still-crashed nodes and delivers once every
    still-buffered fact whose delivery it suppressed — and, if
    anything needed restoring, re-validates a ``True`` inner verdict
    with a driver convergence check (delay alone must never let a run
    claim convergence it would lose to a late delivery).
    """

    def __init__(self, inner: Scheduler, plan: FaultPlan):
        if isinstance(inner, FaultyScheduler):
            raise ValueError("schedulers cannot be double-wrapped with faults")
        self.inner = inner
        self.plan = plan
        self.name = f"faulty({inner.name})"
        self.uses_batching = inner.uses_batching
        self.final_check = inner.final_check
        self.witnesses = inner.witnesses
        self._acts_on_sent = (
            plan.loss > 0.0 or bool(plan.link_loss) or plan.duplication > 0.0
        )
        # The wrapper reads a committed step only to act on the facts it
        # sent: loss, duplication, and drops on a link a partition cut.
        self.reads_steps = (
            inner.reads_steps or self._acts_on_sent or plan.partition_rate > 0.0
        )

    def __repr__(self) -> str:
        return f"FaultyScheduler({self.inner!r}, {self.plan!r})"

    def schedule(self, ctx) -> Schedule:
        plan = self.plan
        rng = random.Random(plan.seed)
        state = _PlanState()
        inner = self.inner.schedule(ctx)
        send_value: object = None
        # Hooks that cannot act are skipped; every draw in them is
        # rate-gated, so skipping never shifts the plan's RNG stream.
        # This keeps a zero-rate plan's wrapper overhead flat.
        rolls_partitions = plan.partition_rate > 0.0
        acts_on_sent = self._acts_on_sent
        while True:
            try:
                action = inner.send(send_value)
            except StopIteration as stop:
                return (yield from self._finale(ctx, state, stop.value))
            if action.kind == "check":
                send_value = yield action
                continue
            state.step += 1
            if state.crashed or state.cut or state.held or rolls_partitions:
                yield from self._housekeeping(ctx, state, rng)
            node = action.node
            if self._roll_crash(state, rng, node):
                yield Action.crash(node)
                state.crashed[node] = state.step + self.plan.restart_after
                send_value = _suppress(state, action)
                continue
            if node in state.crashed:
                send_value = _suppress(state, action)
                continue
            ok, delay_action = self._deliverable(ctx, state, rng, action)
            if not ok:
                if delay_action is not None:
                    yield delay_action
                send_value = _suppress(state, action)
                continue
            transition = yield action
            if (acts_on_sent or state.cut) and transition.sent_facts:
                yield from self._post_commit(ctx, state, rng, transition)
            send_value = transition

    # -- interception points ------------------------------------------

    def _housekeeping(self, ctx, state: _PlanState, rng) -> Schedule:
        """Due restarts, link heals, and the partition roll."""
        plan = self.plan
        for node in sorted(state.crashed, key=repr):
            if state.crashed[node] <= state.step:
                del state.crashed[node]
                yield Action.restart(node, plan.retain_state)
        for edge in sorted(state.cut, key=_edge_key):
            if state.cut[edge] <= state.step:
                del state.cut[edge]
        for key in [k for k, due in state.held.items() if due <= state.step]:
            del state.held[key]
        if (
            plan.partition_rate > 0.0
            and (
                plan.max_partitions is None
                or state.partitions_done < plan.max_partitions
            )
            and rng.random() < plan.partition_rate
        ):
            # Canonical edge key, NOT repr: the repr of a frozenset
            # follows its (hash-seeded) iteration order, which varies
            # per process and would desynchronize the randrange pick —
            # the one thing a replayable fault plan cannot afford.
            candidates = [
                e
                for e in sorted(ctx.network.edges, key=_edge_key)
                if e not in state.cut
            ]
            if candidates:
                edge = candidates[rng.randrange(len(candidates))]
                state.cut[edge] = state.step + plan.heal_after
                state.partitions_done += 1
                yield Action("partition", payload=edge)

    def _roll_crash(self, state: _PlanState, rng, node) -> bool:
        plan = self.plan
        if (
            plan.crash <= 0.0
            or node is None
            or node in state.crashed
            or (
                plan.max_crashes is not None
                and state.crashes_done >= plan.max_crashes
            )
        ):
            return False
        if rng.random() < plan.crash:
            state.crashes_done += 1
            return True
        return False

    def _deliverable(
        self, ctx, state: _PlanState, rng, action
    ) -> tuple[bool, Action | None]:
        """Validate/delay delivery actions; heartbeats always pass.

        Delivery of a fact the fault plane already removed (loss,
        crash, partition) is suppressed — the inner scheduler's model
        may lag the real buffers.  Fresh deliveries roll the delay
        gate: held (node, fact) pairs stay buffered but undeliverable
        until their hold expires, which is bounded reordering.
        Returns ``(deliverable, delay_action)``; the delay action (for
        the driver's counter and trace) accompanies a fresh hold.
        """
        plan = self.plan
        if action.kind == "deliver":
            if action.fact not in ctx.config.buffer(action.node):
                return False, None
            key = (action.node, action.fact)
        elif action.kind == "deliver_batch":
            if not ctx.config.buffer(action.node):
                return False, None
            key = (action.node, None)
        else:
            return True, None
        if key in state.held:
            return False, None
        if plan.delay > 0.0 and rng.random() < plan.delay:
            state.held[key] = state.step + 1 + rng.randrange(plan.max_delay)
            return False, Action("delay", key[0], key[1])
        return True, None

    def _post_commit(self, ctx, state: _PlanState, rng, transition) -> Schedule:
        """Per-link loss, partition drops and duplication on sent copies."""
        plan = self.plan
        sent = sorted(transition.sent_facts)
        source = transition.node
        for neighbor in sorted(ctx.network.neighbors(source), key=repr):
            edge = frozenset((source, neighbor))
            cut = edge in state.cut
            p_loss = plan.loss_for(source, neighbor)
            for f in sent:
                if cut:
                    yield Action.drop(neighbor, f)
                    continue
                if p_loss > 0.0 and rng.random() < p_loss:
                    yield Action.drop(neighbor, f)
                    continue
                if plan.duplication > 0.0 and rng.random() < plan.duplication:
                    yield Action.duplicate(neighbor, f)

    def _finale(self, ctx, state: _PlanState, verdict) -> Schedule:
        """Restore liveness when the inner schedule ends.

        Restart still-crashed nodes and deliver (once) every
        still-buffered fact whose delivery was suppressed — round-based
        schedulers pop their internal queues exactly once, so a
        suppressed delivery would otherwise strand the fact.  If
        anything needed restoring, a ``True`` inner verdict is
        re-validated with a driver check: a passing check ends the run
        converged, a failing one downgrades the verdict (the final
        convergence check still runs for ``final_check`` schedulers).
        """
        flushed = False
        for node in sorted(state.crashed, key=repr):
            del state.crashed[node]
            yield Action.restart(node, self.plan.retain_state)
            flushed = True
        seen = set()
        for node, fact in state.suppressed:
            if (node, fact) in seen:
                continue
            seen.add((node, fact))
            if fact is None:
                if ctx.config.buffer(node):  # a suppressed batch drain
                    yield Action.deliver_batch(node)
                    flushed = True
            elif fact in ctx.config.buffer(node):
                yield Action.deliver(node, fact)
                flushed = True
        if not flushed or verdict is not True:
            return verdict
        ok = yield Action.check()
        # A passing check never reaches here (the driver ends the run);
        # the verdict the inner scheduler formed predates the flush, so
        # delegate to the driver's final check rather than repeat it.
        assert ok is False
        return None


def _suppress(state: _PlanState, action: Action) -> FaultEvent:
    """The synthetic transition-shaped response for a suppressed action."""
    if action.kind in ("deliver", "deliver_batch"):
        state.suppressed.append((action.node, action.fact))
    return FaultEvent("suppress", action.node, action.fact)
