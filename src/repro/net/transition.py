"""Global transitions of a transducer network (Section 3).

A general transition: node v reads and removes a message instance Ircv
from its buffer, makes a local transition, and the resulting Jsnd is
added (multiset union) to the buffers of v's neighbours.  The paper
then restricts runs to two special forms — *heartbeat* (Ircv = ∅) and
*delivery* (Ircv = one fact) — and so does the runtime; the general
form is exposed for tests that verify the restriction really is one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..db.fact import Fact
from ..db.instance import Instance
from ..core.transducer import LocalTransition, Transducer
from .config import Configuration, WorkingConfiguration
from .network import Network, Node


@dataclass(frozen=True)
class GlobalTransition:
    """A record of one global step ``γ1 --Jout-->(v, Ircv) γ2``."""

    before: Configuration
    node: Node
    received: tuple[Fact, ...]
    local: LocalTransition
    after: Configuration

    @property
    def output(self) -> frozenset:
        """``out(τ)`` — the output of the transition."""
        return self.local.output

    @property
    def sent_facts(self) -> frozenset[Fact]:
        return self.local.sent.facts()

    @property
    def kind(self) -> str:
        """'heartbeat' or 'delivery' (or 'general')."""
        if not self.received:
            return "heartbeat"
        if len(self.received) == 1:
            return "delivery"
        return "general"


class Step:
    """What the run driver sends a scheduler back for a committed step,
    when the scheduler ``reads_steps``: the acting node, the step's kind
    (as :attr:`GlobalTransition.kind`), the facts it sent and its
    output."""

    __slots__ = ("node", "kind", "sent_facts", "output")

    def __init__(self, node: Node, kind: str, sent_facts: frozenset, output: frozenset):
        self.node = node
        self.kind = kind
        self.sent_facts = sent_facts
        self.output = output

    def __repr__(self) -> str:
        return f"Step({self.node!r}, {self.kind!r}, |sent|={len(self.sent_facts)})"


def apply_step(
    work: WorkingConfiguration,
    network: Network,
    transducer: Transducer,
    node: Node,
    received: tuple[Fact, ...],
) -> LocalTransition:
    """Perform a general transition at *node* on *work*, in place.

    *received* must be multiset-contained in the node's buffer; a
    missing fact raises ``ValueError`` before the transition is
    evaluated.  A heartbeat and a single-fact delivery go through the
    transducer's cached received instances (:meth:`Transducer.heartbeat`,
    :meth:`Transducer.deliver`); only several facts build a fresh one.
    The step takes the received facts out of the node's buffer, adds
    the sent facts to its neighbours' buffers, and replaces the node's
    state only when the transition changed it.
    """
    state = work.states.get(node)
    if state is None:
        raise ValueError(f"unknown node {node!r}")
    if not received:
        local = transducer.heartbeat(state)
    elif len(received) == 1:
        fact = received[0]
        work.deliver(node, fact)
        local = transducer.deliver(state, fact)
    else:
        buffer = work.buffer(node)
        if any(buffer.count(f) < n for f, n in Counter(received).items()):
            raise ValueError(
                f"received facts {received!r} not all present in buffer of {node!r}"
            )
        local = transducer.transition(
            state, Instance(transducer.schema.messages, set(received))
        )
        for f in received:
            work.deliver(node, f)
    sent = local.sent.facts()
    if sent:
        work.send(network.neighbors(node), sent)
    if local.new_state is not state:
        work.set_state(node, local.new_state)
    # A step is an event of the run even when it changes nothing.
    work.version += 1
    return local


def general_transition(
    network: Network,
    transducer: Transducer,
    config: Configuration,
    node: Node,
    received: tuple[Fact, ...],
) -> GlobalTransition:
    """Perform a general transition at *node* reading the given facts.

    The step of :func:`apply_step` on a working copy of *config*: the
    result's ``after`` shares with *config* what the step left unchanged.
    """
    received = tuple(received)
    work = WorkingConfiguration(config)
    local = apply_step(work, network, transducer, node, received)
    return GlobalTransition(
        before=config,
        node=node,
        received=received,
        local=local,
        after=work.snapshot(),
    )


def heartbeat(
    network: Network,
    transducer: Transducer,
    config: Configuration,
    node: Node,
) -> GlobalTransition:
    """A heartbeat transition: v transitions without reading any message."""
    return general_transition(network, transducer, config, node, ())


def deliver(
    network: Network,
    transducer: Transducer,
    config: Configuration,
    node: Node,
    fact: Fact,
) -> GlobalTransition:
    """A delivery transition: v reads the single fact *fact* from its buffer."""
    return general_transition(network, transducer, config, node, (fact,))


def deliver_batch(
    network: Network,
    transducer: Transducer,
    config: Configuration,
    node: Node,
) -> GlobalTransition:
    """A batched delivery: v reads and drains its *entire* buffer at once.

    This is the opt-in fast path of the batched-delivery mode — one
    general transition instead of one per buffered occurrence.  Callers
    must gate it on :func:`repro.net.scheduler.require_batchable`
    (oblivious + monotone + inflationary), which is what makes the
    coalescing output-equivalent to one-fact-at-a-time delivery.
    """
    buffer = config.buffer(node)
    if not buffer:
        raise ValueError(f"cannot batch-deliver from empty buffer of {node!r}")
    return general_transition(network, transducer, config, node, tuple(buffer))
