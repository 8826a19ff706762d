"""Global transitions of a transducer network (Section 3).

A general transition: node v reads and removes a message instance Ircv
from its buffer, makes a local transition, and the resulting Jsnd is
added (multiset union) to the buffers of v's neighbours.  The paper
then restricts runs to two special forms — *heartbeat* (Ircv = ∅) and
*delivery* (Ircv = one fact) — and so does the runtime; the general
form is exposed for tests that verify the restriction really is one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.multiset import FactMultiset
from ..core.transducer import LocalTransition, Transducer
from .config import Configuration
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


def general_transition(
    network: Network,
    transducer: Transducer,
    config: Configuration,
    node: Node,
    received: tuple[Fact, ...],
) -> GlobalTransition:
    """Perform a general transition at *node* reading the given facts.

    *received* must be multiset-contained in the node's buffer.  A
    heartbeat and a single-fact delivery go through the transducer's
    cached received instances (:meth:`Transducer.heartbeat`,
    :meth:`Transducer.deliver`); only several facts build a fresh one.
    """
    if node not in network:
        raise ValueError(f"unknown node {node!r}")
    buffer = config.buffer(node)
    state = config.state(node)
    if not received:
        local = transducer.heartbeat(state)
        rest = buffer
    elif len(received) == 1:
        fact = received[0]
        if fact not in buffer:
            raise ValueError(f"received fact {fact!r} not present in buffer of {node!r}")
        local = transducer.deliver(state, fact)
        rest = buffer.remove(fact)
    else:
        taken = FactMultiset(received)
        if not buffer.contains_multiset(taken):
            raise ValueError(
                f"received facts {received!r} not all present in buffer of {node!r}"
            )
        local = transducer.transition(
            state, Instance(transducer.schema.messages, set(received))
        )
        rest = buffer.difference(taken)

    buffer_updates: dict[Node, FactMultiset] = {node: rest}
    sent = local.sent.facts()
    if sent:
        for neighbor in network.neighbors(node):
            base = buffer_updates.get(neighbor, config.buffer(neighbor))
            buffer_updates[neighbor] = base.union(sent)
    after = config.replace(node, state=local.new_state).replace_buffers(
        buffer_updates
    )
    return GlobalTransition(
        before=config,
        node=node,
        received=tuple(received),
        local=local,
        after=after,
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
