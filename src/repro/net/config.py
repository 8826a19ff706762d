"""Configurations of a transducer network (Section 3).

"A configuration of the system is a pair γ = (state, buf) of mappings
where state maps every node v to a state I of Π, so that I(Id) = {v}
and I(All) = V, and buf maps every node to a finite multiset of facts
over Smsg."
"""

from __future__ import annotations

from collections.abc import Mapping

from ..db.instance import Instance
from ..db.multiset import FactMultiset
from ..core.transducer import Transducer
from .network import Network, Node
from .partition import HorizontalPartition


class Configuration:
    """An immutable configuration: node states plus message buffers."""

    __slots__ = ("states", "buffers", "_hash")

    def __init__(
        self,
        states: Mapping[Node, Instance],
        buffers: Mapping[Node, FactMultiset],
    ):
        if set(states) != set(buffers):
            raise ValueError("states and buffers must cover the same nodes")
        object.__setattr__(self, "states", dict(states))
        object.__setattr__(self, "buffers", dict(buffers))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __reduce__(self):
        # Frozen slots break default pickling; the constructor only
        # copies the two dicts and checks node agreement, so it is the
        # cheap rebuild path (states/buffers pickle via their own
        # __reduce__ hooks).
        return (Configuration, (self.states, self.buffers))

    @property
    def nodes(self) -> frozenset:
        return frozenset(self.states)

    def state(self, node: Node) -> Instance:
        return self.states[node]

    def buffer(self, node: Node) -> FactMultiset:
        return self.buffers[node]

    def buffers_empty(self) -> bool:
        """True when no node has pending messages."""
        return all(not buf for buf in self.buffers.values())

    def distinct_buffer(self, node: Node) -> tuple:
        """The distinct facts buffered at *node*, sorted.

        The view the convergence machinery needs: quiescence only
        depends on *which* facts can still be delivered, not their
        multiplicities.
        """
        return self.buffers[node].distinct()

    def nonempty_buffer_nodes(self) -> list[Node]:
        """Nodes with pending messages, in repr-sorted order (the
        round-based schedulers' delivery worklist)."""
        return sorted(
            (v for v, buf in self.buffers.items() if buf), key=repr
        )

    def total_buffered(self) -> int:
        """Total number of buffered message occurrences."""
        return sum(len(buf) for buf in self.buffers.values())

    def replace(
        self,
        node: Node,
        state: Instance | None = None,
        buffer: FactMultiset | None = None,
    ) -> "Configuration":
        """A copy with *node*'s state and/or buffer replaced."""
        if node not in self.states:
            raise ValueError(f"unknown node {node!r}")
        return self._derive(
            {node: state} if state is not None else None,
            {node: buffer} if buffer is not None else None,
        )

    def replace_buffers(
        self, updates: Mapping[Node, FactMultiset]
    ) -> "Configuration":
        """A copy with several buffers replaced at once."""
        for node in updates:
            if node not in self.buffers:
                raise ValueError(f"unknown node {node!r}")
        return self._derive(None, updates)

    def _derive(
        self,
        state_updates: Mapping[Node, Instance] | None,
        buffer_updates: Mapping[Node, FactMultiset] | None,
    ) -> "Configuration":
        """A copy with some states and buffers replaced; the updated
        nodes must be nodes of this configuration (not checked).

        Each dict is copied once, and only if it changes; the node set
        is not re-checked, since replacing cannot change it.  The dicts
        are never mutated, so an unchanged one is shared.
        """
        states = self.states
        if state_updates:
            states = {**states, **state_updates}
        buffers = self.buffers
        if buffer_updates:
            buffers = {**buffers, **buffer_updates}
        config = object.__new__(Configuration)
        object.__setattr__(config, "states", states)
        object.__setattr__(config, "buffers", buffers)
        object.__setattr__(config, "_hash", None)
        return config

    def states_key(self) -> tuple:
        """A hashable digest of all node states (for cycle detection)."""
        return tuple(
            (repr(node), self.states[node])
            for node in sorted(self.states, key=repr)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.states == other.states and self.buffers == other.buffers

    def __hash__(self) -> int:
        if self._hash is None:
            digest = hash(
                (
                    self.states_key(),
                    tuple(
                        (repr(node), self.buffers[node])
                        for node in sorted(self.buffers, key=repr)
                    ),
                )
            )
            object.__setattr__(self, "_hash", digest)
        return self._hash

    def __repr__(self) -> str:
        pending = self.total_buffered()
        return f"Configuration({len(self.states)} nodes, {pending} buffered)"


def initial_configuration(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
) -> Configuration:
    """The initial configuration for a horizontal partition (Section 4).

    Every node starts with an empty buffer, empty memory, its fragment
    of the input, ``Id = {v}`` and ``All = V``.
    """
    if partition.nodes != network.nodes:
        raise ValueError("partition nodes do not match network nodes")
    states = {
        v: transducer.make_state(partition.fragment(v), v, network.nodes)
        for v in network.nodes
    }
    buffers = {v: FactMultiset.empty() for v in network.nodes}
    return Configuration(states, buffers)
