"""Configurations of a transducer network (Section 3).

"A configuration of the system is a pair γ = (state, buf) of mappings
where state maps every node v to a state I of Π, so that I(Id) = {v}
and I(All) = V, and buf maps every node to a finite multiset of facts
over Smsg."

A :class:`Configuration` is the immutable value: hashable, picklable,
what a run result and a kept trace hold.  A run steps one
:class:`WorkingConfiguration` in place instead, and takes a
:meth:`~WorkingConfiguration.snapshot` only where one is observed.
Both offer the read side schedulers and the convergence checks use:
``states``, ``state``, ``buffer`` (``in``, ``bool``, ``len``,
``count``, ``distinct``), ``distinct_buffer``, ``distinct_set``,
``buffers_empty``, ``nonempty_buffer_nodes``, ``states_key``,
``total_buffered`` and ``version``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import _count_elements
from collections.abc import Iterable, Iterator, Mapping

from ..db.fact import Fact
from ..db.instance import Instance
from ..db.multiset import FactMultiset, _from_counts
from ..core.transducer import Transducer
from .network import Network, Node
from .partition import HorizontalPartition


def _states_key(states: Mapping[Node, Instance]) -> tuple:
    return tuple((repr(node), states[node]) for node in sorted(states, key=repr))


class Configuration:
    """An immutable configuration: node states plus message buffers."""

    __slots__ = ("states", "buffers", "_hash")

    #: An immutable configuration never changes, so its version does
    #: not either (see :attr:`WorkingConfiguration.version`).
    version = 0

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

    def distinct_set(self, node: Node) -> frozenset:
        """The distinct facts buffered at *node*, as a frozenset."""
        return self.buffers[node].distinct_set()

    def nonempty_buffer_nodes(self) -> list[Node]:
        """Nodes with pending messages, in repr-sorted order (the
        round-based schedulers' delivery worklist)."""
        return sorted(
            (v for v, buf in self.buffers.items() if buf), key=repr
        )

    def total_buffered(self) -> int:
        """Total number of buffered message occurrences."""
        return sum(len(buf) for buf in self.buffers.values())

    def states_key(self) -> tuple:
        """A hashable digest of all node states (for cycle detection)."""
        return _states_key(self.states)

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


def _configuration(states: dict, buffers: dict) -> Configuration:
    """A configuration over two dicts nobody mutates, shared as they
    are: the node sets agree by construction."""
    config = object.__new__(Configuration)
    object.__setattr__(config, "states", states)
    object.__setattr__(config, "buffers", buffers)
    object.__setattr__(config, "_hash", None)
    return config


class BufferView:
    """A read-only live view of one node's buffer in a
    :class:`WorkingConfiguration`: the part of the
    :class:`~repro.db.multiset.FactMultiset` interface the schedulers
    and the convergence checks read.

    It holds the node's count dict and the configuration's dict of
    sorted views, not the configuration itself, so a run leaves no
    reference cycle for the cyclic collector to free.
    """

    __slots__ = ("_node", "_counts", "_sorted")

    def __init__(self, node: Node, counts: dict, sorted_views: dict):
        self._node = node
        self._counts = counts
        self._sorted = sorted_views

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, f: Fact) -> bool:
        # Counts are never zero: a fact's last removal deletes it.
        return f in self._counts

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __iter__(self) -> Iterator[Fact]:
        """Iterate occurrences (duplicates repeated), in sorted order."""
        counts = self._counts
        for f in self.distinct():
            for _ in range(counts[f]):
                yield f

    def count(self, f: Fact) -> int:
        return self._counts.get(f, 0)

    def distinct(self) -> tuple[Fact, ...]:
        """The distinct facts, sorted (cached until they change)."""
        facts = self._sorted[self._node]
        if facts is None:
            facts = self._sorted[self._node] = tuple(
                sorted(self._counts, key=Fact._sort_key)
            )
        return facts


class WorkingConfiguration:
    """A run's configuration, edited in place.

    A global transition at v changes only v's state and v's buffer,
    and only *adds* the sent facts to the buffers of v's neighbours
    (Section 3), so a run keeps one mutable configuration instead of
    deriving a frozen one per step.  Each buffer is a ``fact → count``
    dict with no zero counts.  Each node's sorted distinct facts and
    their frozenset are cached until the node's *set* of distinct facts
    changes; removing a fact's last occurrence cuts it out of the
    sorted view (found by its sort key) instead of sorting again.  A
    running total makes ``buffers_empty`` O(1).

    ``version`` counts the edits and the steps (a step counts even when
    it leaves the configuration equal), so a reader can tell "nothing
    happened since I looked" without comparing configurations.

    :meth:`snapshot` freezes the configuration.  It shares with the
    previous snapshot the states dict when no state changed, the
    buffers dict when no buffer changed, and the :class:`FactMultiset`
    of every node whose buffer did not change, so a trace of snapshots
    pickles what a step left unchanged once.
    """

    __slots__ = (
        "states",
        "version",
        "_counts",
        "_views",
        "_sorted",
        "_sets",
        "_multisets",
        "_total",
        "_last",
        "_last_version",
        "_states_dirty",
        "_buffers_dirty",
    )

    def __init__(self, config: Configuration):
        buffers = config.buffers
        self.states = dict(config.states)
        self.version = 0
        self._counts = {v: dict(buf._counts) for v, buf in buffers.items()}
        self._sorted = {v: buf._sorted for v, buf in buffers.items()}
        self._sets = {v: buf._distinct for v, buf in buffers.items()}
        #: node -> its buffer as a FactMultiset, None once it changed
        self._multisets = dict(buffers)
        self._views = {v: BufferView(v, self._counts[v], self._sorted) for v in buffers}
        self._total = sum(len(buf) for buf in buffers.values())
        self._last = config
        self._last_version = 0
        self._states_dirty = False
        self._buffers_dirty = False

    # -- the read side -------------------------------------------------------

    def state(self, node: Node) -> Instance:
        return self.states[node]

    def buffer(self, node: Node) -> BufferView:
        return self._views[node]

    def buffers_empty(self) -> bool:
        return not self._total

    def total_buffered(self) -> int:
        return self._total

    def distinct_buffer(self, node: Node) -> tuple:
        """The distinct facts buffered at *node*, sorted (cached)."""
        return self._views[node].distinct()

    def distinct_set(self, node: Node) -> frozenset:
        """The distinct facts buffered at *node*, as a cached frozenset:
        the convergence tracker keys its node summaries on it."""
        facts = self._sets[node]
        if facts is None:
            facts = self._sets[node] = frozenset(self._counts[node])
        return facts

    def nonempty_buffer_nodes(self) -> list[Node]:
        return sorted((v for v, counts in self._counts.items() if counts), key=repr)

    def states_key(self) -> tuple:
        return _states_key(self.states)

    def snapshot(self) -> Configuration:
        """The current configuration, frozen (cached until the next edit)."""
        last = self._last
        if self._last_version == self.version:
            return last
        states = dict(self.states) if self._states_dirty else last.states
        buffers = last.buffers
        if self._buffers_dirty:
            multisets = self._multisets
            buffers = {}
            for v, counts in self._counts.items():
                multiset = multisets[v]
                if multiset is None:
                    multiset = multisets[v] = _from_counts(
                        dict(counts), self._sets[v], self._sorted[v]
                    )
                buffers[v] = multiset
        self._last = last = _configuration(states, buffers)
        self._last_version = self.version
        self._states_dirty = self._buffers_dirty = False
        return last

    def __repr__(self) -> str:
        return (
            f"WorkingConfiguration({len(self.states)} nodes, "
            f"{self._total} buffered)"
        )

    # -- in-place edits ------------------------------------------------------

    def set_state(self, node: Node, state: Instance) -> None:
        """Replace *node*'s state (a step's new state, a restart)."""
        if node not in self.states:
            raise ValueError(f"unknown node {node!r}")
        self.states[node] = state
        self._states_dirty = True
        self.version += 1

    def deliver(self, node: Node, fact: Fact) -> None:
        """Take one occurrence of *fact* out of *node*'s buffer."""
        counts = self._counts[node]
        left = counts.get(fact, 0) - 1
        if left > 0:
            counts[fact] = left
        elif left:
            raise ValueError(f"received fact {fact!r} not present in buffer of {node!r}")
        else:
            del counts[fact]
            self._sets[node] = None
            kept = self._sorted[node]
            if kept is not None:
                # The sorted view without the fact: find it by its sort key.
                i = kept.index(fact, bisect_left(kept, fact._sort_key(), key=Fact._sort_key))
                self._sorted[node] = kept[:i] + kept[i + 1:]
        self._multisets[node] = None
        self._total -= 1
        self._buffers_dirty = True
        self.version += 1

    def send(self, nodes: Iterable[Node], facts: frozenset[Fact]) -> None:
        """Add one occurrence of each of *facts* to each of *nodes*' buffers."""
        for v in nodes:
            counts = self._counts[v]
            distinct = len(counts)
            # Counter.update's C loop: counts[f] = counts.get(f, 0) + 1.
            _count_elements(counts, facts)
            if len(counts) != distinct:
                self._sorted[v] = self._sets[v] = None
            self._multisets[v] = None
            self._total += len(facts)
        self._buffers_dirty = True
        self.version += 1

    def drop(self, node: Node, fact: Fact) -> int:
        """Remove one occurrence of *fact* if buffered; the count removed."""
        if fact not in self._counts[node]:
            return 0
        self.deliver(node, fact)
        return 1

    def duplicate(self, node: Node, fact: Fact) -> None:
        """Add one extra occurrence of *fact* to *node*'s buffer."""
        self.send((node,), frozenset((fact,)))

    def crash(self, node: Node) -> int:
        """Clear *node*'s buffer; the number of occurrences cleared."""
        counts = self._counts[node]
        cleared = sum(counts.values())
        counts.clear()
        self._sorted[node] = ()
        self._sets[node] = frozenset()
        self._multisets[node] = FactMultiset.empty()
        self._total -= cleared
        self._buffers_dirty = True
        self.version += 1
        return cleared


def initial_configuration(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
) -> Configuration:
    """The initial configuration for a horizontal partition (Section 4).

    Every node starts with an empty buffer, empty memory, its fragment
    of the input, ``Id = {v}`` and ``All = V``.
    """
    nodes = network.nodes
    if partition.nodes != nodes:
        raise ValueError("partition nodes do not match network nodes")
    make_state = transducer.make_state
    states = {v: make_state(partition.fragment(v), v, nodes) for v in nodes}
    return _configuration(states, dict.fromkeys(nodes, FactMultiset.empty()))
