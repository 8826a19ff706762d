"""Horizontal partitions of an input instance over a network (Section 4).

"For any instance I of Sin, a horizontal partition of I on the network
N is a function H that maps every node v to a subset of I, such that
I = ∪_v H(v)."

Note a horizontal partition is *not* a partition in the set-theoretic
sense: fragments may overlap (full replication is a horizontal
partition).  This module provides the named special partitions the
paper's proofs use, exhaustive enumeration for small cases, and seeded
random sampling.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Mapping

from ..db.fact import Fact
from ..db.instance import Instance
from .network import Network, Node


class HorizontalPartition:
    """A mapping from nodes to sub-instances whose union is the instance.

    The constructor proves that every fragment is a subset of the
    instance and that the fragments cover it, which costs O(|I| · n).
    The builders below place I's own facts, so their partitions hold
    by construction and skip the proof (as unpickling does).
    """

    __slots__ = ("instance", "_fragments", "_digest")

    def __init__(self, instance: Instance, fragments: Mapping[Node, Instance]):
        union: set[Fact] = set()
        for node, fragment in fragments.items():
            if not fragment.issubset(instance):
                raise ValueError(f"fragment at {node!r} is not a subset of I")
            union |= fragment.facts()
        if union != instance.facts():
            missing = instance.facts() - union
            raise ValueError(f"fragments do not cover I; missing {sorted(missing)}")
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "_fragments", dict(fragments))
        # Canonical placement digest, computed lazily by
        # repro.net.runcache.partition_digest.
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name, value):
        raise AttributeError("HorizontalPartition is immutable")

    def __reduce__(self):
        # Frozen slots break default pickling, and the constructor's
        # coverage check is O(|I| · nodes); the fragments were validated
        # when first built, so rebuild the object directly.
        return (_unpickle_partition, (self.instance, self._fragments))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HorizontalPartition):
            return NotImplemented
        return (
            self.instance == other.instance
            and self._fragments == other._fragments
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.instance,
                frozenset(
                    (repr(node), fragment)
                    for node, fragment in self._fragments.items()
                ),
            )
        )

    def fragment(self, node: Node) -> Instance:
        """``H(v)`` — the sub-instance placed at *node*."""
        return self._fragments[node]

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._fragments)

    def describe(self) -> str:
        """A short human-readable summary used in experiment reports."""
        parts = []
        for node in sorted(self._fragments, key=repr):
            parts.append(f"{node}:{len(self._fragments[node])}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"HorizontalPartition({self.describe()})"


def _unpickle_partition(
    instance: Instance, fragments: dict
) -> HorizontalPartition:
    """A partition over fragments already known to cover *instance*."""
    partition = object.__new__(HorizontalPartition)
    object.__setattr__(partition, "instance", instance)
    object.__setattr__(partition, "_fragments", fragments)
    object.__setattr__(partition, "_digest", None)
    return partition


def _placed(instance: Instance, buckets: dict[Node, set[Fact]]) -> HorizontalPartition:
    """The partition placing each bucket of *instance*'s facts at its node.

    The fragments are grouped as ``Instance(schema, bucket)`` groups
    them, in the bucket's order, without checking facts that already
    belong to the instance.
    """
    fragments = {}
    for v, bucket in buckets.items():
        rels: dict[str, set] = {}
        for f in bucket:
            rels.setdefault(f.relation, set()).add(f.values)
        fragments[v] = Instance._build(
            instance.schema, {name: frozenset(rows) for name, rows in rels.items()}
        )
    return _unpickle_partition(instance, fragments)


def full_replication(instance: Instance, network: Network) -> HorizontalPartition:
    """Every node holds the entire instance (Prop. 11's witness partition)."""
    return _unpickle_partition(instance, {v: instance for v in network.nodes})


def all_at_one(
    instance: Instance, network: Network, node: Node | None = None
) -> HorizontalPartition:
    """The whole instance at one node, nothing elsewhere."""
    if node is None:
        node = network.sorted_nodes()[0]
    elif node not in network.nodes:
        raise ValueError(f"node {node!r} is not in the network")
    empty = Instance.empty(instance.schema)
    return _unpickle_partition(
        instance,
        {v: (instance if v == node else empty) for v in network.nodes},
    )


def round_robin(instance: Instance, network: Network) -> HorizontalPartition:
    """Disjoint fragments: the i-th fact (sorted) goes to node i mod n."""
    nodes = network.sorted_nodes()
    buckets: dict[Node, set[Fact]] = {v: set() for v in nodes}
    for i, f in enumerate(sorted(instance.facts())):
        buckets[nodes[i % len(nodes)]].add(f)
    return _placed(instance, buckets)


def random_partition(
    instance: Instance,
    network: Network,
    seed: int,
    replication: float = 0.0,
) -> HorizontalPartition:
    """Each fact goes to one random node, plus extra copies with prob. *replication*."""
    rng = random.Random(seed)
    nodes = network.sorted_nodes()
    buckets: dict[Node, set[Fact]] = {v: set() for v in nodes}
    for f in sorted(instance.facts()):
        home = rng.choice(nodes)
        buckets[home].add(f)
        for v in nodes:
            if v != home and rng.random() < replication:
                buckets[v].add(f)
    return _placed(instance, buckets)


def enumerate_partitions(
    instance: Instance, network: Network, max_count: int | None = None
) -> Iterator[HorizontalPartition]:
    """All horizontal partitions of *instance* on *network*.

    Each fact may go to any nonempty subset of nodes, so there are
    ``(2^n - 1)^|I|`` partitions — exhaustive only for tiny cases (the
    E11 bench uses it with ≤ 2 facts on ≤ 3 nodes).  *max_count* caps
    the enumeration.
    """
    nodes = network.sorted_nodes()
    subsets = [
        combo
        for size in range(1, len(nodes) + 1)
        for combo in itertools.combinations(nodes, size)
    ]
    instance_facts = sorted(instance.facts())
    count = 0
    for assignment in itertools.product(subsets, repeat=len(instance_facts)):
        buckets: dict[Node, set[Fact]] = {v: set() for v in nodes}
        for f, owners in zip(instance_facts, assignment):
            for v in owners:
                buckets[v].add(f)
        yield _placed(instance, buckets)
        count += 1
        if max_count is not None and count >= max_count:
            return


def sample_partitions(
    instance: Instance,
    network: Network,
    count: int,
    seed: int = 0,
) -> list[HorizontalPartition]:
    """A reproducible diverse sample of *count* partitions: the named
    specials (full replication, all at one node, round robin) first,
    then seeded random ones.  Only the partitions returned are built.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    named = (full_replication, all_at_one, round_robin)
    out = [build(instance, network) for build in named[:count]]
    for i in range(count - len(named)):
        replication = [0.0, 0.3, 0.7][i % 3]
        out.append(random_partition(instance, network, seed + i, replication))
    return out
