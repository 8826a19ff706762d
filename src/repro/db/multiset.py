"""Multisets of facts — the message buffers of Section 3.

The paper is explicit that message buffers are *multisets*: "buf maps
every node to a finite multiset of facts over Smsg", delivery removes one
occurrence ("multiset difference"), and sending is "multiset union".

:class:`FactMultiset` is immutable, like :class:`~repro.db.instance.Instance`,
so configurations can share buffers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

from .fact import Fact


class FactMultiset:
    """An immutable finite multiset of facts.

    Stored as a plain ``fact → count`` dict with no zero counts: copying
    one is a single C-level call, which matters because every step of a
    run derives new buffers from old ones.
    """

    __slots__ = ("_counts", "_hash", "_distinct", "_sorted")

    def __init__(self, facts: Iterable[Fact] = ()):
        counts: dict[Fact, int] = {}
        for f in facts:
            if not isinstance(f, Fact):
                raise TypeError(f"multiset elements must be Facts, got {f!r}")
            counts[f] = counts.get(f, 0) + 1
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_distinct", None)
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, name, value):
        raise AttributeError("FactMultiset is immutable")

    def __reduce__(self):
        # Default pickling would try setattr on the frozen slots; rebuild
        # from (fact, count) pairs without replaying per-occurrence adds.
        return (_unpickle_multiset, (tuple(self._counts.items()),))

    @classmethod
    def empty(cls) -> "FactMultiset":
        """The empty multiset."""
        return _EMPTY

    # -- queries ---------------------------------------------------------------

    def count(self, f: Fact) -> int:
        """Multiplicity of *f*."""
        return self._counts.get(f, 0)

    def __contains__(self, f: Fact) -> bool:
        return self._counts.get(f, 0) > 0

    def __len__(self) -> int:
        """Total number of occurrences."""
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __iter__(self) -> Iterator[Fact]:
        """Iterate occurrences (duplicates repeated), in sorted order."""
        for f in self.distinct():
            for _ in range(self._counts[f]):
                yield f

    def distinct(self) -> tuple[Fact, ...]:
        """The distinct facts present, sorted (computed once, cached).

        The scheduler asks for it on every delivery, and buffers are
        shared between configurations; sorting by the precomputed key
        gives the ``Fact.__lt__`` order without building two keys per
        comparison.
        """
        if self._sorted is None:
            object.__setattr__(
                self, "_sorted", tuple(sorted(self._counts, key=Fact._sort_key))
            )
        return self._sorted

    def distinct_set(self) -> frozenset[Fact]:
        """The distinct facts as a cached frozenset.

        Buffers are shared between configurations (immutability), so
        the incremental convergence tracker — which keys node summaries
        on buffered-fact sets — amortizes this frozenset (and its
        hash) across every check that sees the buffer unchanged.
        """
        if self._distinct is None:
            object.__setattr__(self, "_distinct", frozenset(self._counts))
        return self._distinct

    def contains_multiset(self, other: "FactMultiset") -> bool:
        """Multiset containment: every fact of *other* with ≥ multiplicity."""
        return all(self.count(f) >= n for f, n in other._counts.items())

    # -- algebra -----------------------------------------------------------------

    def add(self, f: Fact, times: int = 1) -> "FactMultiset":
        """Self with *times* extra occurrences of *f*."""
        if times < 0:
            raise ValueError("cannot add a negative number of occurrences")
        if not times:
            return self
        new = dict(self._counts)
        new[f] = new.get(f, 0) + times
        if len(new) == len(self._counts):  # f was present
            return _from_counts(new, self._distinct, self._sorted)
        return _from_counts(new)

    def union(self, other: "FactMultiset | Iterable[Fact]") -> "FactMultiset":
        """Multiset union (multiplicities add), as in message sending."""
        new = dict(self._counts)
        if isinstance(other, FactMultiset):
            for f, n in other._counts.items():
                new[f] = new.get(f, 0) + n
        else:
            for f in other:
                if not isinstance(f, Fact):
                    raise TypeError(f"multiset elements must be Facts, got {f!r}")
                new[f] = new.get(f, 0) + 1
        if len(new) == len(self._counts):  # no new distinct fact
            return _from_counts(new, self._distinct, self._sorted)
        return _from_counts(new)

    def remove(self, f: Fact, times: int = 1) -> "FactMultiset":
        """Self with *times* occurrences of *f* removed (must exist)."""
        if self._counts.get(f, 0) < times:
            raise KeyError(f"cannot remove {times} x {f!r}: only {self.count(f)} present")
        new = dict(self._counts)
        left = new.get(f, 0) - times
        if left:
            new[f] = left
            return _from_counts(new, self._distinct, self._sorted)
        new.pop(f, None)
        kept = self._sorted
        if kept is not None and f in self._counts:
            # The sorted view without f: find it by its sort key.
            i = kept.index(f, bisect_left(kept, f._sort_key(), key=Fact._sort_key))
            kept = kept[:i] + kept[i + 1:]
        return _from_counts(new, None, kept)

    def difference(self, other: "FactMultiset") -> "FactMultiset":
        """Multiset difference (multiplicities subtract, floored at 0)."""
        new = dict(self._counts)
        for f, n in other._counts.items():
            left = new.get(f, 0) - n
            if left > 0:
                new[f] = left
            else:
                new.pop(f, None)
        return _from_counts(new)

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._counts.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self._counts:
            return "FactMultiset(∅)"
        inner = ", ".join(
            f"{f!r}x{n}" if n > 1 else repr(f) for f, n in sorted(self._counts.items())
        )
        return f"FactMultiset({{{inner}}})"


def _unpickle_multiset(items: tuple) -> FactMultiset:
    return _from_counts(dict(items))


def _from_counts(
    counts: dict[Fact, int],
    distinct: frozenset | None = None,
    sorted_facts: tuple | None = None,
) -> FactMultiset:
    """A multiset over *counts*, inheriting the cached distinct views of
    a multiset with the same distinct facts when they are given: most
    sends and deliveries leave a buffer's distinct facts as they were."""
    ms = FactMultiset.__new__(FactMultiset)
    object.__setattr__(ms, "_counts", counts)
    object.__setattr__(ms, "_hash", None)
    object.__setattr__(ms, "_distinct", distinct)
    object.__setattr__(ms, "_sorted", sorted_facts)
    return ms


_EMPTY = FactMultiset()
