"""Facts: the atoms a database instance is made of.

Section 2: "a fact is an expression of the form R(a1, ..., ak) with
a1, ..., ak in dom and R in S of arity k".

A :class:`Fact` is an immutable pair of relation name and value tuple.
Facts are hashable, totally ordered (for deterministic iteration), and
cheap — the whole runtime shuffles large numbers of them around.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from .values import Permutation, Value, is_atomic


class Fact:
    """An immutable fact ``R(a1, ..., ak)``."""

    # _key (the sort key) is filled on first use and never pickled.
    __slots__ = ("relation", "values", "_hash", "_key")

    relation: str
    values: tuple

    def __init__(self, relation: str, values: Iterable[Value] = ()):
        if not isinstance(relation, str) or not relation:
            raise ValueError(f"relation name must be a non-empty string: {relation!r}")
        values = tuple(values)
        for value in values:
            if not is_atomic(value):
                raise ValueError(f"non-atomic value in fact: {value!r}")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((relation, values)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Fact is immutable")

    def __reduce__(self):
        # The slots-and-frozen layout breaks default pickling (unpickling
        # would go through the raising __setattr__); rebuild through the
        # constructor, which re-derives the cached hash.
        return (Fact, (self.relation, self.values))

    @classmethod
    def _validated(cls, relation: str, values: tuple) -> "Fact":
        """A fact over a relation name and value tuple already checked
        (an instance's rows are validated when the instance is built)."""
        f = object.__new__(cls)
        object.__setattr__(f, "relation", relation)
        object.__setattr__(f, "values", values)
        object.__setattr__(f, "_hash", hash((relation, values)))
        return f

    @property
    def arity(self) -> int:
        """Number of values in the fact."""
        return len(self.values)

    def rename(self, relation: str) -> "Fact":
        """The same tuple under a different relation name."""
        return Fact(relation, self.values)

    def apply(self, h: Permutation) -> "Fact":
        """Apply a dom-permutation componentwise: ``h(R(a..)) = R(h(a)..)``."""
        return Fact(self.relation, h.apply_tuple(self.values))

    def project(self, positions: Iterable[int]) -> tuple:
        """The sub-tuple at the given 0-based positions."""
        return tuple(self.values[i] for i in positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.relation == other.relation and self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def _sort_key(self) -> tuple:
        # Values may mix types (ints, strings); compare on (typename, repr)
        # to get a deterministic, if arbitrary, total order.  Buffers and
        # convergence checks sort the same facts over and over, so the
        # key is built once per fact.
        try:
            return self._key
        except AttributeError:
            key = (
                self.relation,
                len(self.values),
                tuple((type(v).__name__, repr(v)) for v in self.values),
            )
            object.__setattr__(self, "_key", key)
            return key

    def __lt__(self, other: "Fact") -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"


def fact(relation: str, *values: Value) -> Fact:
    """Convenience constructor: ``fact("S", 1, 2)`` is ``S(1, 2)``."""
    return Fact(relation, values)


def facts(relation: str, tuples: Iterable[Iterable[Value]]) -> frozenset[Fact]:
    """Build a set of facts over one relation from raw tuples."""
    return frozenset(Fact(relation, tuple(t)) for t in tuples)
