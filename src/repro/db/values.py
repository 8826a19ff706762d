"""Atomic data elements: the universe ``dom``.

The paper assumes an infinite universe ``dom`` of atomic data elements
(Section 2).  We model elements of ``dom`` as arbitrary hashable Python
values; in practice strings and integers.  Nothing in the semantics may
depend on any *structure* of the values (queries must be generic), so this
module deliberately exposes only identity-level helpers:

* :func:`is_atomic` — what counts as a member of ``dom``;
* :class:`Permutation` — finite-support permutations of ``dom``, used to
  state and test genericity of queries (``Q(h(I)) = h(Q(I))``);
* :func:`fresh_values` — a supply of values guaranteed distinct from a
  given active domain (used by tests and by network-node naming).

Node identifiers of a network are members of ``dom`` too (Section 3:
"nodes belong to the universe dom"), which is why relations may store
them (e.g. the ``All`` relation).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import TypeAlias

#: The Python-level type of a member of ``dom``.
Value: TypeAlias = Hashable

#: A tuple of dom elements, i.e. a candidate member of a k-ary relation.
ValueTuple: TypeAlias = tuple


def is_atomic(value: object) -> bool:
    """Return ``True`` when *value* is usable as an element of ``dom``.

    We require hashability (facts live in sets) and we reject tuples,
    which would blur the line between an element and a fact payload.
    """
    if isinstance(value, tuple):
        return False
    try:
        hash(value)
    except TypeError:
        return False
    return True


class Permutation:
    """A permutation of ``dom`` with finite support.

    ``dom`` is infinite so we can only represent permutations that move
    finitely many elements: the mapping is given explicitly on its
    support and is the identity elsewhere.  Used to state genericity:
    a query ``Q`` must satisfy ``Q(h(I)) = h(Q(I))`` for every
    permutation ``h`` (Section 2).
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Value, Value]):
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("permutation mapping must be injective")
        if set(values) != set(mapping.keys()):
            raise ValueError(
                "mapping must permute its own support (same key and value sets)"
            )
        self._map: dict[Value, Value] = dict(mapping)

    @classmethod
    def swap(cls, a: Value, b: Value) -> "Permutation":
        """The transposition exchanging *a* and *b*."""
        if a == b:
            return cls({})
        return cls({a: b, b: a})

    @classmethod
    def cycle(cls, elements: list[Value]) -> "Permutation":
        """The cyclic permutation sending each element to the next one."""
        if len(set(elements)) != len(elements):
            raise ValueError("cycle elements must be distinct")
        if len(elements) < 2:
            return cls({})
        mapping = {
            elements[i]: elements[(i + 1) % len(elements)]
            for i in range(len(elements))
        }
        return cls(mapping)

    @property
    def support(self) -> frozenset:
        """The set of elements actually moved by this permutation."""
        return frozenset(k for k, v in self._map.items() if k != v)

    def __call__(self, value: Value) -> Value:
        return self._map.get(value, value)

    def apply_tuple(self, values: ValueTuple) -> ValueTuple:
        """Apply the permutation componentwise to a tuple."""
        return tuple(self(v) for v in values)

    def inverse(self) -> "Permutation":
        """The inverse permutation."""
        return Permutation({v: k for k, v in self._map.items()})

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation ``self ∘ other`` (apply *other* first)."""
        keys = set(self._map) | set(other._map)
        return Permutation({k: self(other(k)) for k in keys})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        keys = set(self._map) | set(other._map)
        return all(self(k) == other(k) for k in keys)

    def __hash__(self) -> int:
        return hash(frozenset((k, v) for k, v in self._map.items() if k != v))

    def __repr__(self) -> str:
        moved = {k: v for k, v in self._map.items() if k != v}
        return f"Permutation({moved!r})"


def fresh_values(avoid: Iterable[Value], prefix: str = "fresh") -> Iterator[str]:
    """Yield an unbounded stream of string values not occurring in *avoid*.

    Used wherever the paper says "choose an element outside the active
    domain" (e.g. fresh node names in topology-independence tests).
    """
    taken = set(avoid)
    index = 0
    while True:
        candidate = f"{prefix}_{index}"
        if candidate not in taken:
            taken.add(candidate)
            yield candidate
        index += 1
