"""Database schemas: finite sets of relation names with arities.

Section 2 of the paper: "A database schema is a finite set S of relation
names, each with an associated arity (a natural number)."

:class:`DatabaseSchema` is immutable and hashable so that transducer
schemas (which are 4-tuples of disjoint database schemas) can rely on
value semantics.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping


class SchemaError(ValueError):
    """Raised on malformed schemas or schema violations."""


class DatabaseSchema(Mapping[str, int]):
    """An immutable mapping from relation names to arities.

    Behaves as a read-only mapping: ``schema["R"]`` is the arity of ``R``,
    ``"R" in schema`` tests membership, iteration yields relation names in
    sorted order (so that all derived iterations are deterministic).
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = dict(arities)
        for name, arity in items.items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"relation name must be a non-empty string: {name!r}")
            if not isinstance(arity, int) or arity < 0:
                raise SchemaError(f"arity of {name} must be a natural number: {arity!r}")
        self._arities: dict[str, int] = {k: items[k] for k in sorted(items)}

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise SchemaError(f"relation {name!r} not in schema {self}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._arities)

    def __len__(self) -> int:
        return len(self._arities)

    def __contains__(self, name: object) -> bool:
        return name in self._arities

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._arities == other._arities

    def __hash__(self) -> int:
        return hash(tuple(self._arities.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}/{arity}" for name, arity in self._arities.items())
        return f"DatabaseSchema({{{inner}}})"

    # -- schema algebra ----------------------------------------------------

    def arity(self, name: str) -> int:
        """The arity of relation *name* (raises :class:`SchemaError` if absent)."""
        return self[name]

    def relation_names(self) -> tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(self._arities)

    def union(self, *others: "DatabaseSchema") -> "DatabaseSchema":
        """Combine schemas; conflicting arities for a shared name are an error."""
        merged = dict(self._arities)
        for other in others:
            for name, arity in other.items():
                if name in merged and merged[name] != arity:
                    raise SchemaError(
                        f"conflicting arities for {name}: {merged[name]} vs {arity}"
                    )
                merged[name] = arity
        return DatabaseSchema(merged)

    def _copy(self) -> "DatabaseSchema":
        """An equal schema as an object of its own, not re-validated."""
        copy = object.__new__(DatabaseSchema)
        copy._arities = dict(self._arities)
        return copy

    def restrict(self, names: Iterable[str]) -> "DatabaseSchema":
        """The sub-schema on the given relation names (all must exist)."""
        names = list(names)
        for name in names:
            if name not in self._arities:
                raise SchemaError(f"cannot restrict to absent relation {name!r}")
        return DatabaseSchema({name: self._arities[name] for name in names})

    def disjoint_from(self, *others: "DatabaseSchema") -> bool:
        """True when no relation name is shared with any of *others*."""
        mine = set(self._arities)
        return all(mine.isdisjoint(other._arities) for other in others)

    def rename(self, mapping: Mapping[str, str]) -> "DatabaseSchema":
        """Rename relations; names not in *mapping* are kept."""
        renamed: dict[str, int] = {}
        for name, arity in self._arities.items():
            new = mapping.get(name, name)
            if new in renamed:
                raise SchemaError(f"rename collision on {new!r}")
            renamed[new] = arity
        return DatabaseSchema(renamed)


def schema(**arities: int) -> DatabaseSchema:
    """Convenience constructor: ``schema(S=2, T=2)``."""
    return DatabaseSchema(arities)
