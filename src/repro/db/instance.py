"""Database instances as sets of facts.

Section 2: "we can view an instance as a set of facts over S".  The
:class:`Instance` class is an immutable set of facts tagged with the
schema it instantiates.  All operations return new instances.

Immutability is a deliberate choice for the distributed runtime: a
configuration maps nodes to states, and transitions build new
configurations; sharing unchanged instances between configurations is
then free and safe.

Storage layout
--------------

Internally an instance is *relation-partitioned*: a mapping from
relation name to the frozenset of that relation's tuples (empty
relations are not materialized).  This makes the hot accessors of the
evaluation engine — :meth:`Instance.relation`,
:meth:`Instance.relation_facts`, :meth:`Instance.is_empty`,
:meth:`Instance.set_relation`, :meth:`Instance.restrict` — O(1) or
O(|R|) in the touched relation instead of O(|I|) scans of the whole
fact set.  The flat fact-set view (:meth:`facts`, iteration) and the
active domain are derived lazily and cached; the external semantics
(value equality, hashing, sorted iteration, schema validation) is
unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType

from .fact import Fact
from .schema import DatabaseSchema, SchemaError
from .values import Permutation, Value, is_atomic

_EMPTY: frozenset = frozenset()


class Instance:
    """An immutable instance of a :class:`DatabaseSchema`.

    Every fact must use a relation of the schema with the right arity.
    Iteration yields facts in sorted order for determinism.
    """

    __slots__ = (
        "schema", "_rels", "_size", "_hash", "_facts", "_adom", "_digest",
        "_rel_facts", "_columnar",
    )

    schema: DatabaseSchema

    def __init__(self, schema: DatabaseSchema, facts: Iterable[Fact] = ()):
        rels: dict[str, set] = {}
        for f in facts:
            if f.relation not in schema:
                raise SchemaError(f"fact {f!r} uses relation outside schema {schema}")
            if f.arity != schema[f.relation]:
                raise SchemaError(
                    f"fact {f!r} has arity {f.arity}, schema says "
                    f"{schema[f.relation]}"
                )
            rels.setdefault(f.relation, set()).add(f.values)
        frozen = {name: frozenset(rows) for name, rows in rels.items() if rows}
        self._init(schema, frozen)

    def _init(self, schema: DatabaseSchema, rels: dict[str, frozenset]) -> None:
        """Install validated, non-empty-only partitioned storage.

        Each slot is set through its descriptor's ``__set__``, about
        half the cost of ``object.__setattr__`` (a transition-cache
        miss builds one or two instances).
        """
        _set_schema(self, schema)
        _set_rels(self, rels)
        _set_size(self, sum(map(len, rels.values())))
        _set_hash(self, None)
        _set_facts(self, None)
        _set_adom(self, None)
        # Canonical sorted-fact digest, computed lazily by
        # repro.net.runcache.instance_digest (sharing the instance's
        # immutability the way _hash does).
        _set_digest(self, None)
        # Per-relation Fact views (relation_facts) and the dictionary-
        # encoded columnar mirror (columnar_view), both lazy.
        _set_rel_facts(self, None)
        _set_columnar(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    def __reduce__(self):
        # Default pickling is broken for the frozen-slots layout (it
        # would setattr through the raising guard) and would re-validate
        # every fact; the partitioned storage was validated when built,
        # so rebuild it directly.
        return (_unpickle_instance, (self.schema, self._rels))

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "Instance":
        """The empty instance of *schema*."""
        return cls._build(schema, {})

    @classmethod
    def from_dict(
        cls,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[Iterable[Value]]],
    ) -> "Instance":
        """Build from ``{"R": [(1, 2), (2, 3)], ...}`` style data."""
        return cls.from_relations(schema, relations)

    @classmethod
    def from_relations(
        cls,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[Iterable[Value]]],
    ) -> "Instance":
        """Build from a relation-name → tuples mapping in one pass.

        Each tuple is arity- and atomicity-checked against *schema*;
        relations absent from the mapping are empty.
        """
        rels: dict[str, frozenset] = {}
        for name, tuples in relations.items():
            # schema[name] raises SchemaError if the relation is absent.
            rows = checked_extent(name, schema[name], tuples)
            if rows:
                rels[name] = rows
        return cls._build(schema, rels)

    @classmethod
    def _build(cls, schema: DatabaseSchema, rels: dict[str, frozenset]) -> "Instance":
        """Internal fast path: *rels* must already be validated against
        *schema* and contain no empty extents."""
        inst = object.__new__(cls)
        inst._init(schema, rels)
        return inst

    # -- set-of-facts interface ----------------------------------------------

    def facts(self) -> frozenset[Fact]:
        """The underlying set of facts (materialized lazily, cached)."""
        if self._facts is None:
            fact = Fact._validated
            built = frozenset(
                fact(name, row)
                for name, rows in self._rels.items()
                for row in rows
            )
            _set_facts(self, built)
        return self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self.facts()))

    def __len__(self) -> int:
        return self._size

    def __contains__(self, f: Fact) -> bool:
        if not isinstance(f, Fact):
            return False
        return f.values in self._rels.get(f.relation, _EMPTY)

    def __bool__(self) -> bool:
        return self._size > 0

    # -- relation views --------------------------------------------------------

    def relation(self, name: str) -> frozenset[tuple]:
        """The set of tuples of relation *name* (the relation's extent)."""
        if name not in self.schema:
            raise SchemaError(f"relation {name!r} not in schema {self.schema}")
        return self._rels.get(name, _EMPTY)

    def relation_facts(self, name: str) -> frozenset[Fact]:
        """The facts of relation *name* (built once per relation, cached)."""
        if name not in self.schema:
            raise SchemaError(f"relation {name!r} not in schema {self.schema}")
        cache = self._rel_facts
        if cache is None:
            cache = {}
            _set_rel_facts(self, cache)
        view = cache.get(name)
        if view is None:
            view = frozenset(
                Fact._validated(name, row) for row in self._rels.get(name, _EMPTY)
            )
            cache[name] = view
        return view

    def columnar_view(self):
        """The dictionary-encoded columnar mirror of this instance.

        Returns ``(pool, columns)`` where *pool* is a
        :class:`~repro.db.columnar.ValuePool` and *columns* maps each
        non-empty relation to a
        :class:`~repro.db.columnar.ColumnarRelation`.  Built lazily on
        first use and cached (immutability makes the mirror valid for
        the lifetime of the instance).  Requires numpy.
        """
        if self._columnar is None:
            from .columnar import ColumnarRelation, ValuePool, require_numpy

            require_numpy()
            pool = ValuePool()
            columns = {
                name: ColumnarRelation(
                    pool.encode_rows(rows, self.schema[name]), self.schema[name]
                )
                for name, rows in self._rels.items()
            }
            _set_columnar(self, (pool, columns))
        return self._columnar

    def is_empty(self, name: str) -> bool:
        """True when relation *name* has no tuples."""
        if name not in self.schema:
            raise SchemaError(f"relation {name!r} not in schema {self.schema}")
        return name not in self._rels

    def relations_map(self) -> dict[str, frozenset]:
        """All extents as a name → tuple-set dict covering the schema.

        Shares the internal frozensets (no per-fact copying); the dict
        itself is fresh, so callers may add/replace entries freely.
        """
        return {name: self._rels.get(name, _EMPTY) for name in self.schema}

    def nonempty_relations(self) -> Mapping[str, frozenset]:
        """The internal name → extent mapping of non-empty relations.

        Returned as a read-only view: instances sharing storage (e.g.
        via :meth:`expand_schema`) must never observe a mutation.
        """
        return MappingProxyType(self._rels)

    # -- active domain ---------------------------------------------------------

    def active_domain(self) -> frozenset:
        """``adom(I)``: all data elements occurring in the instance."""
        if self._adom is None:
            adom = frozenset(
                v for rows in self._rels.values() for row in rows for v in row
            )
            _set_adom(self, adom)
        return self._adom

    # -- algebra -----------------------------------------------------------------

    def union(self, *others: "Instance") -> "Instance":
        """Union of instances; schemas are merged (must agree on arities)."""
        merged_schema = self.schema.union(*(o.schema for o in others))
        merged = dict(self._rels)
        for other in others:
            for name, rows in other._rels.items():
                existing = merged.get(name)
                if existing is None:
                    merged[name] = rows
                elif not rows <= existing:
                    merged[name] = existing | rows
        return Instance._build(merged_schema, merged)

    def difference(self, other: "Instance") -> "Instance":
        """Facts of self not in *other*; schema unchanged."""
        out: dict[str, frozenset] = {}
        for name, rows in self._rels.items():
            kept = rows - other._rels.get(name, _EMPTY)
            if kept:
                out[name] = kept
        return Instance._build(self.schema, out)

    def intersection(self, other: "Instance") -> "Instance":
        """Facts common to both; schema unchanged."""
        out: dict[str, frozenset] = {}
        for name, rows in self._rels.items():
            common = rows & other._rels.get(name, _EMPTY)
            if common:
                out[name] = common
        return Instance._build(self.schema, out)

    def with_facts(self, facts: Iterable[Fact]) -> "Instance":
        """Self plus extra facts (schema-checked)."""
        extra = Instance(self.schema, facts)
        return self.union(extra)

    def without_facts(self, facts: Iterable[Fact]) -> "Instance":
        """Self minus the given facts."""
        removed: dict[str, set] = {}
        for f in facts:
            removed.setdefault(f.relation, set()).add(f.values)
        out = dict(self._rels)
        for name, rows in removed.items():
            existing = out.get(name)
            if existing is None:
                continue
            kept = existing - rows
            if kept:
                out[name] = kept
            else:
                del out[name]
        return Instance._build(self.schema, out)

    def restrict(self, names: Iterable[str]) -> "Instance":
        """The sub-instance over the given relation names."""
        sub_schema = self.schema.restrict(names)
        kept = {
            name: rows for name, rows in self._rels.items() if name in sub_schema
        }
        return Instance._build(sub_schema, kept)

    def expand_schema(self, extra: DatabaseSchema) -> "Instance":
        """Same facts, wider schema (adds empty relations)."""
        return Instance._build(self.schema.union(extra), self._rels)

    def set_relation(
        self, name: str, tuples: Iterable[tuple]
    ) -> "Instance":
        """Replace relation *name*'s extent wholesale."""
        rows = checked_extent(name, self.schema[name], tuples)
        out = dict(self._rels)
        if rows:
            out[name] = rows
        else:
            out.pop(name, None)
        return Instance._build(self.schema, out)

    def rename(self, mapping: Mapping[str, str]) -> "Instance":
        """Rename relations in both schema and facts."""
        new_schema = self.schema.rename(mapping)
        new_rels = {
            mapping.get(name, name): rows for name, rows in self._rels.items()
        }
        return Instance._build(new_schema, new_rels)

    def apply(self, h: Permutation) -> "Instance":
        """Apply a dom-permutation to every fact: the instance ``h(I)``."""
        new_rels = {
            name: frozenset(h.apply_tuple(row) for row in rows)
            for name, rows in self._rels.items()
        }
        return Instance._build(self.schema, new_rels)

    # -- order and equality -------------------------------------------------------

    def issubset(self, other: "Instance") -> bool:
        """Containment of fact sets (``I ⊆ J``); schemas need not match."""
        return all(
            rows <= other._rels.get(name, _EMPTY)
            for name, rows in self._rels.items()
        )

    def __le__(self, other: "Instance") -> bool:
        return self.issubset(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.schema == other.schema and self._rels == other._rels

    def __hash__(self) -> int:
        if self._hash is None:
            digest = hash(
                (self.schema, frozenset(self._rels.items()))
            )
            _set_hash(self, digest)
        return self._hash

    def same_facts(self, other: "Instance") -> bool:
        """Equality of fact sets ignoring schema differences."""
        return self._rels == other._rels

    def __repr__(self) -> str:
        if not self._size:
            return f"Instance(∅ over {list(self.schema)})"
        shown = ", ".join(repr(f) for f in sorted(self.facts()))
        return f"Instance({{{shown}}})"


# The slot descriptors' setters, bypassing the raising __setattr__.
_set_schema = Instance.schema.__set__
_set_rels = Instance._rels.__set__
_set_size = Instance._size.__set__
_set_hash = Instance._hash.__set__
_set_facts = Instance._facts.__set__
_set_adom = Instance._adom.__set__
_set_digest = Instance._digest.__set__
_set_rel_facts = Instance._rel_facts.__set__
_set_columnar = Instance._columnar.__set__


def _checked_rows(name: str, arity: int, tuples: Iterable) -> Iterator[tuple]:
    """*tuples* as tuples, each checked for *arity* and atomic values."""
    for t in tuples:
        t = tuple(t)
        if len(t) != arity:
            raise SchemaError(
                f"tuple {t!r} has arity {len(t)}, relation {name} needs {arity}"
            )
        for v in t:
            if not is_atomic(v):
                raise ValueError(f"non-atomic value in fact: {v!r}")
        yield t


def checked_extent(name: str, arity: int, rows: Iterable) -> frozenset:
    """*rows* as an extent of relation *name*: a frozenset of tuples,
    each checked for *arity* and atomic values.

    A frozenset of tuples is returned as it is, so an extent an
    evaluator built is shared, not rebuilt.  Otherwise each row is
    coerced with ``tuple()`` (a raw string becomes its characters).
    """
    if isinstance(rows, frozenset):
        for t in rows:
            if not isinstance(t, tuple):
                break
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, relation {name} needs {arity}"
                )
            for v in t:
                if not is_atomic(v):
                    raise ValueError(f"non-atomic value in fact: {v!r}")
        else:
            return rows
    return frozenset(_checked_rows(name, arity, rows))


def _unpickle_instance(schema: DatabaseSchema, rels: dict) -> Instance:
    return Instance._build(schema, rels)


def instance(schema: DatabaseSchema, **relations: Iterable[Iterable[Value]]) -> Instance:
    """Convenience constructor: ``instance(sch, S=[(1,2)], T=[(2,3)])``."""
    return Instance.from_dict(schema, relations)
