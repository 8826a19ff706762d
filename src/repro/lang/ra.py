"""Relational-algebra evaluation core.

The FO reference interpreter (:func:`repro.lang.fo._eval`) works
bottom-up: every subformula denotes a *named relation* — a set of rows
over the subformula's free variables.  This module supplies that
named-relation data structure and its operators (natural join, union
with active-domain padding, complement, projection, renaming).  The
compiled FO plan uses only the data structure, as the answer of
:func:`repro.lang.fo.evaluate` and as the operand of the columnar join.

The rows are plain tuples; the column order is explicit.  All operators
are pure.
"""

from __future__ import annotations

from collections.abc import Iterable

from .ast import Var


class NamedRelation:
    """A set of rows over an ordered tuple of variable columns."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[Var, ...], rows: Iterable[tuple]):
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate columns: {columns}")
        self.columns = tuple(columns)
        self.rows = frozenset(tuple(r) for r in rows)
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError(f"row {r!r} does not match columns {columns}")

    # -- basics ------------------------------------------------------------

    @classmethod
    def adopt(
        cls, columns: tuple[Var, ...], rows: frozenset
    ) -> "NamedRelation":
        """Trusted zero-copy constructor: adopt an already-frozen row set.

        *rows* must be a frozenset of tuples matching *columns* in
        arity, with distinct columns — e.g. a relation extent straight
        out of :meth:`repro.db.instance.Instance.relation`.  Skips the
        per-row rebuild of ``__init__`` so the all-distinct-variables
        fast path of ``fo._eval_atom`` hands extents through in O(1);
        the unit suite asserts no copy occurs.
        """
        rel = cls.__new__(cls)
        rel.columns = columns
        rel.rows = rows
        return rel

    @classmethod
    def nullary(cls, truth: bool) -> "NamedRelation":
        """The 0-column relation: {()} for true, {} for false."""
        return cls((), [()] if truth else [])

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NamedRelation):
            return NotImplemented
        if set(self.columns) != set(other.columns):
            return False
        return self.rows == other.reorder(self.columns).rows

    def __hash__(self) -> int:
        ordered = tuple(sorted(self.columns, key=lambda v: v.name))
        return hash((ordered, self.reorder(ordered).rows))

    def __repr__(self) -> str:
        cols = ", ".join(v.name for v in self.columns)
        return f"NamedRelation[{cols}]({len(self.rows)} rows)"

    # -- column manipulation --------------------------------------------------

    def reorder(self, columns: tuple[Var, ...]) -> "NamedRelation":
        """Same relation with columns permuted to *columns*."""
        if columns == self.columns:
            return self
        if set(columns) != set(self.columns):
            raise ValueError(f"cannot reorder {self.columns} to {columns}")
        index = [self.columns.index(c) for c in columns]
        return NamedRelation(columns, (tuple(r[i] for i in index) for r in self.rows))

    def project(self, columns: tuple[Var, ...]) -> "NamedRelation":
        """Keep only *columns* (must be a subset), deduplicating rows."""
        missing = set(columns) - set(self.columns)
        if missing:
            raise ValueError(f"cannot project onto absent columns {missing}")
        index = [self.columns.index(c) for c in columns]
        return NamedRelation(columns, (tuple(r[i] for i in index) for r in self.rows))

    def drop(self, columns: Iterable[Var]) -> "NamedRelation":
        """Project away the given columns."""
        dropped = set(columns)
        kept = tuple(c for c in self.columns if c not in dropped)
        return self.project(kept)

    def extend(self, columns: tuple[Var, ...], domain: frozenset) -> "NamedRelation":
        """Pad to a superset of columns, new columns ranging over *domain*.

        This implements the active-domain semantics of disjunction and
        negation: a subformula not mentioning a variable is equivalent to
        one where that variable ranges freely over ``adom``.
        """
        extra = tuple(c for c in columns if c not in self.columns)
        if not extra:
            return self.reorder(columns)
        if not domain and self.rows:
            # Cannot pad a nonempty relation over an empty domain.
            return NamedRelation(columns, ())
        rows = []
        for r in self.rows:
            rows.extend(_pad(r, len(extra), domain))
        padded = NamedRelation(self.columns + extra, rows)
        return padded.reorder(columns)

    # -- operators ----------------------------------------------------------------

    def join(self, other: "NamedRelation") -> "NamedRelation":
        """Natural join on shared columns."""
        shared = tuple(c for c in self.columns if c in set(other.columns))
        out_columns = self.columns + tuple(
            c for c in other.columns if c not in set(self.columns)
        )
        if not shared:
            rows = [r1 + r2 for r1 in self.rows for r2 in other.rows]
            return NamedRelation(out_columns, rows)
        my_key = [self.columns.index(c) for c in shared]
        their_key = [other.columns.index(c) for c in shared]
        their_rest = [
            i for i, c in enumerate(other.columns) if c not in set(self.columns)
        ]
        # hash join
        buckets: dict[tuple, list[tuple]] = {}
        for r in other.rows:
            buckets.setdefault(tuple(r[i] for i in their_key), []).append(
                tuple(r[i] for i in their_rest)
            )
        rows = []
        for r in self.rows:
            key = tuple(r[i] for i in my_key)
            for rest in buckets.get(key, ()):
                rows.append(r + rest)
        return NamedRelation(out_columns, rows)

    def union(self, other: "NamedRelation", domain: frozenset) -> "NamedRelation":
        """Union after padding both sides to the joint column set."""
        columns = self.columns + tuple(
            c for c in other.columns if c not in set(self.columns)
        )
        left = self.extend(columns, domain)
        right = other.extend(columns, domain)
        return NamedRelation(columns, left.rows | right.rows)

    def complement(self, domain: frozenset) -> "NamedRelation":
        """All rows over ``domain^k`` not in the relation (adom semantics)."""
        universe = _product(domain, len(self.columns))
        return NamedRelation(self.columns, (r for r in universe if r not in self.rows))


def _pad(row: tuple, extra: int, domain: frozenset) -> Iterable[tuple]:
    if extra == 0:
        yield row
        return
    for v in domain:
        yield from _pad(row + (v,), extra - 1, domain)


def _product(domain: frozenset, k: int) -> Iterable[tuple]:
    if k == 0:
        yield ()
        return
    for prefix in _product(domain, k - 1):
        for v in domain:
            yield prefix + (v,)
