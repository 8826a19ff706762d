"""Columnar extent storage: dictionary-encoded NumPy code matrices.

The frozenset-of-tuples extents of :class:`~repro.db.instance.Instance`
are the right representation for the set-algebraic semantics of the
paper, but they force every join, selection, and dedup in the
evaluation engines to loop over Python objects row by row.  This
module supplies the columnar mirror of an extent that the vectorized
engine (:mod:`repro.lang.vecjoin`) computes over:

* a :class:`ValuePool` dictionary-encodes arbitrary members of ``dom``
  (ints, strings, ... — anything :func:`repro.db.values.is_atomic`
  admits) into dense ``int64`` codes, so non-integer domains vectorize
  exactly like integer ones.  Encoding goes through a Python ``dict``,
  which gives code equality *the same semantics as set membership*
  (``1 == 1.0 == True`` collapse to one code, distinct NaN objects stay
  distinct) — a vectorized comparison of codes is therefore faithful to
  the frozenset reference engines.
* a :class:`ColumnarRelation` holds one relation extent as a dense
  ``(n_rows, arity)`` ``int64`` code matrix; per-attribute columns are
  constant-time views (:meth:`ColumnarRelation.column`).

NumPy is an optional dependency: the module imports with or without
it, and :data:`HAVE_NUMPY` gates every construction site.  Selecting
``engine="columnar"`` without NumPy raises a clear error; the
frozenset engines are unaffected.

Instances cache their columnar view lazily
(:meth:`~repro.db.instance.Instance.columnar_view`), the way
``_facts``/``_adom``/``_digest`` are already cached: immutability makes
the encoded mirror valid for the lifetime of the instance.
"""

from __future__ import annotations

from collections.abc import Iterable

try:  # pragma: no cover - exercised by both CI jobs
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


def require_numpy() -> None:
    """Raise a clear error when the columnar backend is unavailable."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "the columnar engine requires numpy, which is not installed; "
            "use engine='indexed' or engine='nested' instead"
        )


class ValuePool:
    """An append-only dictionary encoding of ``dom`` values to codes.

    Codes are dense ints starting at 0, assigned in first-seen order.
    The pool only ever grows — codes handed out stay valid — so encoded
    matrices may be cached and shared freely by everything that shares
    the pool.  Equality of codes is exactly Python equality of the
    underlying values (the encoding map is a ``dict``).
    """

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: dict = {}
        self._values: list = []

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value) -> int:
        """The code of *value*, assigning a fresh one if unseen."""
        code = self._codes.get(value, -1)
        if code < 0:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def lookup(self, value) -> int:
        """The code of *value*, or -1 when the pool has never seen it."""
        return self._codes.get(value, -1)

    def value(self, code: int):
        """The value behind *code*."""
        return self._values[code]

    def all_values(self):
        """Every pooled value, in code order (a snapshot list)."""
        return list(self._values)

    def encode_rows(self, rows: Iterable[tuple], arity: int) -> "np.ndarray":
        """Encode an iterable of *arity*-tuples into an ``(n, arity)`` matrix."""
        require_numpy()
        if arity == 0:
            # Nullary extents carry only presence: a row count, no codes.
            n = len(rows) if hasattr(rows, "__len__") else sum(1 for _ in rows)
            return np.empty((n, 0), dtype=np.int64)
        codes = self._codes
        values = self._values
        flat: list[int] = []
        for row in rows:
            for v in row:
                code = codes.get(v, -1)
                if code < 0:
                    code = len(values)
                    codes[v] = code
                    values.append(v)
                flat.append(code)
        if not flat:
            return np.empty((0, arity), dtype=np.int64)
        return np.array(flat, dtype=np.int64).reshape(-1, arity)

    def decode_rows(self, mat: "np.ndarray") -> frozenset:
        """Decode an ``(n, k)`` code matrix back to a frozenset of tuples."""
        values = self._values
        if mat.shape[1] == 0:
            # Nullary relations: rows carry no data, only presence.
            return frozenset([()]) if len(mat) else frozenset()
        # Decode column-wise and rebuild rows with C-level zip: much
        # faster than a per-row generator for large extents.
        cols = [
            [values[c] for c in mat[:, i].tolist()]
            for i in range(mat.shape[1])
        ]
        return frozenset(zip(*cols))


class ColumnarRelation:
    """One relation extent as a dense int64 code matrix.

    ``codes`` has shape ``(n_rows, arity)``; :meth:`column` exposes the
    per-attribute columns as views.  Construction is the only
    Python-level loop of the columnar engine (one dict lookup per
    value); everything downstream is NumPy.
    """

    __slots__ = ("codes", "arity")

    def __init__(self, codes: "np.ndarray", arity: int):
        self.codes = codes
        self.arity = arity

    def __len__(self) -> int:
        return len(self.codes)

    def column(self, i: int) -> "np.ndarray":
        """Attribute *i* as a 1-D code array (a view, no copy)."""
        return self.codes[:, i]

    def decode(self, pool: ValuePool) -> frozenset:
        """The extent as a frozenset of tuples of dom values."""
        return pool.decode_rows(self.codes)

    def __repr__(self) -> str:
        return f"ColumnarRelation({len(self.codes)} rows, arity={self.arity})"
