"""Vectorized columnar evaluation: bulk hash joins over code matrices.

The third body-evaluation engine (``engine="columnar"``), built on the
dictionary-encoded matrices of :mod:`repro.db.columnar`.  Where the
indexed engine probes hash tables one binding at a time, this engine
evaluates a whole rule body as a handful of NumPy array operations:

* **Joins** — the positive atoms are joined in the same greedy order
  :meth:`JoinPlan._order` picks for the indexed engine, but each step
  is a bulk probe: bound columns are packed into 1-D ``int64`` keys
  (``key = key * pool_size + code`` per column, injective while
  ``pool_size ** width < 2**62``; wider keys fall back to
  ``np.unique(axis=0)`` shared dense ids), the build side is argsorted
  once, and ``np.searchsorted`` + a ragged ``np.repeat``/``cumsum``
  gather expands all matches at once.
* **Selections** — constants and repeated variables become boolean
  masks on columns; (in)equality literals compare whole columns;
  negated atoms become packed-key anti-joins (``np.isin``).
* **Dedup / set ops** — head projections dedup via ``np.unique`` on
  packed keys; the dedicated semi-naive driver keeps each IDB extent's
  keys in an LSM-style :class:`_KeySet` of sorted runs so the per-round
  novelty check costs O(|delta| · log |total|) instead of re-sorting
  the total.

**Fallback discipline.**  Everything outside the vectorizable fragment
— bodies with no positive atom, equalities whose variables appear in
no positive atom (the active-domain-expansion case), negated atoms or
heads with unbound variables — is *not* approximated: the entry points
return ``None`` and the caller re-runs the indexed engine, which owns
those semantics including the error paths (``DatalogError`` on unsafe
rules).  The frozenset engines thus remain the reference; the
Hypothesis suite in ``tests/test_lang_vecjoin.py`` checks bit-identical
results across all three.

Constants are always *encoded* into the pool (never merely looked up):
a fresh code can never equal a code occurring in any extent, which is
exactly the semantics of an unseen constant — whereas a shared
"missing" sentinel would make two distinct unseen constants compare
equal.
"""

from __future__ import annotations

from functools import lru_cache

from ..db.columnar import HAVE_NUMPY, ValuePool, np, require_numpy
from ..db.instance import Instance
from ..memo import Memo
from .ast import Const, Var
from .joinplan import IndexPool, plan_for

_EMPTY: frozenset = frozenset()

_PACK_LIMIT = 2 ** 62  # headroom below int64 overflow for packed keys

MATRIX_MEMO_LIMIT = 512  # entries of a ColumnPool's encoded extents
SORT_MEMO_LIMIT = 512  # entries of a build-side sort cache


# ---------------------------------------------------------------------------
# Key packing and bulk join primitives
# ---------------------------------------------------------------------------


def _pack_cols(cols: list, base: int):
    """Pack parallel code columns into one int64 key column.

    Injective for codes in ``[0, base)``.  Returns ``None`` when
    ``base ** width`` would overflow the packing headroom; callers then
    use :func:`_shared_dense_keys`.
    """
    width = len(cols)
    if width == 1:
        return cols[0]
    if base ** width >= _PACK_LIMIT:
        return None
    keys = cols[0].astype(np.int64)
    for c in cols[1:]:
        keys = keys * base + c
    return keys


def _shared_dense_keys(probe_cols: list, build_cols: list):
    """Comparable dense ids for both sides when packing overflows."""
    both = np.concatenate(
        [np.stack(probe_cols, axis=1), np.stack(build_cols, axis=1)]
    )
    _, inv = np.unique(both, axis=0, return_inverse=True)
    inv = inv.astype(np.int64, copy=False)
    k = len(probe_cols[0])
    return inv[:k], inv[k:]


def _probe_build_keys(probe_cols: list, build_cols: list, base: int):
    """1-D join keys for probe and build sides; ``packable`` says whether
    the cheap packed representation was used (it is position-stable, so
    build-side sorts may be cached)."""
    pk = _pack_cols(probe_cols, base)
    if pk is not None:
        return pk, _pack_cols(build_cols, base), True
    pk, bk = _shared_dense_keys(probe_cols, build_cols)
    return pk, bk, False


def _join_expand(probe_keys, build_order, sorted_keys):
    """All (probe_row, build_row) index pairs with equal keys.

    *build_order* / *sorted_keys* are the argsort of the build keys and
    the keys in that order; matches are found by binary search and
    expanded with a ragged gather — no Python-level loop.
    """
    left = np.searchsorted(sorted_keys, probe_keys, side="left")
    right = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
    starts = np.repeat(left, counts)
    group_start = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(group_start, counts)
    return probe_idx, build_order[starts + offsets]


def _unique_rows(mat, base: int):
    """Distinct rows of a code matrix (order unspecified)."""
    n, width = mat.shape
    if n <= 1:
        return mat
    if width == 0:
        return mat[:1]
    keys = _pack_cols([mat[:, i] for i in range(width)], base)
    if keys is None:
        return np.unique(mat, axis=0)
    _, idx = np.unique(keys, return_index=True)
    return mat[idx]


# ---------------------------------------------------------------------------
# ColumnPool — the columnar counterpart of IndexPool
# ---------------------------------------------------------------------------


class ColumnPool:
    """Per-fixpoint caches for the columnar engine.

    Owns the :class:`~repro.db.columnar.ValuePool` of the evaluation,
    an LRU of encoded extent matrices keyed by extent value (unchanged
    extents keep their encoding across rounds and rules, mirroring
    :class:`~repro.lang.joinplan.IndexPool`), a build-side sort cache
    for join probes (both bounded memos), and the
    ``IndexPool`` of rules that fall back to the indexed engine.
    """

    __slots__ = ("values", "sorts", "_mats", "index_pool")

    def __init__(self):
        require_numpy()
        self.values = ValuePool()
        self.sorts = Memo(SORT_MEMO_LIMIT)
        self._mats = Memo(MATRIX_MEMO_LIMIT)
        self.index_pool = IndexPool()

    def matrix(self, extent: frozenset, arity: int):
        """The encoded code matrix of *extent* (cached by value).

        Empty extents are returned uncached: the one empty frozenset is
        shared across arities and must not collide in the cache.
        """
        if not extent:
            return np.empty((0, arity), dtype=np.int64)
        key = (arity, extent)
        mat = self._mats.get(key)
        if mat is None:
            mat = self.values.encode_rows(extent, arity)
            self._mats.put(key, mat)
        return mat


# ---------------------------------------------------------------------------
# Vectorizable-fragment checks (static per body/rule, memoized)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _body_vectorizable(body) -> bool:
    """True when the body's constraints stay fully columnar.

    Requires at least one positive atom, and every (in)equality side
    and negated-atom term to be a constant or a positive-atom variable.
    Anything else (active-domain expansion, unsafe negation) falls back
    to the indexed engine, which owns those semantics.
    """
    plan = plan_for(body)
    if not plan.atoms:
        return False
    avars = set()
    for info in plan.atoms:
        avars |= info.vars
    for eq in (*plan.pos_eqs, *plan.neg_eqs):
        for term in (eq.left, eq.right):
            if isinstance(term, Var) and term not in avars:
                return False
    for atom in plan.negative_atoms:
        for term in atom.terms:
            if isinstance(term, Var) and term not in avars:
                return False
    return True


@lru_cache(maxsize=4096)
def _rule_vectorizable(rule) -> bool:
    """True when the whole rule (body + head) stays columnar."""
    if not _body_vectorizable(rule.body):
        return False
    avars = frozenset(
        v for info in plan_for(rule.body).atoms for v in info.vars
    )
    return all(
        isinstance(t, Const) or t in avars for t in rule.head.terms
    )


def _encode_consts(plan, pool: ValuePool, head=None) -> None:
    """Encode every constant of *plan* (and *head*) into *pool*.

    Done up front so the pool size — and with it the packing base — is
    fixed before any keys are built.
    """
    for info in plan.atoms:
        for _, value in info.consts:
            pool.encode(value)
    for eq in (*plan.pos_eqs, *plan.neg_eqs):
        for term in (eq.left, eq.right):
            if isinstance(term, Const):
                pool.encode(term.value)
    for atom in plan.negative_atoms:
        for term in atom.terms:
            if isinstance(term, Const):
                pool.encode(term.value)
    if head is not None:
        for term in head.terms:
            if isinstance(term, Const):
                pool.encode(term.value)


# ---------------------------------------------------------------------------
# The vectorized join over code matrices
# ---------------------------------------------------------------------------


def _join_coded(plan, mats, pool: ValuePool, base: int, sort_cache=None):
    """All assignments of the positive atoms, as parallel code columns.

    *mats* gives one code matrix per positive atom in body order (the
    semi-naive delta hook, same contract as ``JoinPlan.kernel``).
    Returns ``(cols, n)``: *cols* maps each variable to a length-*n*
    int64 array; *n* counts assignments even when *cols* is empty
    (constants-only bodies).  *sort_cache* memoizes build-side argsorts
    of unfiltered matrices, keyed by matrix identity.
    """
    cols: dict = {}
    n = 1
    for info in plan._order(mats):
        mat = mats[info.index]
        stable = mat
        mask = None
        for pos, value in info.consts:
            m = mat[:, pos] == pool.encode(value)
            mask = m if mask is None else mask & m
        first_pos: dict = {}
        bound_pairs: list = []
        new_slots: list = []
        for pos, var in info.var_slots:
            if var in cols:
                bound_pairs.append((pos, var))
            elif var in first_pos:
                m = mat[:, pos] == mat[:, first_pos[var]]
                mask = m if mask is None else mask & m
            else:
                first_pos[var] = pos
                new_slots.append((pos, var))
        if mask is not None:
            mat = mat[mask]
        if len(mat) == 0:
            return {}, 0
        if bound_pairs:
            probe = [cols[var] for _, var in bound_pairs]
            positions = tuple(pos for pos, _ in bound_pairs)
            cacheable = sort_cache is not None and mat is stable
            entry = (
                sort_cache.get((id(mat), positions, base)) if cacheable else None
            )
            if entry is not None and entry[0] is mat:
                _, order, sorted_keys = entry
                pk = _pack_cols(probe, base)
            else:
                build = [mat[:, pos] for pos in positions]
                pk, bk, packable = _probe_build_keys(probe, build, base)
                order = np.argsort(bk, kind="stable")
                sorted_keys = bk[order]
                if cacheable and packable:
                    sort_cache.put(
                        (id(mat), positions, base), (mat, order, sorted_keys)
                    )
            probe_idx, build_idx = _join_expand(pk, order, sorted_keys)
            if len(probe_idx) == 0:
                return {}, 0
            cols = {v: a[probe_idx] for v, a in cols.items()}
            for pos, var in new_slots:
                cols[var] = mat[:, pos][build_idx]
            n = len(probe_idx)
        else:
            # Cartesian step (first atom, or no shared variables).
            rows = len(mat)
            prev = n
            if cols:
                cols = {v: np.repeat(a, rows) for v, a in cols.items()}
            for pos, var in new_slots:
                cols[var] = np.tile(mat[:, pos], prev)
            n = prev * rows
    return cols, n


def _side_codes(term, cols, pool: ValuePool):
    """An (in)equality side as a scalar code (Const) or code column."""
    if isinstance(term, Const):
        return pool.encode(term.value)
    return cols[term]


def _constraints_mask(plan, cols, n, neg_mats, pool, base):
    """Keep-mask over *n* assignments for eqs, neqs, and negated atoms.

    *neg_mats* gives one encoded extent matrix per negated atom, in
    plan order.  Returns ``None`` when nothing filters.  Assumes the
    body passed :func:`_body_vectorizable` (every side bound).
    """
    mask = None

    def conj(m):
        nonlocal mask
        mask = m if mask is None else mask & m

    for eq in plan.pos_eqs:
        left = _side_codes(eq.left, cols, pool)
        right = _side_codes(eq.right, cols, pool)
        if isinstance(left, int) and isinstance(right, int):
            if left != right:
                return np.zeros(n, dtype=bool)
        else:
            conj(left == right)
    for eq in plan.neg_eqs:
        left = _side_codes(eq.left, cols, pool)
        right = _side_codes(eq.right, cols, pool)
        if isinstance(left, int) and isinstance(right, int):
            if left == right:
                return np.zeros(n, dtype=bool)
        else:
            conj(left != right)
    for atom, extent_mat in zip(plan.negative_atoms, neg_mats):
        if len(atom.terms) == 0:
            if len(extent_mat):
                return np.zeros(n, dtype=bool)
            continue
        if len(extent_mat) == 0:
            continue
        key_cols = []
        for term in atom.terms:
            side = _side_codes(term, cols, pool)
            key_cols.append(
                np.full(n, side, dtype=np.int64) if isinstance(side, int) else side
            )
        build = [extent_mat[:, i] for i in range(extent_mat.shape[1])]
        pk, bk, _ = _probe_build_keys(key_cols, build, base)
        conj(~np.isin(pk, bk))
    return mask


def _project_head(head, cols, n, pool, base):
    """The deduped head-projection code matrix of *n* assignments."""
    out = []
    for term in head.terms:
        if isinstance(term, Const):
            out.append(np.full(n, pool.encode(term.value), dtype=np.int64))
        else:
            out.append(cols[term])
    if not out:
        return np.empty((min(n, 1), 0), dtype=np.int64)
    return _unique_rows(np.stack(out, axis=1), base)


# ---------------------------------------------------------------------------
# Entry points used by the generic evaluation paths
# ---------------------------------------------------------------------------


def join_bindings(body, positive_sources, cpool: ColumnPool):
    """Positive-atom assignments via the bulk join, decoded to the
    plain dict bindings the shared constraint code consumes.

    This is the ``engine="columnar"`` path of
    :func:`repro.lang.datalog.evaluate_body`: only the join is
    vectorized; (in)equalities, negation, and active-domain expansion
    run through the exact same ``_apply_constraints`` as the frozenset
    engines, so every body — and every error path — is supported.
    """
    plan = plan_for(body)
    pool = cpool.values
    for info in plan.atoms:
        for _, value in info.consts:
            pool.encode(value)
    mats = [
        cpool.matrix(source, len(info.terms))
        for info, source in zip(plan.atoms, positive_sources)
    ]
    base = max(len(pool), 2)
    cols, n = _join_coded(plan, mats, pool, base, cpool.sorts)
    if n == 0:
        return []
    decoded = [
        (var, [pool.value(c) for c in arr.tolist()]) for var, arr in cols.items()
    ]
    return [{var: values[i] for var, values in decoded} for i in range(n)]


def fire_rule_columnar(rule, positive_sources, relations, cpool: ColumnPool):
    """Head tuples of one rule via the fully vectorized pipeline.

    Returns a frozenset of head rows, or ``None`` when the rule is
    outside the vectorizable fragment — the caller then re-runs the
    indexed engine, which also owns the unsafe-rule error paths.
    """
    if not HAVE_NUMPY or not _rule_vectorizable(rule):
        return None
    plan = plan_for(rule.body)
    pool = cpool.values
    _encode_consts(plan, pool, rule.head)
    mats = [
        cpool.matrix(source, len(info.terms))
        for info, source in zip(plan.atoms, positive_sources)
    ]
    neg_mats = [
        cpool.matrix(relations.get(atom.relation, _EMPTY), len(atom.terms))
        for atom in plan.negative_atoms
    ]
    base = max(len(pool), 2)
    cols, n = _join_coded(plan, mats, pool, base, cpool.sorts)
    if n == 0:
        return frozenset()
    mask = _constraints_mask(plan, cols, n, neg_mats, pool, base)
    if mask is not None:
        cols = {v: a[mask] for v, a in cols.items()}
        n = int(mask.sum())
        if n == 0:
            return frozenset()
    return pool.decode_rows(_project_head(rule.head, cols, n, pool, base))


# ---------------------------------------------------------------------------
# FO conjunction: vectorized natural join of named relations
# ---------------------------------------------------------------------------


def named_join(left, right):
    """Vectorized natural join of two ``NamedRelation``s.

    Same output contract as ``NamedRelation.join`` (columns of *left*
    followed by the right-only columns).  Returns ``None`` to tell the
    caller to use the tuple-at-a-time reference instead (no numpy, no
    shared columns, or an empty side).
    """
    if not HAVE_NUMPY:
        return None
    shared = [c for c in left.columns if c in right.columns]
    if not shared or not left.rows or not right.rows:
        return None
    from .ra import NamedRelation

    pool = ValuePool()
    lmat = pool.encode_rows(left.rows, len(left.columns))
    rmat = pool.encode_rows(right.rows, len(right.columns))
    base = max(len(pool), 2)
    lpos = [left.columns.index(c) for c in shared]
    rpos = [right.columns.index(c) for c in shared]
    pk, bk, _ = _probe_build_keys(
        [lmat[:, i] for i in lpos], [rmat[:, j] for j in rpos], base
    )
    order = np.argsort(bk, kind="stable")
    li, ri = _join_expand(pk, order, bk[order])
    rest = [j for j, c in enumerate(right.columns) if c not in left.columns]
    out_columns = left.columns + tuple(right.columns[j] for j in rest)
    if len(li) == 0:
        return NamedRelation.adopt(out_columns, frozenset())
    out_cols = [lmat[:, i][li] for i in range(len(left.columns))]
    out_cols += [rmat[:, j][ri] for j in rest]
    if out_cols:
        mat = _unique_rows(np.stack(out_cols, axis=1), base)
    else:
        mat = np.empty((min(len(li), 1), 0), dtype=np.int64)
    return NamedRelation.adopt(out_columns, pool.decode_rows(mat))


# ---------------------------------------------------------------------------
# The dedicated columnar semi-naive driver
# ---------------------------------------------------------------------------


class _KeySet:
    """An LSM-style set of sorted int64 key runs.

    Membership is checked by binary search against every run; runs are
    merged binary-counter style (when the previous run is no more than
    twice the new one), so a fixpoint that adds O(delta) keys per round
    pays O(delta · log total) per round instead of re-sorting — or even
    copying — the whole total.
    """

    __slots__ = ("runs",)

    def __init__(self):
        self.runs: list = []

    def add(self, keys) -> None:
        """Add a sorted array of keys not already present."""
        if len(keys) == 0:
            return
        runs = self.runs
        runs.append(keys)
        while len(runs) >= 2 and len(runs[-2]) <= 2 * len(runs[-1]):
            tail = runs.pop()
            merged = np.concatenate([runs.pop(), tail])
            merged.sort()
            runs.append(merged)

    def contains(self, keys):
        """Boolean membership mask for an array of keys."""
        mask = np.zeros(len(keys), dtype=bool)
        for run in self.runs:
            idx = np.searchsorted(run, keys)
            idx[idx == len(run)] = len(run) - 1
            mask |= run[idx] == keys
        return mask


class _Table:
    """A growing IDB extent: capacity-doubling row buffer + key set."""

    __slots__ = ("arity", "rows", "n", "keys")

    def __init__(self, arity: int):
        self.arity = arity
        self.rows = np.empty((64, arity), dtype=np.int64)
        self.n = 0
        self.keys = _KeySet()

    def view(self):
        return self.rows[: self.n]

    def append(self, mat, sorted_keys) -> None:
        """Append deduped novel rows with their sorted packed keys."""
        need = self.n + len(mat)
        if need > len(self.rows):
            grown = np.empty(
                (max(2 * len(self.rows), need), self.arity), dtype=np.int64
            )
            grown[: self.n] = self.rows[: self.n]
            self.rows = grown
        self.rows[self.n : need] = mat
        self.n = need
        self.keys.add(sorted_keys)


def _row_keys(mat, base: int):
    """One packed int64 key per row (``None`` when unpackable)."""
    width = mat.shape[1]
    if width == 0:
        return np.zeros(len(mat), dtype=np.int64)
    return _pack_cols([mat[:, i] for i in range(width)], base)


def seminaive_fixpoint_columnar(program, instance: Instance):
    """Semi-naive least fixpoint computed entirely over code matrices.

    The fast path behind ``seminaive_fixpoint(engine="columnar")``:
    every EDB extent and rule constant is encoded once up front (after
    which the pool — and so the packing base — is frozen: derived rows
    only rearrange existing codes), rules fire as bulk joins, and new
    tuples are detected against per-relation :class:`_KeySet`s.  Rows
    are decoded back to frozensets exactly once, at the end.

    Returns the fixpoint :class:`Instance`, or ``None`` when the
    program leaves the vectorizable fragment (a rule with
    active-domain equalities, or extents too wide to pack) — the
    caller then runs the generic engine.
    """
    if not HAVE_NUMPY:
        return None
    if not all(_rule_vectorizable(rule) for rule in program.rules):
        return None
    pool = ValuePool()
    plans = {}
    for rule in program.rules:
        plan = plan_for(rule.body)
        plans[rule] = plan
        _encode_consts(plan, pool, rule.head)
    schema = program.schema
    rel_mats = {}
    for name in schema.relation_names():
        extent = (
            instance.relation(name) if name in instance.schema else _EMPTY
        )
        rel_mats[name] = pool.encode_rows(extent, schema[name])
    base = max(len(pool), 2)

    idb = list(program.idb_schema.relation_names())
    tables: dict[str, _Table] = {}
    for name in idb:
        arity = schema[name]
        if arity >= 2 and base ** arity >= _PACK_LIMIT:
            return None  # cannot key rows; generic engine handles it
        table = _Table(arity)
        seed = rel_mats[name]
        if len(seed):
            keys = _row_keys(seed, base)
            order = np.argsort(keys)
            table.append(seed[order], keys[order])
        tables[name] = table

    sort_cache = Memo(SORT_MEMO_LIMIT)

    def mats_for(plan, delta_pos=None, delta_mat=None):
        out = []
        for i, info in enumerate(plan.atoms):
            name = info.atom.relation
            if i == delta_pos:
                out.append(delta_mat)
            elif name in tables:
                out.append(tables[name].view())
            else:
                out.append(rel_mats[name])
        return out

    def fire(rule, plan, mats):
        cols, n = _join_coded(plan, mats, pool, base, sort_cache)
        if n == 0:
            return None
        mask = _constraints_mask(plan, cols, n, (), pool, base)
        if mask is not None:
            cols = {v: a[mask] for v, a in cols.items()}
            n = int(mask.sum())
            if n == 0:
                return None
        return _project_head(rule.head, cols, n, pool, base)

    def absorb(pending):
        """Fold freshly derived rows into the tables; return the deltas."""
        deltas = {}
        for name, derived in pending.items():
            if not derived:
                continue
            mat = derived[0] if len(derived) == 1 else np.concatenate(derived)
            keys = _row_keys(mat, base)
            fresh = ~tables[name].keys.contains(keys)
            if not fresh.any():
                continue
            mat, keys = mat[fresh], keys[fresh]
            unique_keys, idx = np.unique(keys, return_index=True)
            mat = mat[idx]
            tables[name].append(mat, unique_keys)
            deltas[name] = mat
        return deltas

    # Round 0: every rule fires once on the full database.
    pending: dict[str, list] = {name: [] for name in idb}
    for rule in program.rules:
        derived = fire(rule, plans[rule], mats_for(plans[rule]))
        if derived is not None and len(derived):
            pending[rule.head.relation].append(derived)
    deltas = absorb(pending)

    while deltas:
        pending = {name: [] for name in idb}
        for rule in program.rules:
            plan = plans[rule]
            for i, info in enumerate(plan.atoms):
                delta_mat = deltas.get(info.atom.relation)
                if delta_mat is None:
                    continue
                derived = fire(rule, plan, mats_for(plan, i, delta_mat))
                if derived is not None and len(derived):
                    pending[rule.head.relation].append(derived)
        deltas = absorb(pending)

    # Finalize via the trusted constructor: every decoded value is a
    # pool member, so atomicity is checked once per distinct value
    # (instead of once per tuple slot), and arities are correct by
    # construction (matrix widths come from the schema).
    from ..db.values import is_atomic

    for value in pool.all_values():
        if not is_atomic(value):
            raise ValueError(f"non-atomic value in fact: {value!r}")
    rels = {}
    for name in schema.relation_names():
        if name in tables:
            rows = pool.decode_rows(tables[name].view())
        else:
            rows = instance.relation(name) if name in instance.schema else _EMPTY
        if rows:
            rels[name] = rows
    return Instance._build(schema, rels)
