"""Compiled join plans: indexed evaluation of rule bodies.

The seed evaluator joined the positive atoms of a rule body as an
unindexed nested-loop product — O(∏|Rᵢ|) per rule.  This module
compiles each body once into a :class:`JoinPlan` that

* pre-splits the literals (positive atoms, equalities, nonequalities,
  negated atoms) and pre-analyzes each positive atom's terms
  (constants, first variable occurrences, repeated-variable checks);
* at evaluation time greedily orders the atoms by bound-variable
  connectivity and extent size (most bound positions first, smallest
  extent as tie-break), so selective atoms run early and cartesian
  steps are deferred;
* compiles each order it meets into a :class:`Kernel`: a join over
  *slot tuples* (one value per bound variable, in binding order) that
  probes each atom through a hash index on the positions bound at that
  point, applies the (in)equalities and negated atoms by slot, and
  projects the head positionally.  Indexes are cached in an
  :class:`IndexPool` keyed by (extent, positions), so rules reading
  the same relation — and successive fixpoint rounds in which an
  extent did not change — share one index build.

The *sources* argument keeps the seed's delta-substitution hook:
callers pass one extent per positive atom occurrence (in body order),
and semi-naive evaluation points any occurrence at a delta.  The
original nested-loop strategy is retained (``JoinPlan.nested_loop``)
as the reference implementation for tests and benchmarks; it yields
plain ``dict[Var, value]`` bindings, which the kernel produces only at
the :func:`repro.lang.datalog.evaluate_body` boundary
(:meth:`Kernel.as_dicts`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from ..memo import Memo
from .ast import Atom, Const, Eq, Literal, Var

_EMPTY: frozenset = frozenset()

INDEX_MEMO_LIMIT = 512  # entries of an IndexPool


class IndexPool:
    """A cache of hash indexes over relation extents.

    An index for ``(extent, positions)`` maps each projection of a row
    onto *positions* to the list of rows with that projection; a
    projection onto one position is the bare value, onto several a
    tuple (``operator.itemgetter``'s convention).  The
    pool is keyed by the extent *value* (frozensets hash-cache, and the
    common case is an identity hit), so unchanged extents keep their
    indexes across fixpoint rounds and across rules.  A
    :class:`~repro.memo.Memo` bounds them, least recently used first out.
    """

    __slots__ = ("_indexes",)

    def __init__(self):
        self._indexes = Memo(INDEX_MEMO_LIMIT)

    def index(
        self, extent: frozenset, positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple]]:
        key = (positions, extent)
        index = self._indexes.get(key)
        if index is None:
            index = _build_index(extent, positions)
            self._indexes.put(key, index)
        return index


class _AtomInfo:
    """Per-atom term analysis, computed once at plan build."""

    __slots__ = ("atom", "index", "terms", "consts", "var_slots", "vars")

    def __init__(self, atom: Atom, index: int):
        self.atom = atom
        self.index = index
        self.terms = atom.terms
        # (position, value) for constant terms
        self.consts: tuple[tuple[int, object], ...] = tuple(
            (i, t.value) for i, t in enumerate(atom.terms) if isinstance(t, Const)
        )
        # (position, var) for every variable occurrence
        self.var_slots: tuple[tuple[int, Var], ...] = tuple(
            (i, t) for i, t in enumerate(atom.terms) if isinstance(t, Var)
        )
        self.vars: frozenset[Var] = frozenset(v for _, v in self.var_slots)


class JoinPlan:
    """A compiled evaluation plan for one rule body.

    Build once per body (see :func:`plan_for`); evaluate many times
    with different sources through :meth:`kernel`.
    """

    __slots__ = ("body", "atoms", "pos_eqs", "neg_eqs", "negative_atoms", "_kernels")

    def __init__(self, body: tuple[Literal, ...]):
        self.body = body
        atoms: list[_AtomInfo] = []
        pos_eqs: list[Eq] = []
        neg_eqs: list[Eq] = []
        negative_atoms: list[Atom] = []
        for lit in body:
            if isinstance(lit.atom, Atom):
                if lit.positive:
                    atoms.append(_AtomInfo(lit.atom, len(atoms)))
                else:
                    negative_atoms.append(lit.atom)
            elif lit.positive:
                pos_eqs.append(lit.atom)
            else:
                neg_eqs.append(lit.atom)
        self.atoms = tuple(atoms)
        self.pos_eqs = tuple(pos_eqs)
        self.neg_eqs = tuple(neg_eqs)
        self.negative_atoms = tuple(negative_atoms)
        self._kernels: dict[tuple[int, ...], Kernel] = {}

    # -- atom ordering -------------------------------------------------------

    def _order(self, sources: list[frozenset]) -> list[_AtomInfo]:
        """Greedy join order: most bound slots, then smallest extent.

        "Bound slots" counts constant positions plus occurrences of
        variables bound by earlier atoms — i.e. connectivity to the
        prefix; the extent size breaks ties toward selective scans.
        """
        remaining = list(self.atoms)
        if len(remaining) <= 1:
            return remaining
        ordered: list[_AtomInfo] = []
        bound: set[Var] = set()
        while remaining:
            best = max(
                remaining,
                key=lambda info: (
                    len(info.consts)
                    + sum(1 for _, v in info.var_slots if v in bound),
                    -len(sources[info.index]),
                    -info.index,
                ),
            )
            remaining.remove(best)
            ordered.append(best)
            bound |= best.vars
        return ordered

    # -- compiled slot-tuple kernels -----------------------------------------

    def kernel(self, sources: list[frozenset]) -> "Kernel":
        """The compiled kernel for the greedy atom order of *sources*.

        The order depends on the extent sizes, so a plan holds one
        kernel per order it has met; each is compiled on first use.
        """
        if len(self.atoms) <= 1:
            order = tuple(range(len(self.atoms)))
        else:
            order = tuple(info.index for info in self._order(sources))
        kernel = self._kernels.get(order)
        if kernel is None:
            kernel = self._kernels[order] = Kernel(self, order)
        return kernel

    # -- reference nested-loop evaluation ------------------------------------

    def nested_loop(
        self, sources: list[frozenset]
    ) -> list[dict[Var, object]]:
        """The seed's unindexed nested-loop product, kept as reference.

        Semantically equivalent to :meth:`join`; used by the
        equivalence tests and as the benchmark baseline.
        """
        bindings: list[dict[Var, object]] = [{}]
        for info, source in zip(self.atoms, sources):
            new_bindings: list[dict[Var, object]] = []
            for binding in bindings:
                for row in source:
                    extended = _match(info.atom, row, binding)
                    if extended is not None:
                        new_bindings.append(extended)
            bindings = new_bindings
            if not bindings:
                return []
        return bindings


_UNBOUND = object()


def _match(atom: Atom, row: tuple, binding: dict) -> dict | None:
    """Extend *binding* so that *atom* matches *row*, or None."""
    new = None
    for term, value in zip(atom.terms, row):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = binding.get(term, _UNBOUND) if new is None else new.get(term, _UNBOUND)
            if bound is _UNBOUND:
                if new is None:
                    new = dict(binding)
                new[term] = value
            elif bound != value:
                return None
    return binding if new is None else new


# ---------------------------------------------------------------------------
# Slot-tuple kernels
# ---------------------------------------------------------------------------


def _build_index(extent: frozenset, positions: tuple[int, ...]) -> dict:
    key = itemgetter(*positions)
    built: dict = {}
    for row in extent:
        built.setdefault(key(row), []).append(row)
    return built


def _unit(row: tuple) -> tuple:
    return ()


def _tuple_getter(positions: list[int]):
    """``row -> tuple(row[p] for p in positions)``, as fast as it comes."""
    if not positions:
        return _unit
    if len(positions) == 1:
        (p,) = positions
        return lambda row: (row[p],)
    return itemgetter(*positions)


def _ref(term, slots: dict[Var, int]):
    """A term as read from a binding: ``(True, slot)`` for a bound
    variable, ``(False, value)`` for a constant, ``None`` if unbound."""
    if isinstance(term, Const):
        return (False, term.value)
    slot = slots.get(term)
    return None if slot is None else (True, slot)


def _row_builder(refs: list[tuple[bool, object]]):
    """``binding -> row`` for terms given as :func:`_ref` pairs."""
    if all(is_slot for is_slot, _ in refs):
        return _tuple_getter([slot for _, slot in refs])
    return lambda b: tuple([b[x] if is_slot else x for is_slot, x in refs])


def _unsafe(message: str):
    def fail(bindings, relations, domain):
        from .datalog import DatalogError

        raise DatalogError(message)

    return fail


class _Step:
    """One positive atom of a kernel: the index it probes and how.

    *positions* are the row positions the index is keyed on (constants
    first, then the variables bound earlier); *key* reads the probe key
    from a binding, or is ``None`` when the key is the same for every
    binding (*const_key*, or no index at all: a scan).  *extend* reads
    the newly bound positions of a matching row; ``None`` in a probe
    means every position is bound, so the step only filters.  *dups*
    pairs the positions of a variable repeated within the atom.
    """

    __slots__ = ("source", "positions", "key", "const_key", "extend", "dups")

    def __init__(self, info: _AtomInfo, slots: dict[Var, int]):
        self.source = info.index
        positions = [pos for pos, _ in info.consts]
        consts = tuple(value for _, value in info.consts)
        bound: list[int] = []
        new: list[int] = []
        dups: list[tuple[int, int]] = []
        first: dict[Var, int] = {}
        for pos, var in info.var_slots:
            if var in slots:
                positions.append(pos)
                bound.append(slots[var])
            elif var in first:
                dups.append((pos, first[var]))
            else:
                first[var] = pos
                new.append(pos)
        for var in first:
            slots[var] = len(slots)
        self.positions = tuple(positions)
        self.dups = tuple(dups)
        self.const_key = consts[0] if len(consts) == 1 else consts
        if not bound:
            self.key = None
            self.extend = _tuple_getter(new)
        else:
            if not consts:
                self.key = itemgetter(*bound)
            elif len(bound) == 1:
                (slot,) = bound
                self.key = lambda b: consts + (b[slot],)
            else:
                get = itemgetter(*bound)
                self.key = lambda b: consts + get(b)
            self.extend = _tuple_getter(new) if new else None

    def run(self, bindings: list[tuple], source: frozenset, pool) -> list[tuple]:
        index = None
        if self.positions:
            if pool is not None:
                index = pool.index(source, self.positions)
            else:
                index = _build_index(source, self.positions)
        extend, dups = self.extend, self.dups
        if self.key is None:
            rows = source if index is None else index.get(self.const_key, ())
            if dups:
                rows = [r for r in rows if all(r[a] == r[b] for a, b in dups)]
            new = [extend(r) for r in rows]
            if len(bindings) == 1 and not bindings[0]:
                return new
            return [b + n for b in bindings for n in new]
        key, get = self.key, index.get
        if extend is None:
            return [b for b in bindings if key(b) in index]
        if dups:
            return [
                b + extend(r)
                for b in bindings
                for r in get(key(b), ())
                if all(r[x] == r[y] for x, y in dups)
            ]
        return [b + extend(r) for b in bindings for r in get(key(b), ())]


def _compile_filters(plan: JoinPlan, slots: dict[Var, int]) -> list:
    """The body's non-join literals as filters over slot tuples.

    Each filter maps ``(bindings, relations, domain)`` to the bindings
    that survive it, extended by the slots it binds.  Every binding
    of a kernel binds the same variables, so the order in which the
    positive equalities resolve is decided here once: repeatedly, an
    equality with a bound or constant side binds its other side or
    filters; one with both sides unbound after that ranges over the
    active domain.  Unsafe literals become filters that raise, reached
    only when some binding gets that far.
    """
    filters = []
    pending = list(plan.pos_eqs)
    progress = True
    while pending and progress:
        progress = False
        still: list[Eq] = []
        for eq in pending:
            left, right = _ref(eq.left, slots), _ref(eq.right, slots)
            if left is None and right is None:
                still.append(eq)
                continue
            progress = True
            if left is None or right is None:
                unbound, (is_slot, x) = (
                    (eq.left, right) if left is None else (eq.right, left)
                )
                slots[unbound] = len(slots)
                if is_slot:
                    filters.append(lambda bs, r, d, i=x: [b + (b[i],) for b in bs])
                else:
                    filters.append(lambda bs, r, d, v=x: [b + (v,) for b in bs])
            else:
                filters.append(_compare(left, right, equal=True))
        pending = still
    for eq in pending:
        # x = y with both sides unbound: both range over the domain.
        # A side bound by an earlier expansion is overwritten.
        width = len(slots)
        ls = slots.setdefault(eq.left, len(slots))
        rs = slots.setdefault(eq.right, len(slots))
        filters.append(_expansion(ls, rs, len(slots) - width))
    for eq in plan.neg_eqs:
        left, right = _ref(eq.left, slots), _ref(eq.right, slots)
        if left is None or right is None:
            filters.append(_unsafe(f"unsafe nonequality {eq!r}"))
        else:
            filters.append(_compare(left, right, equal=False))
    for atom in plan.negative_atoms:
        refs = [_ref(t, slots) for t in atom.terms]
        if any(ref is None for ref in refs):
            filters.append(_unsafe(f"unsafe negative literal not {atom!r}"))
            continue
        filters.append(_absent(atom.relation, _row_builder(refs)))
    return filters


def _absent(name: str, row):
    def keep(bindings, relations, domain):
        extent = relations.get(name, _EMPTY)
        return [b for b in bindings if row(b) not in extent]

    return keep


def _compare(left, right, equal: bool):
    (lslot, lx), (rslot, rx) = left, right
    if lslot and rslot:
        if equal:
            return lambda bs, r, d: [b for b in bs if b[lx] == b[rx]]
        return lambda bs, r, d: [b for b in bs if b[lx] != b[rx]]
    if lslot or rslot:
        i, v = (lx, rx) if lslot else (rx, lx)
        if equal:
            return lambda bs, r, d: [b for b in bs if b[i] == v]
        return lambda bs, r, d: [b for b in bs if b[i] != v]
    keep = (lx == rx) == equal
    return lambda bs, r, d: bs if keep else []


def _expansion(ls: int, rs: int, grow: int):
    def expand(bindings, relations, domain):
        out = []
        for b in bindings:
            for v in domain:
                row = list(b) + [None] * grow
                row[ls] = row[rs] = v
                out.append(tuple(row))
        return out

    return expand


class Kernel:
    """One body compiled for one atom order: a join over slot tuples.

    A binding is a tuple with one value per slot; each variable takes
    the next slot when it is first bound — by an atom in join order, by
    an equality, or by an active-domain expansion — so where every
    variable lives is fixed at compile time.  :meth:`bindings` runs the
    index probes and then the filters; :meth:`fire` projects the head
    straight from the slots.
    """

    __slots__ = ("steps", "filters", "slots", "_heads")

    def __init__(self, plan: JoinPlan, order: tuple[int, ...]):
        slots: dict[Var, int] = {}
        self.steps = tuple(_Step(plan.atoms[i], slots) for i in order)
        self.filters = tuple(_compile_filters(plan, slots))
        self.slots = slots
        self._heads: dict[Atom, object] = {}

    def bindings(
        self,
        sources: list[frozenset],
        relations,
        domain: frozenset,
        pool: IndexPool | None = None,
    ) -> list[tuple]:
        """All satisfying bindings of the body, as slot tuples."""
        if not all(sources):
            return []
        bindings: list[tuple] = [()]
        for step in self.steps:
            bindings = step.run(bindings, sources[step.source], pool)
            if not bindings:
                return []
        for keep in self.filters:
            bindings = keep(bindings, relations, domain)
            if not bindings:
                return []
        return bindings

    def as_dicts(self, bindings: list[tuple]) -> list[dict[Var, object]]:
        """Slot tuples as ``dict[Var, value]`` bindings."""
        names = sorted(self.slots, key=self.slots.__getitem__)
        return [dict(zip(names, b)) for b in bindings]

    def fire(
        self,
        rule,
        sources: list[frozenset],
        relations,
        domain: frozenset,
        pool: IndexPool | None = None,
    ) -> frozenset:
        """The head tuples *rule* (whose body this kernel compiles) derives."""
        bindings = self.bindings(sources, relations, domain, pool)
        if not bindings:
            return _EMPTY
        project = self._heads.get(rule.head)
        if project is None:
            project = self._heads[rule.head] = self._projection(rule)
        return project(bindings)

    def _projection(self, rule):
        refs = [_ref(t, self.slots) for t in rule.head.terms]
        if any(ref is None for ref in refs):
            fail = _unsafe(f"unsafe rule {rule!r}")
            return lambda bs: fail(bs, None, None)
        # Bindings are tuples built afresh by every evaluation, never a
        # source row, so a head that reads every slot in order is the
        # binding itself.
        if refs == [(True, slot) for slot in range(len(self.slots))]:
            return frozenset
        build = _row_builder(refs)
        return lambda bs: frozenset(map(build, bs))


@lru_cache(maxsize=4096)
def plan_for(body: tuple[Literal, ...]) -> JoinPlan:
    """The (memoized) compiled plan of a rule body.

    Rule ASTs are immutable and hashable, so plans are compiled once
    per distinct body for the lifetime of the process.
    """
    return JoinPlan(body)
