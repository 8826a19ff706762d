"""Abstract syntax for first-order formulas and Datalog-style rules.

Two term kinds (:class:`Var`, :class:`Const`), relational atoms,
(in)equalities, the FO connectives and quantifiers, and rules whose
bodies are lists of literals.  All nodes are immutable and hashable.

The same rule AST serves plain Datalog (no negative literals),
stratified Datalog, nonrecursive Datalog, and UCQ¬ (one rule per
disjunct) — the language classes in :mod:`repro.lang` restrict which
shapes they accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..db.values import Value

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A variable term."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant term (an element of ``dom``)."""

    value: Value

    def __repr__(self) -> str:
        return f"«{self.value!r}»"


Term = Union[Var, Const]


# ---------------------------------------------------------------------------
# FO formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Base class for FO formulas."""

    def free_vars(self) -> frozenset[Var]:
        """The free variables of the formula."""
        raise NotImplementedError

    def relations(self) -> frozenset[str]:
        """All relation names mentioned (used by obliviousness checks)."""
        raise NotImplementedError

    def is_positive(self) -> bool:
        """True when the formula is existential-positive (hence monotone)."""
        raise NotImplementedError

    # connective sugar ------------------------------------------------------

    def __and__(self, other: "Formula") -> "And":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    """A relational atom ``R(t1, ..., tk)``."""

    relation: str
    terms: tuple[Term, ...]

    def free_vars(self) -> frozenset[Var]:
        return frozenset(t for t in self.terms if isinstance(t, Var))

    def relations(self) -> frozenset[str]:
        return frozenset((self.relation,))

    def is_positive(self) -> bool:
        return True

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"


@dataclass(frozen=True, repr=False)
class Eq(Formula):
    """Equality ``t1 = t2``."""

    left: Term
    right: Term

    def free_vars(self) -> frozenset[Var]:
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Var))

    def relations(self) -> frozenset[str]:
        return frozenset()

    def is_positive(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{self.left!r} = {self.right!r}"


@dataclass(frozen=True, repr=False)
class Not(Formula):
    """Negation."""

    body: Formula

    def free_vars(self) -> frozenset[Var]:
        return self.body.free_vars()

    def relations(self) -> frozenset[str]:
        return self.body.relations()

    def is_positive(self) -> bool:
        # Negated equalities are tolerated by some positive fragments but
        # x != y is not monotone-preserving in general queries with
        # quantification over adom; we stay strict.
        return False

    def __repr__(self) -> str:
        return f"¬({self.body!r})"


@dataclass(frozen=True, repr=False)
class And(Formula):
    """Conjunction of one or more formulas."""

    parts: tuple[Formula, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("And needs at least one conjunct")

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for p in self.parts:
            out |= p.free_vars()
        return out

    def relations(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.relations()
        return out

    def is_positive(self) -> bool:
        return all(p.is_positive() for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(p) for p in self.parts) + ")"


@dataclass(frozen=True, repr=False)
class Or(Formula):
    """Disjunction of one or more formulas."""

    parts: tuple[Formula, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Or needs at least one disjunct")

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for p in self.parts:
            out |= p.free_vars()
        return out

    def relations(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.relations()
        return out

    def is_positive(self) -> bool:
        return all(p.is_positive() for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(p) for p in self.parts) + ")"


@dataclass(frozen=True, repr=False)
class Exists(Formula):
    """Existential quantification over one or more variables."""

    variables: tuple[Var, ...]
    body: Formula

    def __post_init__(self):
        if not self.variables:
            raise ValueError("Exists needs at least one variable")

    def free_vars(self) -> frozenset[Var]:
        return self.body.free_vars() - frozenset(self.variables)

    def relations(self) -> frozenset[str]:
        return self.body.relations()

    def is_positive(self) -> bool:
        return self.body.is_positive()

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∃{names}.({self.body!r})"


@dataclass(frozen=True, repr=False)
class Forall(Formula):
    """Universal quantification over one or more variables."""

    variables: tuple[Var, ...]
    body: Formula

    def __post_init__(self):
        if not self.variables:
            raise ValueError("Forall needs at least one variable")

    def free_vars(self) -> frozenset[Var]:
        return self.body.free_vars() - frozenset(self.variables)

    def relations(self) -> frozenset[str]:
        return self.body.relations()

    def is_positive(self) -> bool:
        return False

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∀{names}.({self.body!r})"


FALSE = Or.__new__(Or)  # placeholder replaced below


def true() -> Formula:
    """A valid formula (empty conjunction is disallowed; use x=x free-less trick)."""
    return Eq(Const("⊤"), Const("⊤"))


def false() -> Formula:
    """An unsatisfiable formula."""
    return Eq(Const("⊤"), Const("⊥"))


# ---------------------------------------------------------------------------
# Rules (Datalog family)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Literal:
    """A rule-body literal: a possibly negated atom or (in)equality.

    ``atom`` is either an :class:`Atom` or an :class:`Eq`.
    """

    atom: Union[Atom, Eq]
    positive: bool = True

    def free_vars(self) -> frozenset[Var]:
        return self.atom.free_vars()

    def __repr__(self) -> str:
        if self.positive:
            return repr(self.atom)
        if isinstance(self.atom, Eq):
            return f"{self.atom.left!r} != {self.atom.right!r}"
        return f"not {self.atom!r}"


@dataclass(frozen=True, repr=False)
class Rule:
    """A rule ``head :- body``.

    *Safety* (every head variable and every variable in a negative
    literal occurs in some positive relational body literal) is checked
    by :meth:`check_safe`; language classes call it on construction of
    programs.
    """

    head: Atom
    body: tuple[Literal, ...] = field(default_factory=tuple)

    def positive_body_atoms(self) -> tuple[Atom, ...]:
        return tuple(
            lit.atom
            for lit in self.body
            if lit.positive and isinstance(lit.atom, Atom)
        )

    def negative_body_atoms(self) -> tuple[Atom, ...]:
        return tuple(
            lit.atom
            for lit in self.body
            if not lit.positive and isinstance(lit.atom, Atom)
        )

    def body_relations(self) -> frozenset[str]:
        return frozenset(
            lit.atom.relation for lit in self.body if isinstance(lit.atom, Atom)
        )

    def relations(self) -> frozenset[str]:
        return self.body_relations() | {self.head.relation}

    def variables(self) -> frozenset[Var]:
        out = self.head.free_vars()
        for lit in self.body:
            out |= lit.free_vars()
        return out

    def is_positive(self) -> bool:
        """No negative literals at all (Datalog-proper rule)."""
        return all(lit.positive for lit in self.body)

    def check_safe(self) -> None:
        """Raise :class:`ValueError` unless the rule is range-restricted."""
        bound: set[Var] = set()
        for atom in self.positive_body_atoms():
            bound |= atom.free_vars()
        # Positive equalities with one side bound propagate bindings.
        changed = True
        while changed:
            changed = False
            for lit in self.body:
                if lit.positive and isinstance(lit.atom, Eq):
                    left, right = lit.atom.left, lit.atom.right
                    if isinstance(left, Var) and left not in bound and (
                        isinstance(right, Const) or right in bound
                    ):
                        bound.add(left)
                        changed = True
                    if isinstance(right, Var) and right not in bound and (
                        isinstance(left, Const) or left in bound
                    ):
                        bound.add(right)
                        changed = True
        unsafe = self.head.free_vars() - bound
        if unsafe:
            raise ValueError(f"unsafe head variables {sorted(v.name for v in unsafe)} in {self!r}")
        for lit in self.body:
            if not lit.positive:
                loose = lit.free_vars() - bound
                if loose:
                    raise ValueError(
                        f"unsafe variables {sorted(v.name for v in loose)} "
                        f"in negative literal of {self!r}"
                    )

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- " + ", ".join(repr(lit) for lit in self.body) + "."
