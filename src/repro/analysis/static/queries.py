"""Whole-query static analysis: :func:`analyze_query`.

One structural analyzer for every :class:`~repro.lang.query.Query`
shape in the repo — FO formulas, UCQ¬ rule sets, (stratified /
nonrecursive) Datalog programs, the generic combinators and the proof
adaptors.  The scattered per-class ``is_monotone_syntactic`` booleans
are thin shims over this function, so the syntactic CALM theory has
exactly one implementation, and every verdict comes with diagnostics
saying *which* construct blocked the certificate.

Verdict semantics (see :mod:`.diagnostics`): ``monotone`` CERTIFIED is
sound (the query provably is monotone); the negative side is UNKNOWN —
semantic monotonicity is undecidable, and a negated atom does not
*refute* it.  ``empty`` CERTIFIED means the query provably returns the
empty relation on every input (the inflationary certificate).
"""

from __future__ import annotations

import weakref

from ...lang.combinators import (
    ConstantQuery,
    EmptinessQuery,
    NonemptyQuery,
    RelationQuery,
    UnionQuery,
    UpdateQuery,
)
from ...lang.datalog import DatalogQuery, StratifiedQuery
from ...lang.query import EmptyQuery, FOQuery, PythonQuery, Query
from ...lang.ucq import UCQNegQuery, UCQQuery
from ...lang.whilelang import WhileQuery
from .diagnostics import Diagnostic, StaticReport, Verdict, combine
from .polarity import DependencyGraph, formula_diagnostics, _trim

# Reports are pure functions of the (immutable, post-construction)
# query objects; memoize per object so hot callers (the scheduler's
# batching gate, repeated property_report calls during sweeps) pay the
# walk once.  A weak-key store keeps the analyzer from pinning queries
# alive and — deliberately — never touches the query object itself:
# transducer fingerprints canonically pickle queries, so hanging a
# cache attribute on them would perturb run-cache keys.
_MEMO: "weakref.WeakKeyDictionary[Query, StaticReport]" = (
    weakref.WeakKeyDictionary()
)


def analyze_query(query: Query) -> StaticReport:
    """The static report for one query (memoized per query object)."""
    try:
        cached = _MEMO.get(query)
    except TypeError:  # unhashable / non-weakrefable query object
        return _analyze(query)
    if cached is not None:
        return cached
    report = _analyze(query)
    try:
        _MEMO[query] = report
    except TypeError:
        pass
    return report


def _report(
    query: Query,
    monotone: Verdict,
    diagnostics: list[Diagnostic],
    provenance: list[str],
    empty: Verdict = Verdict.UNKNOWN,
) -> StaticReport:
    return StaticReport(
        subject=type(query).__name__,
        kind="query",
        verdicts={"monotone": monotone, "empty": empty},
        diagnostics=tuple(diagnostics),
        provenance=tuple(provenance),
        reads=frozenset(query.relations()),
    )


def _from_child(query: Query, child: StaticReport, note: str) -> StaticReport:
    return StaticReport(
        subject=type(query).__name__,
        kind="query",
        verdicts=dict(child.verdicts),
        diagnostics=child.diagnostics,
        provenance=child.provenance + (note,),
        reads=frozenset(query.relations()),
    )


def _analyze(query: Query) -> StaticReport:
    # --- trivially decided shapes ------------------------------------
    if isinstance(query, EmptyQuery):
        return _report(
            query,
            Verdict.CERTIFIED,
            [],
            ["monotone+empty: the constant-empty query"],
            empty=Verdict.CERTIFIED,
        )
    if isinstance(query, ConstantQuery):
        empty = Verdict.CERTIFIED if not query.tuples else Verdict.REFUTED
        return _report(
            query,
            Verdict.CERTIFIED,
            [],
            ["monotone: constant query (input-independent)"],
            empty=empty,
        )
    if isinstance(query, RelationQuery):
        return _report(
            query,
            Verdict.CERTIFIED,
            [],
            [f"monotone: verbatim projection of relation {query.name!r}"],
        )
    if isinstance(query, PythonQuery):
        if query._monotone:
            return _report(
                query,
                Verdict.CERTIFIED,
                [],
                [
                    "monotone: author-declared (PythonQuery(monotone=True); "
                    "genericity and monotonicity are the author's obligation)"
                ],
            )
        return _report(
            query,
            Verdict.UNKNOWN,
            [
                Diagnostic(
                    "CALM005",
                    f"opaque Python query {query.name!r} without a "
                    "monotone declaration",
                    span=_trim(query),
                )
            ],
            [],
        )

    # --- language classes --------------------------------------------
    if isinstance(query, FOQuery):
        found = formula_diagnostics(query.formula)
        if not found:
            return _report(
                query,
                Verdict.CERTIFIED,
                [],
                ["monotone: positive-existential FO (UCQ-expressible, "
                 "Prop. 7 / Cor. 14)"],
            )
        return _report(query, Verdict.UNKNOWN, found, [])

    if isinstance(query, UCQNegQuery):  # covers UCQQuery
        found: list[Diagnostic] = []
        for i, rule in enumerate(query.rules):
            found.extend(
                Diagnostic(
                    d.code, d.message,
                    where=f"disjunct {i + 1}", span=d.span,
                )
                for d in _ucq_rule_diagnostics(rule)
            )
        if not found:
            note = (
                "monotone: negation-free union of conjunctive queries"
                + ("" if isinstance(query, UCQQuery) else
                   " (no negated atoms; (in)equalities are monotone "
                   "constraints)")
            )
            return _report(query, Verdict.CERTIFIED, [], [note])
        return _report(query, Verdict.UNKNOWN, found, [])

    # Before its base class: a Datalog program is one negation-free stratum.
    if isinstance(query, DatalogQuery):
        return _report(
            query,
            Verdict.CERTIFIED,
            [],
            ["monotone: Datalog without negation (least-fixpoint "
             "semantics is monotone in the EDB)"],
        )

    if isinstance(query, StratifiedQuery):
        return _analyze_program_output(query)

    # --- combinators and adaptors ------------------------------------
    if isinstance(query, UnionQuery):
        children = [analyze_query(q) for q in query.parts]
        diags = [
            d.qualified(f"part {i + 1}")
            for i, child in enumerate(children)
            for d in child.diagnostics
        ]
        monotone = combine(c.verdict("monotone") for c in children)
        empty = combine(c.verdict("empty") for c in children)
        return _report(
            query, monotone, diags,
            ["monotone: union of monotone parts"] if monotone.certified
            else [],
            empty=empty if empty is not Verdict.REFUTED else Verdict.UNKNOWN,
        )

    if isinstance(query, NonemptyQuery):
        child = analyze_query(query.base)
        return _from_child(
            query, child,
            "monotone lifts through nonemptiness (∃-quantification of a "
            "monotone query)",
        )

    if isinstance(query, EmptinessQuery):
        child = analyze_query(query.base)
        if child.certifies("empty"):
            return _report(
                query,
                Verdict.CERTIFIED,
                [],
                ["monotone: emptiness of a certifiably empty query is "
                 "constantly true"],
            )
        return _report(
            query,
            Verdict.UNKNOWN,
            [
                Diagnostic(
                    "CALM007",
                    "emptiness test: answers can be retracted as the "
                    "input grows",
                    span=_trim(query),
                )
            ],
            [],
        )

    if isinstance(query, UpdateQuery):
        ins = analyze_query(query.ins)
        dele = analyze_query(query.delete)
        if dele.certifies("empty"):
            diags = [d.qualified("insert") for d in ins.diagnostics]
            monotone = ins.verdict("monotone")
            return _report(
                query, monotone, diags,
                ["monotone: with an empty delete, the update formula "
                 "reduces to old ∪ insert"] if monotone.certified else [],
            )
        return _report(
            query,
            Verdict.UNKNOWN,
            [
                Diagnostic(
                    "CALM006",
                    f"update of {query.relation!r} with a non-empty "
                    "delete query (deletions are non-monotone)",
                    span=_trim(query),
                )
            ]
            + [d.qualified("insert") for d in ins.diagnostics]
            + [d.qualified("delete") for d in dele.diagnostics],
            [],
        )

    if isinstance(query, WhileQuery):
        return _report(
            query,
            Verdict.UNKNOWN,
            [
                Diagnostic(
                    "CALM007",
                    "while-loop program: iteration with wholesale "
                    "assignment is non-monotone in general",
                    span=_trim(query),
                )
            ],
            [],
        )

    # Adaptors from repro.core.wrappers are imported lazily: core
    # imports lang, and this module must stay importable from lang
    # shims without a package cycle at import time.
    from ...core.wrappers import GatedQuery, InnerQuery, TotalizedQuery

    if isinstance(query, InnerQuery):
        child = analyze_query(query.inner)
        return _from_child(
            query, child,
            "monotone lifts through source reconstruction (unions of "
            "outer relations feed the inner query)",
        )

    if isinstance(query, TotalizedQuery):
        child = analyze_query(query.base)
        return _from_child(
            query, child,
            "monotone lifts through totalization only when the base is "
            "total; treated as the base's verdict (documented deviation)",
        )

    if isinstance(query, GatedQuery):
        child = analyze_query(query.base)
        if child.certifies("empty"):
            return _report(
                query,
                Verdict.CERTIFIED,
                [],
                ["monotone+empty: gating an empty query is empty"],
                empty=Verdict.CERTIFIED,
            )
        return _report(
            query,
            Verdict.UNKNOWN,
            [
                Diagnostic(
                    "CALM007",
                    f"gate on nullary relation {query.gate!r}: output "
                    "flips from empty to Q(Stored) when the gate sets",
                    span=_trim(query),
                )
            ],
            [],
        )

    # --- unknown query classes ---------------------------------------
    # An override of is_monotone_syntactic on a class the analyzer has
    # no structural knowledge of is an author declaration (the pattern
    # PythonQuery exposes as a flag) — trust it, with provenance.  The
    # language classes above never reach this branch (they are
    # dispatched structurally), so their analyzer-backed shims cannot
    # recurse into it.
    empty = Verdict.UNKNOWN
    if (
        type(query).is_empty_syntactic is not Query.is_empty_syntactic
        and query.is_empty_syntactic()
    ):
        empty = Verdict.CERTIFIED
    override = type(query).is_monotone_syntactic
    if override is not Query.is_monotone_syntactic:
        if bool(query.is_monotone_syntactic()):
            return _report(
                query,
                Verdict.CERTIFIED,
                [],
                [f"monotone: author-declared by "
                 f"{type(query).__name__}.is_monotone_syntactic"],
                empty=empty,
            )
    return _report(
        query,
        Verdict.UNKNOWN,
        [
            Diagnostic(
                "CALM005",
                f"no structural analysis for {type(query).__name__}",
                span=_trim(query),
            )
        ],
        [],
        empty=empty,
    )


def _ucq_rule_diagnostics(rule) -> list[Diagnostic]:
    """Negated-atom findings for one single-pass UCQ¬ disjunct.

    UCQ¬ heads are labels (no fixpoint), so every negated atom reads an
    input relation: CALM004, never CALM001.
    """
    from .polarity import rule_diagnostics

    return rule_diagnostics(rule, idb=frozenset())


def _analyze_program_output(query: StratifiedQuery) -> StaticReport:
    """Output-sensitive certificate for stratified/nonrecursive programs.

    The query returns a single IDB relation of the perfect model; when
    that relation's backward slice through the dependency graph is
    negation-free, the slice is a positive program and the query is
    monotone — even if other strata use negation.
    """
    program = query.program
    graph = DependencyGraph(program.rules)
    idb = frozenset(program.idb_schema.relation_names())
    if graph.monotone_in(query.output):
        ignored = graph.tainted()
        note = (
            f"monotone: the backward slice of {query.output!r} is "
            "negation-free (positive-subprogram certificate)"
        )
        if ignored:
            note += (
                f"; negation confined to unrelated relations "
                f"{sorted(ignored)}"
            )
        return _report(query, Verdict.CERTIFIED, [], [note])
    found = graph.slice_diagnostics(query.output, idb=idb)
    return _report(query, Verdict.UNKNOWN, found, [])
