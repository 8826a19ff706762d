"""Dedalus program analysis: :func:`analyze_dedalus`.

The Dedalus embedding (Section "causality and Dedalus" in the repo's
docs) splits rules into deductive (same timestep), inductive (next
timestep) and asynchronous (arbitrary later timestep at another node).
The static pass answers:

* ``monotone_edb`` — certified when no rule negates a relational atom:
  the program's derivations only ever grow with the EDB, timestep by
  timestep (the Datalog core is positive).  Output-insensitive — a
  Dedalus program has no single distinguished output, so the
  certificate covers the whole IDB.
* ``entanglement_free`` — **exactly decidable** (a rule either copies
  ``now`` into a data position or it does not): entangled programs can
  name unboundedly many new values and leave the CALM fragment
  (CALM008).
* ``stratifiable`` — whether the deductive core has a stratified
  semantics.  Always certified here: a ``DedalusProgram`` stratifies
  its core (``deductive_program``) when it is built, so a negative
  cycle fails construction — a hard CALM009 error, the same class of
  defect as a parse error.
"""

from __future__ import annotations

from ...dedalus.program import DedalusProgram
from .diagnostics import Diagnostic, StaticReport, Verdict
from .polarity import DependencyGraph, _trim, rule_diagnostics


def analyze_dedalus(program: DedalusProgram) -> StaticReport:
    """The static report for a Dedalus program."""
    diagnostics: list[Diagnostic] = []
    idb = frozenset(program.idb_schema)

    evaluation_rules = tuple(d.evaluation_rule() for d in program.rules)
    graph = DependencyGraph(evaluation_rules)

    negated = False
    for i, (drule, rule) in enumerate(zip(program.rules, evaluation_rules)):
        kind = drule.kind.value
        where = f"rule {i + 1} ({kind})"
        found = rule_diagnostics(rule, idb=idb, where=where)
        if found:
            negated = True
            diagnostics.extend(found)
        if drule.is_entangled():
            diagnostics.append(
                Diagnostic(
                    "CALM008",
                    f"rule copies `now` into a data position: {_trim(drule)}",
                    where=where,
                    span=_trim(drule.head),
                )
            )

    entangled = program.is_entangled()
    verdicts = {
        "monotone_edb": Verdict.UNKNOWN if negated else Verdict.CERTIFIED,
        "entanglement_free": (
            Verdict.REFUTED if entangled else Verdict.CERTIFIED
        ),
        # The program built its deductive core, a stratified program
        # (or none), when it was constructed: a negative cycle raised
        # StratificationError there, which lint reports as CALM009.
        "stratifiable": Verdict.CERTIFIED,
    }
    provenance: list[str] = []
    if not negated:
        provenance.append(
            "monotone_edb: every rule body is positive — the Dedalus "
            "core is a positive Datalog program, monotone in the EDB"
        )
    if not entangled:
        provenance.append(
            "entanglement_free: no rule head carries `now` in a data "
            "position (Thm. 18's expressiveness jump is avoided)"
        )
    reads = frozenset(
        name for name in _graph_reads(graph) if name in program.edb_schema
    )
    return StaticReport(
        subject=f"DedalusProgram({len(program.rules)} rules)",
        kind="dedalus-program",
        verdicts=verdicts,
        diagnostics=tuple(diagnostics),
        provenance=tuple(provenance),
        reads=reads,
    )


def _graph_reads(graph: DependencyGraph) -> frozenset[str]:
    return frozenset(e.body for e in graph.edges)
