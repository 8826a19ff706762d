"""The static CALM analyzer: diagnostics, polarity, dependency graphs,
transducer certificates, reporting, and the deprecation shims."""

import warnings

import pytest

from repro.analysis import (
    Diagnostic,
    Severity,
    Verdict,
    analyze_dedalus,
    analyze_query,
    analyze_transducer,
    render_report,
    render_reports,
    reports_to_json,
)
from repro.analysis.static import DependencyGraph, combine, formula_diagnostics
from repro.analysis.static.diagnostics import CODES
from repro.core.examples import ALL_EXAMPLES
from repro.db import schema
from repro.db.schema import DatabaseSchema
from repro.dedalus.program import DedalusProgram
from repro.lang import (
    EmptyQuery,
    FOQuery,
    StratifiedQuery,
    UCQNegQuery,
    UCQQuery,
)
from repro.lang.combinators import ConstantQuery, EmptinessQuery, UnionQuery


S2 = schema(S=2)
ST = schema(S=2, T=1)


# ---------------------------------------------------------------------------
# Verdict algebra and diagnostic model
# ---------------------------------------------------------------------------


class TestVerdictAlgebra:
    def test_combine_all_certified(self):
        assert combine([Verdict.CERTIFIED, Verdict.CERTIFIED]) is Verdict.CERTIFIED

    def test_combine_any_unknown(self):
        assert combine([Verdict.CERTIFIED, Verdict.UNKNOWN]) is Verdict.UNKNOWN

    def test_combine_refuted_dominates(self):
        assert (
            combine([Verdict.UNKNOWN, Verdict.REFUTED, Verdict.CERTIFIED])
            is Verdict.REFUTED
        )

    def test_combine_empty_is_certified(self):
        assert combine([]) is Verdict.CERTIFIED

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("CALM999", "nope")

    def test_default_severity_from_registry(self):
        assert Diagnostic("CALM001", "x").severity is Severity.WARNING
        assert Diagnostic("CALM009", "x").severity is Severity.ERROR

    def test_every_code_has_slug_and_hint(self):
        for code, (slug, severity, hint) in CODES.items():
            assert code.startswith("CALM") and slug and hint
            assert isinstance(severity, Severity)

    def test_qualified_prepends_breadcrumb(self):
        d = Diagnostic("CALM004", "x", where="rule 1")
        assert d.qualified("output").where == "output › rule 1"


# ---------------------------------------------------------------------------
# Per-code firing / non-firing programs (acceptance: ≥5 distinct codes)
# ---------------------------------------------------------------------------


class TestCALM001NegatedIdbDependency:
    def test_fires(self):
        q = StratifiedQuery.parse(
            """
            T(x, y) :- S(x, y).
            Blocked(x, y) :- S(x, y), not T(x, y).
            """,
            "Blocked",
            S2,
        )
        report = analyze_query(q)
        assert "CALM001" in report.codes()
        assert not report.certifies("monotone")

    def test_does_not_fire_for_positive_slice(self):
        # Same program, but the output's backward slice is negation-free.
        q = StratifiedQuery.parse(
            """
            T(x, y) :- S(x, y).
            Blocked(x, y) :- S(x, y), not T(x, y).
            """,
            "T",
            S2,
        )
        report = analyze_query(q)
        assert report.codes() == frozenset()
        assert report.certifies("monotone")


class TestCALM002UniversalQuantifier:
    def test_fires(self):
        q = FOQuery.parse("forall y: S(x, y)", "x", S2)
        report = analyze_query(q)
        assert "CALM002" in report.codes()
        assert not report.certifies("monotone")

    def test_does_not_fire_for_existential(self):
        q = FOQuery.parse("exists y: S(x, y)", "x", S2)
        report = analyze_query(q)
        assert "CALM002" not in report.codes()
        assert report.certifies("monotone")


class TestCALM003SystemRead:
    def test_fires_naming_the_role(self):
        report = analyze_transducer(ALL_EXAMPLES["example10"]())
        hits = [d for d in report.diagnostics if d.code == "CALM003"]
        assert hits and all(d.where for d in hits)
        assert report.verdict("oblivious").refuted

    def test_does_not_fire_for_oblivious(self):
        report = analyze_transducer(ALL_EXAMPLES["example3"]())
        assert "CALM003" not in report.codes()
        assert report.certifies("oblivious")


class TestCALM004NegatedSubformula:
    def test_fires_on_fo_negation(self):
        q = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", S2)
        report = analyze_query(q)
        assert "CALM004" in report.codes()

    def test_fires_on_ucqneg_negated_atom(self):
        q = UCQNegQuery.parse("Ans(x, y) :- S(x, y), not S(y, x).", S2)
        report = analyze_query(q)
        assert "CALM004" in report.codes()
        assert "disjunct 1" in report.diagnostics[0].where

    def test_does_not_fire_on_inequality(self):
        q = UCQNegQuery.parse("Ans(x) :- S(x, y), T(y), x != y.", ST)
        report = analyze_query(q)
        assert report.codes() == frozenset()
        assert report.certifies("monotone")


class TestCALM005OpaqueQuery:
    def test_fires_for_undeclared_python_query(self):
        from repro.lang import PythonQuery

        q = PythonQuery(lambda inst: [], arity=0, input_schema=S2)
        report = analyze_query(q)
        assert "CALM005" in report.codes()
        assert not report.certifies("monotone")

    def test_does_not_fire_for_declared_monotone(self):
        from repro.lang import PythonQuery

        q = PythonQuery(lambda inst: [], arity=0, input_schema=S2, monotone=True)
        report = analyze_query(q)
        assert report.codes() == frozenset()
        assert report.certifies("monotone")
        assert any("author-declared" in note for note in report.provenance)


class TestCALM007NonMonotoneConstruct:
    def test_fires_for_emptiness(self):
        base = UCQQuery.parse("Ans(x) :- T(x).", ST)
        report = analyze_query(EmptinessQuery(base))
        assert "CALM007" in report.codes()

    def test_does_not_fire_for_nonemptiness(self):
        from repro.lang.combinators import NonemptyQuery

        base = UCQQuery.parse("Ans(x) :- T(x).", ST)
        report = analyze_query(NonemptyQuery(base))
        assert report.codes() == frozenset()
        assert report.certifies("monotone")


class TestCALM008Entanglement:
    def test_fires_for_entangled_program(self):
        program = DedalusProgram.parse(
            "Mark(now) @next :- S(x).", DatabaseSchema({"S": 1})
        )
        report = analyze_dedalus(program)
        assert "CALM008" in report.codes()
        assert report.verdict("entanglement_free").refuted

    def test_does_not_fire_without_entanglement(self):
        program = DedalusProgram.parse(
            "P(x) @next :- S(x).", DatabaseSchema({"S": 1})
        )
        report = analyze_dedalus(program)
        assert "CALM008" not in report.codes()
        assert report.certifies("entanglement_free")
        assert report.certifies("monotone_edb")


# ---------------------------------------------------------------------------
# Dependency graph
# ---------------------------------------------------------------------------


def _graph(text):
    from repro.lang.parser import parse_rules

    return DependencyGraph(parse_rules(text))


class TestDependencyGraph:
    def test_edge_polarity(self):
        g = _graph("T(x) :- S(x), not U(x).")
        polarities = {(e.body, e.positive) for e in g.edges}
        assert polarities == {("S", True), ("U", False)}
        assert len(g.negative_edges()) == 1

    def test_supports_is_transitive(self):
        g = _graph("A(x) :- B(x). B(x) :- C(x).")
        assert g.supports("A") == frozenset({"A", "B", "C"})

    def test_taint_propagates_through_positive_use(self):
        g = _graph(
            """
            Neg(x) :- S(x), not U(x).
            Down(x) :- Neg(x).
            Clean(x) :- S(x).
            """
        )
        assert g.tainted() == frozenset({"Neg", "Down"})
        assert not g.monotone_in("Down")
        assert g.monotone_in("Clean")

    def test_slice_diagnostics_ignore_unrelated_negation(self):
        g = _graph(
            """
            Neg(x) :- S(x), not U(x).
            Clean(x) :- S(x).
            """
        )
        assert g.slice_diagnostics("Clean") == []
        assert g.slice_diagnostics("Neg") != []


# ---------------------------------------------------------------------------
# Polarity walker details
# ---------------------------------------------------------------------------


class TestFormulaWalk:
    def test_negated_equality_flagged(self):
        q = FOQuery.parse("S(x, y) & x != y", "x, y", S2)
        found = formula_diagnostics(q.formula)
        assert any("equality" in d.message for d in found)

    def test_breadcrumbs_name_the_path(self):
        q = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", S2)
        found = formula_diagnostics(q.formula)
        assert found[0].where.startswith("∧[")

    def test_positive_formula_clean(self):
        q = FOQuery.parse("S(x, y) | (exists z: S(x, z) & S(z, y))", "x, y", S2)
        assert formula_diagnostics(q.formula) == []


# ---------------------------------------------------------------------------
# Transducer-level certificates across the zoo
# ---------------------------------------------------------------------------

ZOO_EXPECT = {
    # name: (oblivious, id_free, monotone-certified)
    "example2": (Verdict.CERTIFIED, Verdict.CERTIFIED, Verdict.UNKNOWN),
    "example3": (Verdict.CERTIFIED, Verdict.CERTIFIED, Verdict.CERTIFIED),
    "example4": (Verdict.CERTIFIED, Verdict.CERTIFIED, Verdict.CERTIFIED),
    "section5_ab": (Verdict.REFUTED, Verdict.REFUTED, Verdict.UNKNOWN),
    "example10": (Verdict.REFUTED, Verdict.REFUTED, Verdict.UNKNOWN),
    "example15": (Verdict.REFUTED, Verdict.CERTIFIED, Verdict.UNKNOWN),
}


class TestTransducerAnalysis:
    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_zoo_verdicts(self, name):
        report = analyze_transducer(ALL_EXAMPLES[name]())
        oblivious, id_free, monotone = ZOO_EXPECT[name]
        assert report.verdict("oblivious") is oblivious
        assert report.verdict("id_free") is id_free
        assert report.verdict("monotone") is monotone

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_matches_property_report(self, name):
        # The boolean property shims and the analyzer must agree.
        from repro.core.properties import property_report

        t = ALL_EXAMPLES[name]()
        flags = property_report(t)
        report = analyze_transducer(t)
        assert flags["oblivious"] == report.certifies("oblivious")
        assert flags["uses_id"] == report.verdict("id_free").refuted
        assert flags["uses_all"] == report.verdict("all_free").refuted
        assert flags["monotone"] == report.certifies("monotone")
        assert flags["inflationary"] == report.certifies("inflationary")

    def test_conditional_certificates_cite_the_paper(self):
        report = analyze_transducer(ALL_EXAMPLES["example3"]())
        assert report.certifies("coordination_free_given_nti")
        assert report.certifies("computed_monotone_given_nti")
        assert any("Prop. 11" in n for n in report.provenance)
        assert any("Thm. 16" in n for n in report.provenance)

    def test_id_free_but_not_all_free(self):
        # example15 reads All but not Id: Thm 16 applies, Prop 11 doesn't.
        report = analyze_transducer(ALL_EXAMPLES["example15"]())
        assert report.certifies("computed_monotone_given_nti")
        assert not report.certifies("coordination_free_given_nti")

    def test_memoized_per_object(self):
        t = ALL_EXAMPLES["example3"]()
        assert analyze_transducer(t) is analyze_transducer(t)

    def test_memo_does_not_perturb_fingerprint(self):
        # Analysis must not change the canonical pickle bytes the run
        # cache keys on (reports are stored out-of-band).
        from repro.net.runcache import transducer_fingerprint

        t = ALL_EXAMPLES["example3"]()
        before = transducer_fingerprint(t)
        analyze_transducer(t)
        analyze_query(t.output_query)
        after = transducer_fingerprint(t)
        assert before == after


# ---------------------------------------------------------------------------
# Output-sensitive refinement and combinators
# ---------------------------------------------------------------------------


class TestAnalyzeQuery:
    def test_union_certifies_iff_all_parts(self):
        pos = UCQQuery.parse("Ans(x) :- T(x).", ST)
        neg = UCQNegQuery.parse("Ans(x) :- T(x), not S(x, x).", ST)
        assert analyze_query(UnionQuery(pos, pos)).certifies("monotone")
        report = analyze_query(UnionQuery(pos, neg))
        assert not report.certifies("monotone")
        assert any(d.where.startswith("part 2") for d in report.diagnostics)

    def test_empty_query_certified_empty(self):
        report = analyze_query(EmptyQuery(1, S2))
        assert report.certifies("monotone")
        assert report.certifies("empty")

    def test_constant_query_not_empty(self):
        report = analyze_query(ConstantQuery([(1,)], 1, S2))
        assert report.certifies("monotone")
        assert report.verdict("empty").refuted

    def test_update_with_empty_delete_is_monotone(self):
        from repro.lang.combinators import UpdateQuery

        ins = UCQQuery.parse("Ans(x) :- T(x).", ST)
        q = UpdateQuery("T", ins, EmptyQuery(1, ST), ST)
        assert analyze_query(q).certifies("monotone")
        assert q.is_monotone_syntactic()

    def test_update_with_live_delete_unknown(self):
        from repro.lang.combinators import UpdateQuery

        ins = UCQQuery.parse("Ans(x) :- T(x).", ST)
        q = UpdateQuery("T", ins, ins, ST)
        report = analyze_query(q)
        assert not report.certifies("monotone")
        assert "CALM006" in report.codes()

    def test_reads_recorded(self):
        q = UCQNegQuery.parse("Ans(x) :- S(x, y), not T(y).", ST)
        assert analyze_query(q).reads == frozenset({"S", "T"})


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


class TestReporting:
    def test_render_report_mentions_codes_and_verdicts(self):
        report = analyze_transducer(ALL_EXAMPLES["example10"]())
        text = render_report(report, hints=True)
        assert "CALM003" in text
        assert "oblivious" in text
        assert "hint [CALM003]" in text

    def test_render_reports_summarizes(self):
        reports = [
            analyze_transducer(ALL_EXAMPLES[n]()) for n in ("example3", "example10")
        ]
        text = render_reports(reports)
        assert "2 subject(s) analyzed" in text

    def test_json_envelope_schema(self):
        reports = [analyze_transducer(ALL_EXAMPLES["example3"]())]
        payload = reports_to_json(reports)
        assert payload["schema"] == "repro-static-report/1"
        assert payload["ok"] is True
        (entry,) = payload["reports"]
        assert set(entry) >= {
            "subject", "kind", "ok", "verdicts", "reads", "diagnostics",
            "provenance",
        }
        assert entry["verdicts"]["oblivious"] == "certified"

    def test_json_diagnostics_carry_hint_and_slug(self):
        report = analyze_transducer(ALL_EXAMPLES["example10"]())
        entry = report.to_json()
        d = next(x for x in entry["diagnostics"] if x["code"] == "CALM003")
        assert d["slug"] == "non-oblivious-system-read"
        assert d["hint"]


# ---------------------------------------------------------------------------
# Deprecation shims
# ---------------------------------------------------------------------------


class TestDeprecation:
    def test_method_shims_do_not_warn(self):
        q = UCQQuery.parse("Ans(x) :- T(x).", ST)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert q.is_monotone_syntactic() is True
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_public_surface_exported(self):
        import repro.analysis as analysis

        for name in (
            "StaticReport", "Diagnostic", "analyze_query",
            "analyze_transducer", "Verdict", "Severity",
        ):
            assert hasattr(analysis, name)
