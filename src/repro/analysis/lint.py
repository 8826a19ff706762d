"""``python -m repro.analysis.lint`` — the CALM program linter.

Runs the static analyzer over Datalog/Dedalus program files or
importable Python objects and prints provenance-carrying reports.

Targets
-------
* ``path/to/program.dl`` — program text.  Files containing ``@next`` /
  ``@async`` are parsed as Dedalus, everything else as stratified
  Datalog.  The EDB schema is inferred (relations that are read but
  never derived) unless pinned with ``--edb R/2``.
* ``package.module:attr`` — an importable Transducer, Query,
  DedalusProgram or StratifiedProgram, or a zero-argument factory
  returning one.
* ``--examples`` — the repo's own corpus: every ``core/examples.py``
  transducer plus Dedalus programs (the Theorem 18 TM compilation
  among them).

Exit codes
----------
* **0** — every subject analyzed; no error-severity diagnostics
  (warnings are certificate blockers, not defects — coordinating
  programs are *supposed* to trip CALM003).
* **1** — at least one error-severity diagnostic (parse failure,
  unstratifiable negation), or any warning under ``--strict``.
* **2** — usage error / target could not be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from ..db.schema import DatabaseSchema
from .reporting import render_reports, reports_to_json
from .static import StaticReport, Verdict, analyze_dedalus, analyze_query
from .static import analyze_transducer
from .static.diagnostics import Diagnostic


def _error_report(subject: str, kind: str, code: str, message: str) -> StaticReport:
    return StaticReport(
        subject=subject,
        kind=kind,
        verdicts={"well_formed": Verdict.REFUTED},
        diagnostics=(Diagnostic(code, message),),
    )


def _parse_edb_overrides(specs: list[str]) -> DatabaseSchema:
    arities: dict[str, int] = {}
    for spec in specs:
        name, _, arity = spec.partition("/")
        if not name or not arity.isdigit():
            raise ValueError(f"--edb expects NAME/ARITY, got {spec!r}")
        arities[name] = int(arity)
    return DatabaseSchema(arities)


def _infer_edb(rules, overrides: DatabaseSchema) -> DatabaseSchema:
    """Relations read but never derived are EDB (unless overridden)."""
    from ..dedalus.ast import NOW_RELATION

    heads = {r.head.relation for r in rules}
    arities: dict[str, int] = dict(overrides)
    for rule in rules:
        for atom in rule.positive_body_atoms() + rule.negative_body_atoms():
            name = atom.relation
            if name in heads or name == NOW_RELATION or name in arities:
                continue
            arities[name] = len(atom.terms)
    return DatabaseSchema(arities)


class ProgramSpecError(ValueError):
    """A program text that cannot be loaded.

    Carries the diagnostic *code* (CALM009 for stratification/validity
    failures, CALM010 for parse failures) and the subject *kind* the
    CLI renders, so callers — the linter below, the verification
    service's ``POST /jobs`` handler — can turn the failure into the
    same error report / HTTP 400 body without re-deriving either.
    """

    def __init__(self, code: str, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def parse_program_text(text: str, edb_overrides: DatabaseSchema | None = None):
    """Parse ``.dl`` program text into a program object.

    Text containing ``@next`` / ``@async`` parses as a
    :class:`~repro.dedalus.program.DedalusProgram`, everything else as
    a :class:`~repro.lang.datalog.StratifiedProgram`.  The EDB
    schema is inferred (relations read but never derived) unless pinned
    via *edb_overrides*.  Raises :class:`ProgramSpecError` on parse or
    validation failure — shared by the linter CLI (which renders it as
    a CALM009/CALM010 error report) and the verification service
    (which renders it as a 400).
    """
    from ..dedalus.parser import parse_dedalus_rules
    from ..dedalus.program import DedalusProgram
    from ..lang.parser import ParseError, parse_rules
    from ..lang.datalog import (
        DatalogError,
        StratificationError,
        StratifiedProgram,
    )

    overrides = edb_overrides if edb_overrides is not None else DatabaseSchema({})
    if "@next" in text or "@async" in text:
        try:
            rules = parse_dedalus_rules(text)
            edb = _infer_edb(tuple(d.rule for d in rules), overrides)
            return DedalusProgram(rules, edb)
        except ParseError as exc:
            raise ProgramSpecError("CALM010", "dedalus-program", str(exc)) from exc
        except (StratificationError, DatalogError, ValueError) as exc:
            raise ProgramSpecError("CALM009", "dedalus-program", str(exc)) from exc
    try:
        rules = parse_rules(text)
        edb = _infer_edb(rules, overrides)
        return StratifiedProgram(rules, edb)
    except ParseError as exc:
        raise ProgramSpecError("CALM010", "query", str(exc)) from exc
    except StratificationError as exc:
        raise ProgramSpecError("CALM009", "query", str(exc)) from exc
    except (DatalogError, ValueError) as exc:
        raise ProgramSpecError("CALM010", "query", str(exc)) from exc


def analyze_file(path: Path, edb_overrides: DatabaseSchema) -> StaticReport:
    """Parse and analyze one program file (never raises: parse and
    validation failures come back as CALM010/CALM009 error reports)."""
    from dataclasses import replace

    try:
        text = path.read_text()
    except OSError as exc:
        return _error_report(str(path), "file", "CALM010", f"cannot read: {exc}")
    try:
        program = parse_program_text(text, edb_overrides)
    except ProgramSpecError as exc:
        return _error_report(str(path), exc.kind, exc.code, str(exc))
    return replace(analyze_object(program), subject=str(path))


def _dedupe(diagnostics: list[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Drop repeated findings (the same rule linted under many outputs)."""
    seen: set[tuple[str, str, str]] = set()
    out: list[Diagnostic] = []
    for d in diagnostics:
        key = (d.code, d.message, d.span)
        if key in seen:
            continue
        seen.add(key)
        out.append(d)
    return tuple(out)


def analyze_object(obj) -> StaticReport:
    """Analyze an already-constructed Python object by shape."""
    from ..core.transducer import Transducer
    from ..dedalus.program import DedalusProgram
    from ..lang.query import Query
    from ..lang.datalog import StratifiedProgram, StratifiedQuery

    if callable(obj) and not isinstance(
        obj, (Transducer, Query, DedalusProgram, StratifiedProgram)
    ):
        obj = obj()
    if isinstance(obj, Transducer):
        return analyze_transducer(obj)
    if isinstance(obj, DedalusProgram):
        return analyze_dedalus(obj)
    if isinstance(obj, StratifiedProgram):
        # Whole-program lint: every IDB relation as an output.
        reports = [
            analyze_query(StratifiedQuery(obj, output))
            for output in sorted(obj.idb_schema)
        ]
        return StaticReport(
            subject=repr(obj),
            kind="stratified-program",
            verdicts={
                f"monotone[{output}]": r.verdict("monotone")
                for output, r in zip(sorted(obj.idb_schema), reports)
            },
            diagnostics=_dedupe(
                [d for r in reports for d in r.diagnostics]
            ),
            provenance=tuple(n for r in reports for n in r.provenance),
            reads=frozenset(obj.edb_schema),
        )
    if isinstance(obj, Query):
        return analyze_query(obj)
    raise TypeError(
        f"cannot analyze object of type {type(obj).__name__}; expected a "
        "Transducer, Query, DedalusProgram or StratifiedProgram"
    )


def load_spec(spec: str):
    """Resolve a ``package.module:attr`` target."""
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise ValueError(f"import target must be module:attr, got {spec!r}")
    module = importlib.import_module(module_name)
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def example_corpus() -> list[tuple[str, object]]:
    """The repo's own programs, linted in CI."""
    from ..core.examples import ALL_EXAMPLES
    from ..dedalus import compile_tm, tm_even_length
    from ..dedalus.program import DedalusProgram

    subjects: list[tuple[str, object]] = [
        (name, factory()) for name, factory in sorted(ALL_EXAMPLES.items())
    ]
    subjects.append(("dedalus:tm_even_length", compile_tm(tm_even_length())))
    reachability = DedalusProgram.parse(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- edge(X, Y), path(Y, Z).
        path(X, Y) @next :- path(X, Y).
        share(X, Y) @async :- path(X, Y).
        """,
        DatabaseSchema({"edge": 2}),
        extra_idb={"share": 2},
    )
    subjects.append(("dedalus:reachability", reachability))
    return subjects


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Static CALM analyzer: monotonicity/obliviousness "
        "certificates with provenance-carrying diagnostics.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="program files (.dl; @next/@async ⇒ Dedalus) or module:attr "
        "import specs",
    )
    parser.add_argument(
        "--examples",
        action="store_true",
        help="lint the repo's own example corpus (transducers + Dedalus)",
    )
    parser.add_argument(
        "--edb",
        action="append",
        default=[],
        metavar="NAME/ARITY",
        help="pin an EDB relation for file targets (repeatable); "
        "otherwise relations read but never derived are inferred EDB",
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too (certificate blockers)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress human output"
    )
    parser.add_argument(
        "--hints", action="store_true", help="print fix hints per code"
    )
    args = parser.parse_args(argv)

    if not args.targets and not args.examples:
        parser.print_usage(sys.stderr)
        print("error: no targets (give files, module:attr, or --examples)",
              file=sys.stderr)
        return 2

    try:
        edb_overrides = _parse_edb_overrides(args.edb)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports: list[StaticReport] = []
    for target in args.targets:
        if ":" in target and not Path(target).exists():
            try:
                obj = load_spec(target)
                report = analyze_object(obj)
            except (ImportError, AttributeError, ValueError, TypeError) as exc:
                print(f"error: cannot load {target!r}: {exc}", file=sys.stderr)
                return 2
            reports.append(report)
        else:
            path = Path(target)
            if not path.exists():
                print(f"error: no such file: {target}", file=sys.stderr)
                return 2
            reports.append(analyze_file(path, edb_overrides))
    if args.examples:
        from dataclasses import replace

        for name, obj in example_corpus():
            report = analyze_object(obj)
            reports.append(replace(report, subject=f"{name} · {report.subject}"))

    if args.json:
        print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
    elif not args.quiet:
        print(render_reports(reports, hints=args.hints))

    if any(not r.ok for r in reports):
        return 1
    if args.strict and any(r.warnings() for r in reports):
        return 1
    return 0


def main() -> None:  # pragma: no cover — exercised via subprocess tests
    try:
        sys.exit(run())
    except BrokenPipeError:
        # stdout went to a closed pager/`head`; exit quietly like grep does
        sys.exit(0)


if __name__ == "__main__":  # pragma: no cover
    main()
