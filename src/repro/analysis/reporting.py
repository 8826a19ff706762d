"""Rendering for analysis results: ASCII tables, static reports, JSON.

Two consumers share this module: the benchmark harness (tables and
experiment banners, unchanged API) and the static analyzer — the
``python -m repro.analysis.lint`` CLI and ``CalmVerdict.explain()``
both render :class:`~repro.analysis.static.StaticReport` objects
through :func:`render_report` / :func:`reports_to_json`, so human and
machine output stay consistent everywhere a report surfaces.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from .static.diagnostics import StaticReport


# ---------------------------------------------------------------------------
# Generic tables (benchmark harness API — unchanged)
# ---------------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as a fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def render(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    lines = [render(cells[0]), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in cells[1:])
    return "\n".join(lines)


def experiment_banner(exp_id: str, claim: str) -> str:
    """The standard header printed by each experiment bench."""
    bar = "=" * 72
    return f"{bar}\n{exp_id}: {claim}\n{bar}"


def verdict(ok: bool, confirmed: str = "CONFIRMED", refuted: str = "REFUTED") -> str:
    """Uniform pass/fail wording for experiment summaries."""
    return confirmed if ok else refuted


# ---------------------------------------------------------------------------
# Static reports
# ---------------------------------------------------------------------------

_VERDICT_MARK = {"certified": "✓", "refuted": "✗", "unknown": "?"}


def render_report(
    report: "StaticReport",
    *,
    hints: bool = False,
    provenance: bool = True,
) -> str:
    """One static report as aligned text: verdicts, diagnostics, notes."""
    lines = [f"── {report.kind}: {report.subject}"]
    if report.reads:
        lines.append(f"   reads: {', '.join(sorted(report.reads))}")

    verdict_rows = [
        (prop, f"{_VERDICT_MARK[v.value]} {v.value}")
        for prop, v in sorted(report.verdicts.items())
    ]
    if verdict_rows:
        lines.append(_indent(format_table(("property", "verdict"), verdict_rows)))

    if report.diagnostics:
        diag_rows = [
            (
                d.code,
                d.severity.value if d.severity else "",
                d.where or "-",
                d.message,
            )
            for d in report.diagnostics
        ]
        lines.append(
            _indent(format_table(("code", "severity", "where", "message"), diag_rows))
        )
        if hints:
            seen: set[str] = set()
            for d in report.diagnostics:
                if d.code in seen:
                    continue
                seen.add(d.code)
                lines.append(f"   hint [{d.code}]: {d.hint}")
    else:
        lines.append("   no diagnostics — fully certified surface")

    if provenance and report.provenance:
        for note in report.provenance:
            lines.append(f"   · {note}")
    return "\n".join(lines)


def render_reports(reports: Iterable["StaticReport"], **kwargs) -> str:
    """Several reports, blank-line separated, plus a summary line."""
    reports = list(reports)
    blocks = [render_report(r, **kwargs) for r in reports]
    n_err = sum(len(r.errors()) for r in reports)
    n_warn = sum(len(r.warnings()) for r in reports)
    blocks.append(
        f"{len(reports)} subject(s) analyzed: "
        f"{n_err} error(s), {n_warn} warning(s)"
    )
    return "\n\n".join(blocks)


def reports_to_json(reports: Iterable["StaticReport"]) -> dict:
    """The machine-readable rendering shared by the CLI and calm_verdict.

    Stable envelope: ``{"schema": "repro-static-report/1", "ok": bool,
    "reports": [...]}`` with each report as
    :meth:`StaticReport.to_json`.
    """
    reports = list(reports)
    return {
        "schema": "repro-static-report/1",
        "ok": all(r.ok for r in reports),
        "errors": sum(len(r.errors()) for r in reports),
        "warnings": sum(len(r.warnings()) for r in reports),
        "reports": [r.to_json() for r in reports],
    }


def _indent(block: str, by: str = "   ") -> str:
    return "\n".join(by + line for line in block.splitlines())
