"""Orchestration of the static-analysis passes.

:func:`analyze_program` runs, in order:

1. the front-end semantic checks (``SAC0xx``, via
   :func:`repro.sac.typecheck.collect_diagnostics`) — if these produce
   errors the deeper passes are skipped, since their abstract
   interpretation assumes a well-formed program;
2. the abstract shape pass (``SAC1xx``) with the partition (``SAC2xx``)
   and race (``SAC3xx``) listeners attached;
3. the dataflow lints (``SAC4xx``);
4. SAC502 for every producer/consumer pair with-loop folding would
   refuse in the program as written (:func:`repro.sac.optim.wlfold.refusals`
   — the pass's own verdict, so on one AST *warned* and *left unfolded*
   coincide; a pass that runs before it may still change the pair).

Findings are deduplicated (inline expansion can visit the same helper
from several call sites) and sorted by source position.  The result is
an :class:`AnalysisReport` bundling the diagnostics and the per-loop
SPMD certificates.

:func:`analyze_source`/:func:`analyze_file` additionally parse (mapping
syntax failures to a single ``SAC001`` diagnostic) and link the prelude
so stdlib calls resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..ast_nodes import Program
from ..diagnostics import Diagnostic, Severity, has_errors
from ..errors import SacSyntaxError
from ..optim.wlfold import refusals
from ..parser import parse_program
from ..stdlib import load_prelude
from .lint import lint_program
from .partition import PartitionChecker
from .races import LoopCertificate, RaceChecker
from .shapes import ShapeAnalyzer

__all__ = ["AnalysisOptions", "AnalysisReport", "analyze_program",
           "analyze_source", "analyze_file"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Which findings to report and how to judge the outcome."""

    #: Also analyze the prelude's own functions (off: only report
    #: findings located in the user program).
    report_prelude: bool = True
    #: Findings at or above this severity make the report "failed".
    fail_on: Severity = Severity.ERROR


@dataclass
class AnalysisReport:
    """All findings and certificates from one analysis run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    certificates: list[LoopCertificate] = field(default_factory=list)
    fail_on: Severity = Severity.ERROR

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not any(d.severity >= self.fail_on
                       for d in self.diagnostics)

    @property
    def spmd_safe(self) -> bool:
        """True when every WITH-loop seen was certified race-free."""
        return all(c.safe for c in self.certificates)


def analyze_program(program: Program,
                    options: AnalysisOptions | None = None
                    ) -> AnalysisReport:
    """Run the full pass stack over an already-parsed program."""
    options = options or AnalysisOptions()
    report = AnalysisReport(fail_on=options.fail_on)
    sink = report.diagnostics.append

    from ..typecheck import collect_diagnostics

    front = collect_diagnostics(program)
    report.diagnostics.extend(front)
    if has_errors(front):
        _finish(report)
        return report

    def coded_sink(code, message, pos, function):
        sink(Diagnostic.make(code, message, pos, function))

    races = RaceChecker(coded_sink)
    analyzer = ShapeAnalyzer(
        program, sink,
        listeners=(PartitionChecker(coded_sink), races),
    )
    analyzer.analyze_program()
    report.certificates = races.certificates
    lint_program(program, coded_sink)
    for fun in program.functions:
        for name, reader, reason in refusals(fun, program):
            coded_sink(
                "SAC502",
                f"'{name}' is produced on a partition of its index "
                f"space and this loop, as written, cannot be split "
                f"along it: {reason}; unless an earlier pass rewrites "
                f"the pair, the loops stay unfused",
                reader.pos, fun.name)
    _finish(report)
    return report


def analyze_source(source: str, filename: str = "<sac>",
                   options: AnalysisOptions | None = None
                   ) -> AnalysisReport:
    """Parse, link the prelude, and analyze one source text."""
    options = options or AnalysisOptions()
    try:
        program = parse_program(source, filename)
    except SacSyntaxError as exc:
        report = AnalysisReport(fail_on=options.fail_on)
        report.diagnostics.append(
            Diagnostic.make("SAC001", str(exc.message), exc.pos))
        return report
    prelude = load_prelude()
    program = Program(tuple(prelude.functions) + tuple(program.functions),
                      pos=program.pos)
    full = analyze_program(program, options)
    if not options.report_prelude:
        prelude_names = {f.name for f in prelude.functions}
        full.diagnostics = [
            d for d in full.diagnostics
            if d.pos is None or d.pos.filename == filename
        ]
        full.certificates = [
            c for c in full.certificates
            if c.function not in prelude_names
        ]
    return full


def analyze_file(path: str | Path,
                 options: AnalysisOptions | None = None) -> AnalysisReport:
    path = Path(path)
    return analyze_source(path.read_text(), str(path), options)


def _finish(report: AnalysisReport) -> None:
    """Dedupe (inline expansion revisits helpers) and sort by position."""
    seen = set()
    unique = []
    for d in report.diagnostics:
        key = (d.code, d.message,
               None if d.pos is None
               else (d.pos.filename, d.pos.line, d.pos.col))
        if key in seen:
            continue
        seen.add(key)
        unique.append(d)
    unique.sort(key=lambda d: (
        (d.pos.filename, d.pos.line, d.pos.col) if d.pos
        else ("￿", 0, 0),
        d.code,
    ))
    report.diagnostics = unique
