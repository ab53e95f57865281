"""Compilation sessions: staged artifacts with cache-aware skipping.

A :class:`CompilationSession` owns one module's trip through the
compiler: **parsed → linked → typechecked → analyzed → optimized →
backend**.  Each stage is timed and recorded as a :class:`StageRecord`;
when the content-addressed program cache already holds the
post-pipeline result for (source, prelude, options), the front-end and
middle-end stages are *skipped entirely* — no parse, no typecheck, no
pass runs — and their records say so (``cached=True``, zero pass-manager
executions).

The session is what consumers build against:
:class:`~repro.sac.module.SacProgram` is a thin facade over it, the
mg_sac loader uses it for warm program loads, and ``compile_function``
takes its cache and program digest, so compiled specializations go
through the same shared :class:`~repro.sac.driver.cache.KernelCache`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import SacError
from .cache import (
    KernelCache,
    ProgramEntry,
    default_cache,
    program_key,
    source_digest,
)
from .passes import PassManager, schedule_for

__all__ = ["StageRecord", "CompilationSession"]

#: Canonical stage order (backend is lazy: the interpreter is built on
#: first use).
STAGE_NAMES = ("parse", "link", "typecheck", "analyze", "optimize",
               "backend")


@dataclass
class StageRecord:
    """What one stage did: ran, skipped, or served from cache."""

    name: str
    seconds: float = 0.0
    ran: bool = False  #: the stage actually executed its work
    cached: bool = False  #: result came from the cache instead
    detail: str = ""

    @property
    def status(self) -> str:
        if self.cached:
            return "cached"
        return "ran" if self.ran else "skipped"


class CompilationSession:
    """One module's staged compilation, backed by the shared cache."""

    def __init__(self, source: str | None = None, filename: str = "<sac>",
                 options=None, *, parsed=None,
                 cache: KernelCache | None = None):
        from ..module import CompileOptions

        if source is None and parsed is None:
            raise ValueError("need source text or a pre-parsed Program")
        self.source = source
        self._parsed = parsed
        self.filename = filename
        self.options = options or CompileOptions()
        self.cache = cache if cache is not None else default_cache()
        self.pass_manager = PassManager()
        self.stages: dict[str, StageRecord] = {
            name: StageRecord(name) for name in STAGE_NAMES
        }
        self.analysis_report = None
        self._interp = None
        self._compile()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path, options=None, *,
                  cache: KernelCache | None = None) -> "CompilationSession":
        path = Path(path)
        return cls(path.read_text(), str(path), options, cache=cache)

    # -- the staged pipeline ------------------------------------------------

    def _record(self, name: str, t0: float, *, ran: bool = True,
                cached: bool = False, detail: str = "") -> None:
        rec = self.stages[name]
        rec.seconds += time.perf_counter() - t0
        rec.ran = ran
        rec.cached = cached
        rec.detail = detail

    def _compile(self) -> None:
        from ..stdlib import PRELUDE_SOURCE

        opts = self.options
        if self.source is not None:
            src_digest = source_digest(self.source)
        else:
            # Pre-parsed AST: its pretty-print is the content address.
            from ..pprint import pprint_program

            src_digest = "ast:" + source_digest(pprint_program(self._parsed))
        #: One digest identifies the optimized program; it doubles as
        #: the kernel cache's program component, so an edit to the source
        #: or a flip of an option that decides the program re-keys every
        #: kernel too.
        self.program_digest = program_key(
            src_digest, source_digest(PRELUDE_SOURCE), opts)

        entry = self.cache.get_program(self.program_digest)
        if entry is not None:
            t0 = time.perf_counter()
            self.program = entry.program
            self.analysis_report = entry.analysis_report
            for name in ("parse", "link", "typecheck", "analyze",
                         "optimize"):
                self._record(name, t0, ran=False, cached=True,
                             detail="served from program cache")
                t0 = time.perf_counter()
            return

        try:
            self.program = self._build(opts)
        except SacError as exc:
            # A deterministic build fails the same way every time: the
            # next session with this digest re-raises it from the cache.
            self.cache.put_program(self.program_digest, exc)
            raise
        self.cache.put_program(
            self.program_digest,
            ProgramEntry(program=self.program,
                         analysis_report=self.analysis_report),
        )

    def _build(self, opts):
        """Parse, link, typecheck, analyze and optimize: the program."""
        from ..ast_nodes import Program
        from ..stdlib import load_prelude

        t0 = time.perf_counter()
        if self._parsed is not None:
            parsed = self._parsed
            self._record("parse", t0, ran=False, detail="pre-parsed AST")
        else:
            from ..parser import parse_program

            parsed = parse_program(self.source, self.filename)
            self._record("parse", t0,
                         detail=f"{len(parsed.functions)} functions")

        t0 = time.perf_counter()
        combined = Program((*load_prelude().functions, *parsed.functions))
        self._record("link", t0, detail="prelude linked")

        t0 = time.perf_counter()
        if opts.typecheck:
            from ..typecheck import check_program

            check_program(combined)
            self._record("typecheck", t0)
        else:
            self._record("typecheck", t0, ran=False)

        t0 = time.perf_counter()
        if opts.analyze:
            from ..analysis import analyze_program
            from ..errors import SacAnalysisError

            report = analyze_program(combined)
            self.analysis_report = report
            self._record("analyze", t0,
                         detail=f"{len(report.diagnostics)} diagnostics")
            if report.errors:
                listing = "\n".join(f"  {d}" for d in report.errors)
                raise SacAnalysisError(
                    f"static analysis found {len(report.errors)} "
                    f"error(s):\n{listing}",
                    diagnostics=report.errors,
                    pos=report.errors[0].pos,
                )
        else:
            self._record("analyze", t0, ran=False)

        t0 = time.perf_counter()
        if opts.optimize:
            combined = self.pass_manager.run(combined, schedule_for(opts))
            self._record("optimize", t0,
                         detail=f"{self.pass_manager.report.runs()} pass runs")
        else:
            self._record("optimize", t0, ran=False)
        return combined

    # -- backend ------------------------------------------------------------

    @property
    def interpreter(self):
        """The (lazily built) interpreter over the optimized program."""
        if self._interp is None:
            t0 = time.perf_counter()
            from ..interp import FunctionTable, Interpreter

            table = FunctionTable()
            table.update(self.program)
            self._interp = Interpreter(table, vectorize=self.options.vectorize)
            self._record("backend", t0, detail="interpreter built")
        return self._interp

    # -- introspection ------------------------------------------------------

    @property
    def pass_report(self):
        return self.pass_manager.report

    def stage(self, name: str) -> StageRecord:
        return self.stages[name]

    def from_cache(self) -> bool:
        """Whether the front/middle end was served from the cache."""
        return self.stages["optimize"].cached

    def stage_summary(self) -> str:
        lines = [f"{'stage':<10} {'status':<8} {'time_ms':>9}  detail",
                 "-" * 46]
        for name in STAGE_NAMES:
            rec = self.stages[name]
            lines.append(f"{rec.name:<10} {rec.status:<8} "
                         f"{rec.seconds * 1e3:>9.2f}  {rec.detail}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CompilationSession {self.filename} "
                f"digest={self.program_digest[:12]} "
                f"cached={self.from_cache()}>")
