"""Program-level API: load, optimize and run SAC modules.

    from repro.sac import SacProgram

    prog = SacProgram.from_source(source)
    result = prog.call("MGrid", v, 4)

:class:`SacProgram` is a thin facade over
:class:`~repro.sac.driver.session.CompilationSession`, which owns the
staged pipeline (parse → link → typecheck → analyze → optimize →
backend), the instrumented pass manager, and the content-addressed
kernel cache.  Loading the same source with the same options twice
serves the second load from the cache with zero parse/optimize work —
see ``docs/COMPILER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .ast_nodes import Program

__all__ = ["SacProgram", "CompileOptions"]


@dataclass(frozen=True)
class CompileOptions:
    """The compiler's configuration — the only options record of
    :mod:`repro.sac`."""

    #: Run the static semantic checks before anything else.
    typecheck: bool = True
    #: Run the full static analyzer (shape/partition/race/lint) and
    #: refuse to build on error-severity findings.
    analyze: bool = False
    #: Run the optimization pipeline
    #: (:data:`repro.sac.driver.passes.PASSES`).
    optimize: bool = True
    #: Vectorize WITH-loop execution (off = scalar reference loops).
    vectorize: bool = True
    #: ``(pass name, on)`` pairs switching single passes of the pipeline;
    #: an unknown name is a :class:`~repro.sac.errors.SacOptionError`
    #: (``SAC010``) here, at construction.
    pass_overrides: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self):
        from .driver.passes import schedule_for

        schedule_for(self)  # rejects an unknown pass name


class SacProgram:
    """A loaded (and possibly optimized) SAC module, ready to call.

    Thin facade: compilation happens in a
    :class:`~repro.sac.driver.session.CompilationSession`; this class
    only re-exposes the artifacts consumers historically reached for
    (``program``, ``interp``, ``analysis_report``).
    """

    def __init__(self, program: Program,
                 options: CompileOptions | None = None, *,
                 _session=None):
        from .driver.session import CompilationSession

        if _session is not None:
            self.session = _session
        else:
            self.session = CompilationSession(
                parsed=program, options=options or CompileOptions()
            )
        self.options = self.session.options

    # -- session-owned artifacts --------------------------------------------

    @property
    def program(self) -> Program:
        """The post-pipeline (optimized) program."""
        return self.session.program

    @property
    def analysis_report(self):
        return self.session.analysis_report

    @property
    def interp(self):
        return self.session.interpreter

    @property
    def pass_report(self):
        """Per-pass timings and rewrite counts for this build (empty
        when the build was served from the program cache)."""
        return self.session.pass_report

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, filename: str = "<sac>",
                    options: CompileOptions | None = None) -> "SacProgram":
        from .driver.session import CompilationSession

        session = CompilationSession(source, filename,
                                     options or CompileOptions())
        return cls(None, _session=session)

    @classmethod
    def from_file(cls, path: str | Path,
                  options: CompileOptions | None = None) -> "SacProgram":
        path = Path(path)
        return cls.from_source(path.read_text(), str(path), options)

    # -- execution ----------------------------------------------------------

    def call(self, name: str, *args):
        """Invoke a program function with Python/NumPy arguments."""
        return self.interp.call(name, *args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SacProgram functions={len(self.program.functions)} "
            f"optimize={self.options.optimize} "
            f"vectorize={self.options.vectorize}>"
        )


def load_spmd_certified(path: str | Path,
                        options: CompileOptions) -> SacProgram:
    """Build the program at ``path`` behind the SPMD gate: when the
    options ran the static analyzer, every WITH-loop must have come out
    certified race-free for SPMD execution, or
    :class:`~repro.sac.errors.SacAnalysisError` is raised instead of
    handing back a program."""
    program = SacProgram.from_file(path, options)
    report = program.analysis_report
    if report is not None and not report.spmd_safe:
        from .errors import SacAnalysisError

        unsafe = [c for c in report.certificates if not c.safe]
        raise SacAnalysisError(
            f"{Path(path).name} WITH-loops failed SPMD certification: "
            + "; ".join(str(c) for c in unsafe),
            diagnostics=report.warnings,
        )
    return program
