"""Static analysis for SAC programs.

A dataflow framework (CFG, reaching definitions, must-defined, def-use
chains) plus the analysis passes over it and the abstract shape
interpreter:

* shape inference and halo checking (``SAC1xx``),
* WITH-loop partition checking (``SAC2xx``),
* SPMD race certification (``SAC3xx``),
* dataflow lints (``SAC4xx``),
* with-loop folding's refusals (``SAC502``).

Buffer reuse is not judged here: :mod:`repro.sac.bufplan` decides it
once, on the traced code it plans.

Entry points: :func:`analyze_source` / :func:`analyze_file` /
:func:`analyze_program`, or ``python -m repro.sac.analysis file.sac``.
See ``docs/ANALYSIS.md`` for the error-code catalogue.
"""

from ..ast_visit import free_vars
from ..diagnostics import (
    CODE_CATALOGUE,
    Diagnostic,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from .cfg import CFG, Action, BasicBlock, build_cfg
from .dataflow import (
    DataflowAnalysis,
    DefSite,
    def_use_chains,
    must_defined,
    reaching_definitions,
    solve,
)
from .driver import (
    AnalysisOptions,
    AnalysisReport,
    analyze_file,
    analyze_program,
    analyze_source,
)
from .races import LoopCertificate, SAFE_FOLD_FUNCTIONS
from .shapes import Affine, AValue, Interval, ShapeAnalyzer, WithLoopInfo

__all__ = [
    # diagnostics
    "Diagnostic",
    "Severity",
    "CODE_CATALOGUE",
    "render_text",
    "render_json",
    "render_sarif",
    # dataflow framework
    "CFG",
    "Action",
    "BasicBlock",
    "build_cfg",
    "free_vars",
    "DataflowAnalysis",
    "DefSite",
    "solve",
    "reaching_definitions",
    "must_defined",
    "def_use_chains",
    # abstract domain
    "Affine",
    "Interval",
    "AValue",
    "ShapeAnalyzer",
    "WithLoopInfo",
    # race certification
    "LoopCertificate",
    "SAFE_FOLD_FUNCTIONS",
    # driver
    "AnalysisOptions",
    "AnalysisReport",
    "analyze_program",
    "analyze_source",
    "analyze_file",
]
