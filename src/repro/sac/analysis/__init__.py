"""Static analysis for SAC programs.

A dataflow framework (CFG, reaching definitions, liveness, def-use
chains) plus five analysis passes over it and the abstract shape
interpreter:

* shape inference and halo checking (``SAC1xx``),
* WITH-loop partition checking (``SAC2xx``),
* SPMD race certification (``SAC3xx``),
* dataflow lints (``SAC4xx``),
* memory-effects, aliasing and in-place-reuse certification
  (``SAC5xx``).

Entry points: :func:`analyze_source` / :func:`analyze_file` /
:func:`analyze_program`, or ``python -m repro.sac.analysis file.sac``.
See ``docs/ANALYSIS.md`` for the error-code catalogue.
"""

from ..diagnostics import (
    CODE_CATALOGUE,
    Diagnostic,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from .cfg import CFG, Action, BasicBlock, build_cfg, free_vars
from .dataflow import (
    DataflowAnalysis,
    DefSite,
    def_use_chains,
    liveness,
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
from .alias import AliasAnalysis, AliasPairs
from .effects import (
    EffectsAnalysis,
    FunctionSummary,
    ParamRead,
    ReadKind,
    VarRead,
    alias_sources,
)
from .races import LoopCertificate, SAFE_FOLD_FUNCTIONS
from .reuse import ReuseCertificate, certify_function, certify_program
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
    "liveness",
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
    # effects / aliasing / reuse
    "ReadKind",
    "VarRead",
    "ParamRead",
    "FunctionSummary",
    "EffectsAnalysis",
    "alias_sources",
    "AliasAnalysis",
    "AliasPairs",
    "ReuseCertificate",
    "certify_function",
    "certify_program",
    # driver
    "AnalysisOptions",
    "AnalysisReport",
    "analyze_program",
    "analyze_source",
    "analyze_file",
]
