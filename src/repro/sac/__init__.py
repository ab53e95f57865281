"""A working mini-SAC: front end, optimizer, vectorizing interpreter.

Public entry point: :class:`SacProgram`.

    from repro.sac import SacProgram, CompileOptions
    prog = SacProgram.from_source("int f(int x) { return x + 1; }")
    prog.call("f", 41)   # -> 42
"""

from .diagnostics import (
    CODE_CATALOGUE,
    Diagnostic,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from .errors import (
    SacAnalysisError,
    SacArityError,
    SacError,
    SacNameError,
    SacOptionError,
    SacRuntimeError,
    SacSyntaxError,
    SacTypeError,
)
from .codegen import (
    CodegenUnsupported,
    CompiledFunction,
    KernelArtifact,
    compile_function,
)
from .driver import (
    CompilationSession,
    KernelCache,
    PassManager,
    PassReport,
    StageRecord,
    default_cache,
)
from .interp import FunctionTable, Interpreter
from .lexer import tokenize
from .module import CompileOptions, SacProgram
from .parser import parse_expression, parse_program
from .pprint import pprint_expr, pprint_program
from .typecheck import check_program, collect_diagnostics
from .sactypes import BOOL, DOUBLE, INT, VOID, BaseType, SacType, ShapeKind
from .stdlib import PRELUDE_SOURCE, load_prelude

__all__ = [
    "SacProgram",
    "CompileOptions",
    "CompilationSession",
    "StageRecord",
    "PassManager",
    "PassReport",
    "KernelCache",
    "KernelArtifact",
    "default_cache",
    "SacOptionError",
    "FunctionTable",
    "Interpreter",
    "tokenize",
    "parse_program",
    "parse_expression",
    "pprint_expr",
    "pprint_program",
    "check_program",
    "collect_diagnostics",
    "compile_function",
    "CompiledFunction",
    "CodegenUnsupported",
    "SacError",
    "SacSyntaxError",
    "SacTypeError",
    "SacNameError",
    "SacArityError",
    "SacRuntimeError",
    "SacAnalysisError",
    "Diagnostic",
    "Severity",
    "CODE_CATALOGUE",
    "render_text",
    "render_json",
    "render_sarif",
    "SacType",
    "ShapeKind",
    "BaseType",
    "INT",
    "DOUBLE",
    "BOOL",
    "VOID",
    "PRELUDE_SOURCE",
    "load_prelude",
]
