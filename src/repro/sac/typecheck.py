"""Static semantic checks for SAC programs.

A lightweight front-end pass (the dynamic interpreter re-checks
everything at run time; this catches mistakes before any evaluation):

* references to undefined variables (flow-sensitive through blocks,
  branches and loops; a variable assigned in only one branch of an
  ``if`` counts as *maybe*-defined afterwards and is accepted, matching
  the interpreter's late binding),
* calls to unknown functions, and calls for which no overload has a
  compatible *arity*,
* duplicate parameter names and duplicate identical signatures,
* functions whose body can fall off the end without ``return``
  (conservative: every path must end in a return for non-void),
* ``.`` bounds used outside a WITH-loop generator,
* fold operations naming unknown functions.

Findings are emitted as coded :class:`~repro.sac.diagnostics.Diagnostic`
objects (family ``SAC0xx``; see ``docs/ANALYSIS.md``), collected rather
than raised one at a time so a whole module's problems surface together;
:func:`check_program` raises a :class:`~repro.sac.errors.SacTypeError`
carrying the full list.
"""

from __future__ import annotations

from .ast_nodes import (
    Assign,
    DoWhile,
    Block,
    Call,
    Dot,
    Expr,
    ExprStmt,
    FoldOp,
    For,
    FunDef,
    If,
    Program,
    Return,
    Stmt,
    Var,
    While,
    WithLoop,
)
from .ast_visit import iter_child_exprs
from .builtins import builtin_arity, is_builtin
from .diagnostics import Diagnostic
from .errors import SacTypeError, SourcePos

from .sactypes import BaseType

__all__ = ["Diagnostic", "check_program", "collect_diagnostics"]

_OPERATOR_FOLDS = {"+", "*"}


class _Checker:
    def __init__(self, program: Program):
        self.diags: list[Diagnostic] = []
        self.arities: dict[str, set[int]] = {}
        self._fun: str | None = None
        for f in program.functions:
            self.arities.setdefault(f.name, set()).add(f.arity)
        self._check_duplicate_signatures(program)

    # -- module level -------------------------------------------------------

    def _check_duplicate_signatures(self, program: Program) -> None:
        seen: dict[tuple, FunDef] = {}
        for f in program.functions:
            key = (f.name, tuple(str(p.type) for p in f.params))
            if key in seen:
                self.error(
                    "SAC006",
                    f"duplicate definition of {f.name}"
                    f"({', '.join(str(p.type) for p in f.params)})",
                    f.pos,
                )
            seen[key] = f

    def error(self, code: str, message: str,
              pos: SourcePos | None) -> None:
        self.diags.append(Diagnostic.make(code, message, pos, self._fun))

    # -- functions ----------------------------------------------------------

    def check_function(self, fun: FunDef) -> None:
        self._fun = fun.name
        names = [p.name for p in fun.params]
        for name in set(names):
            if names.count(name) > 1:
                self.error(
                    "SAC005",
                    f"duplicate parameter {name!r} in {fun.name!r}", fun.pos
                )
        defined = set(names)
        self.check_block(fun.body, defined)
        if fun.return_type.base is not BaseType.VOID and \
                not self._always_returns(fun.body):
            self.error(
                "SAC007",
                f"function {fun.name!r} may finish without returning a value",
                fun.pos,
            )
        self._fun = None

    def _always_returns(self, block: Block) -> bool:
        for stmt in block.statements:
            if isinstance(stmt, Return):
                return True
            if isinstance(stmt, If) and stmt.orelse is not None:
                if self._always_returns(stmt.then) and \
                        self._always_returns(stmt.orelse):
                    return True
        return False

    # -- statements ----------------------------------------------------------

    def check_block(self, block: Block, defined: set[str]) -> None:
        for stmt in block.statements:
            self.check_stmt(stmt, defined)

    def check_stmt(self, stmt: Stmt, defined: set[str]) -> None:
        if isinstance(stmt, Assign):
            self.check_expr(stmt.value, defined)
            defined.add(stmt.target)
        elif isinstance(stmt, Return):
            self.check_expr(stmt.value, defined)
        elif isinstance(stmt, ExprStmt):
            self.check_expr(stmt.expr, defined)
        elif isinstance(stmt, Block):
            self.check_block(stmt, defined)
        elif isinstance(stmt, If):
            self.check_expr(stmt.cond, defined)
            then_defs = set(defined)
            self.check_block(stmt.then, then_defs)
            else_defs = set(defined)
            if stmt.orelse is not None:
                self.check_block(stmt.orelse, else_defs)
            # Names assigned on *any* path are visible afterwards (the
            # interpreter binds late; using a maybe-unassigned name is a
            # runtime error on the path that skipped it).
            defined |= then_defs | else_defs
        elif isinstance(stmt, For):
            self.check_stmt(stmt.init, defined)
            self.check_expr(stmt.cond, defined)
            body_defs = set(defined)
            self.check_block(stmt.body, body_defs)
            self.check_stmt(stmt.update, body_defs)
            defined |= body_defs
        elif isinstance(stmt, While):
            self.check_expr(stmt.cond, defined)
            body_defs = set(defined)
            self.check_block(stmt.body, body_defs)
            defined |= body_defs
        elif isinstance(stmt, DoWhile):
            # The body runs at least once: its definitions are definite.
            self.check_block(stmt.body, defined)
            self.check_expr(stmt.cond, defined)
        else:  # pragma: no cover - parser produces no other statements
            self.error("SAC001", f"unknown statement {type(stmt).__name__}",
                       getattr(stmt, "pos", None))

    # -- expressions -----------------------------------------------------------

    def check_expr(self, expr: Expr, defined: set[str]) -> None:
        if isinstance(expr, Var):
            if expr.name not in defined:
                self.error("SAC002",
                           f"undefined variable {expr.name!r}", expr.pos)
        elif isinstance(expr, Dot):
            self.error("SAC008",
                       "'.' is only legal as a generator bound", expr.pos)
        elif isinstance(expr, WithLoop):
            self.check_withloop(expr, defined)
        else:
            for child in iter_child_exprs(expr):
                self.check_expr(child, defined)
            if isinstance(expr, Call):
                self.check_call(expr)

    def check_call(self, call: Call) -> None:
        arities = set(self.arities.get(call.name, ()))
        if is_builtin(call.name):
            arities.add(builtin_arity(call.name))
        if not arities:
            self.error("SAC003",
                       f"call to undefined function {call.name!r}",
                       call.pos)
        elif len(call.args) not in arities:
            self.error(
                "SAC004",
                f"no overload of {call.name!r} takes {len(call.args)} "
                f"argument(s); defined arities: {sorted(arities)}",
                call.pos,
            )

    def check_withloop(self, wl: WithLoop, defined: set[str]) -> None:
        gen = wl.generator
        for bound in (gen.lower, gen.upper):
            if isinstance(bound, Dot):
                if isinstance(wl.operation, FoldOp):
                    self.error(
                        "SAC008",
                        "'.' bound requires a genarray/modarray frame",
                        bound.pos or wl.pos,
                    )
            else:
                self.check_expr(bound, defined)
        for extra in (gen.step, gen.width):
            if extra is not None:
                self.check_expr(extra, defined)
        # The generator variable is bound in the body only.
        op = wl.operation
        frame, body = iter_child_exprs(op)
        self.check_expr(frame, defined)
        self.check_expr(body, defined | {gen.var})
        if (
            isinstance(op, FoldOp)
            and op.fun not in _OPERATOR_FOLDS
            and op.fun not in self.arities
            and not is_builtin(op.fun)
        ):
            self.error("SAC009",
                       f"fold names undefined function {op.fun!r}",
                       op.pos or wl.pos)


def collect_diagnostics(program: Program) -> list[Diagnostic]:
    """Run all checks; return the (possibly empty) diagnostic list."""
    checker = _Checker(program)
    for fun in program.functions:
        checker.check_function(fun)
    return checker.diags


def check_program(program: Program) -> None:
    """Raise :class:`SacTypeError` listing every static error."""
    diags = collect_diagnostics(program)
    if diags:
        listing = "\n".join(f"  {d}" for d in diags)
        err = SacTypeError(
            f"{len(diags)} static error(s):\n{listing}", diags[0].pos
        )
        err.diagnostics = diags  # type: ignore[attr-defined]
        raise err
