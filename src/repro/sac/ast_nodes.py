"""Abstract syntax tree of the SAC subset.

All nodes are frozen dataclasses carrying an optional source position.
The tree doubles as the optimizer's IR: passes are AST-to-AST.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import SourcePos
from .sactypes import SacType

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    "IntLit",
    "DoubleLit",
    "BoolLit",
    "VectorLit",
    "Var",
    "Dot",
    "BinOp",
    "UnOp",
    "Call",
    "Select",
    "Generator",
    "GenarrayOp",
    "ModarrayOp",
    "FoldOp",
    "WithLoop",
    "Assign",
    "If",
    "For",
    "While",
    "DoWhile",
    "Return",
    "ExprStmt",
    "Block",
    "Param",
    "FunDef",
    "Program",
]


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Stmt(Node):
    pass


# --------------------------------------------------------------------------
# Expressions.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class DoubleLit(Expr):
    value: float
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class VectorLit(Expr):
    """Array literal ``[e1, e2, ...]`` (possibly nested)."""

    elements: tuple[Expr, ...]
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Dot(Expr):
    """The ``.`` bound inside a WITH-loop generator."""

    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / % == != < <= > >= && ||
    left: Expr
    right: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # one of - !
    operand: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Select(Expr):
    """Array selection ``array[index]`` (index: scalar or int vector)."""

    array: Expr
    index: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Generator(Expr):
    """``( lower relop ident relop upper [step s [width w]] )``."""

    lower: Expr            # expression or Dot
    lower_inclusive: bool  # `<=` vs `<`
    var: str
    upper: Expr            # expression or Dot
    upper_inclusive: bool
    step: Optional[Expr] = None
    width: Optional[Expr] = None
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class GenarrayOp(Node):
    shape: Expr
    body: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class ModarrayOp(Node):
    array: Expr
    body: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class FoldOp(Node):
    fun: str
    neutral: Expr
    body: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class WithLoop(Expr):
    generator: Generator
    operation: Union[GenarrayOp, ModarrayOp, FoldOp]
    pos: Optional[SourcePos] = None


# --------------------------------------------------------------------------
# Statements.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign(Stmt):
    target: str
    value: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Block(Stmt):
    statements: tuple[Stmt, ...]
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Block
    orelse: Optional[Block] = None
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class For(Stmt):
    """C-style ``for (init; cond; update)`` where init/update are
    assignments."""

    init: Assign
    cond: Expr
    update: Assign
    body: Block
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Block
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class DoWhile(Stmt):
    """C-style ``do { ... } while (cond);`` — body runs at least once."""

    body: Block
    cond: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr
    pos: Optional[SourcePos] = None


# --------------------------------------------------------------------------
# Definitions.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Param(Node):
    type: SacType
    name: str
    pos: Optional[SourcePos] = None


@dataclass(frozen=True)
class FunDef(Node):
    name: str
    params: tuple[Param, ...]
    return_type: SacType
    body: Block
    inline: bool = False
    pos: Optional[SourcePos] = None

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class Program(Node):
    functions: tuple[FunDef, ...]
    pos: Optional[SourcePos] = None

    def with_functions(self, functions) -> "Program":
        return replace(self, functions=tuple(functions))
