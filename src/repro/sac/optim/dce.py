"""Dead code elimination.

Removes assignments to names that are never read anywhere in the
function (SAC expressions are pure, so dropping an unused binding cannot
change behaviour).  Name-based and conservative: if a name is read
anywhere — including inside loops or branches — every assignment to it
is kept.  Runs to a fixpoint because removing one dead assignment can
kill the uses that kept another alive.
"""

from __future__ import annotations

import dataclasses

from ..ast_nodes import (
    Assign,
    Block,
    DoWhile,
    ExprStmt,
    For,
    If,
    Program,
    Return,
    Stmt,
    While,
)
from ..ast_visit import mentions

__all__ = ["dce_pass"]


def _strip_block(block: Block, dead: set[str]) -> Block:
    out: list[Stmt] = []
    for stmt in block.statements:
        s = _strip_stmt(stmt, dead)
        if s is not None:
            out.append(s)
    return dataclasses.replace(block, statements=tuple(out))


def _strip_stmt(stmt: Stmt, dead: set[str]) -> Stmt | None:
    if isinstance(stmt, Assign):
        return None if stmt.target in dead else stmt
    if isinstance(stmt, If):
        return dataclasses.replace(
            stmt,
            then=_strip_block(stmt.then, dead),
            orelse=_strip_block(stmt.orelse, dead) if stmt.orelse else None,
        )
    if isinstance(stmt, (For, While, DoWhile)):
        # Loop-carried state: leave loop bodies untouched (an assignment
        # inside a loop may feed the next iteration through its own name).
        return stmt
    if isinstance(stmt, (Return, ExprStmt, Block)):
        if isinstance(stmt, Block):
            return _strip_block(stmt, dead)
        return stmt
    return stmt


def dce_pass(program: Program) -> Program:
    new_funs = []
    for fun in program.functions:
        while True:
            assigned = {
                s.target
                for s in fun.body.statements
                if isinstance(s, Assign)
            }
            dead = assigned - mentions(fun.body).keys()
            if not dead:
                break
            fun = dataclasses.replace(fun, body=_strip_block(fun.body, dead))
        new_funs.append(fun)
    return program.with_functions(new_funs)
