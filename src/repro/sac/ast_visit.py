"""Shared AST visitor/walker infrastructure.

This module is the one place under :mod:`repro.sac` that knows the
tree's shape: how to find a node's children, and which of them a
WITH-loop's generator variable scopes over.  Every checker, analysis and
optimization pass asks it rather than spelling out an ``isinstance``
chain over node classes.  It holds:

* :func:`node_fields` — a node class's field names, memoised, and
  :func:`iter_child_nodes` / :func:`iter_child_exprs` over them,
* :func:`map_child_exprs` — rebuild a node with a function applied to
  every direct expression child (identity-preserving: an unchanged node
  is returned as the same object),
* :func:`map_expr` / :func:`map_stmt_exprs` — bottom-up expression
  rewriting of an expression or of every expression in a statement
  tree, in field order,
* :func:`walk` / :func:`walk_exprs` — full-tree traversal,
* :func:`free_vars` — the names an expression reads from its enclosing
  scope (a WITH-loop binds its generator variable in its body only),
* :func:`mentions` — how often each name occurs, binding-blind,
* :func:`assigned_names` — every name a statement tree assigns,
* :class:`ExprDispatcher` — expression dispatch to ``eval_<ClassName>``
  methods through a per-class memoized table (the shape both the
  interpreter and the code generator use),
* :class:`StatementExecutor` — the shared statement control-flow
  machine, parameterized over the few hooks that differ between an
  interpreter (environment objects, plain conditions) and a
  specializing tracer (dict environments, concreteness guards),
* :class:`ReturnValue` — the non-local exit both evaluators raise.

The walkers that give the tree a meaning stay with their owners: the
CFG builder, the abstract interpreter in ``analysis.shapes``, the
typechecker's flow-sensitive definedness, the block rewriters of
``dce``/``cse``/``partialsum``, ``pprint`` and the evaluators.
Optimizer-specific rewriting (capture-aware substitution, structural
keys, affine forms) lives in :mod:`repro.sac.optim.rewrite`.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator

from .ast_nodes import (
    Assign,
    Block,
    DoWhile,
    Expr,
    ExprStmt,
    FoldOp,
    For,
    GenarrayOp,
    Generator,
    If,
    ModarrayOp,
    Node,
    Return,
    Stmt,
    Var,
    While,
    WithLoop,
)

__all__ = [
    "node_fields",
    "iter_child_nodes",
    "iter_child_exprs",
    "map_child_exprs",
    "map_expr",
    "map_stmt_exprs",
    "walk",
    "walk_exprs",
    "free_vars",
    "mentions",
    "assigned_names",
    "ExprDispatcher",
    "ReturnValue",
    "StatementExecutor",
]

#: Non-expression node containers whose children are still expressions
#: (the WITH-loop operation/generator wrappers).
_EXPR_CARRIERS = (GenarrayOp, ModarrayOp, FoldOp, Generator)


@lru_cache(maxsize=None)
def node_fields(cls: type) -> tuple[str, ...]:
    """The dataclass field names of a node class (``dataclasses.fields``
    rebuilds its tuple per call; every walker asks per node)."""
    return tuple(f.name for f in dataclasses.fields(cls))


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield every direct :class:`Node` child of ``node``."""
    for name in node_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, Node):
            yield v
        elif isinstance(v, tuple):
            for e in v:
                if isinstance(e, Node):
                    yield e


def iter_child_exprs(node: Node) -> Iterator[Expr]:
    """Yield every direct :class:`Expr` child of ``node``."""
    for child in iter_child_nodes(node):
        if isinstance(child, Expr):
            yield child


def map_child_exprs(node: Node, fn: Callable[[Expr], Expr]) -> Node:
    """Rebuild ``node`` with ``fn`` applied to every direct Expr child
    (descending through generator/operation carrier nodes).  Returns the
    original object when nothing changed."""
    changes = {}
    for name in node_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, Expr):
            nv = fn(v)
            if nv is not v:
                changes[name] = nv
        elif isinstance(v, tuple) and v and all(isinstance(e, Expr) for e in v):
            nv = tuple(fn(e) for e in v)
            if any(a is not b for a, b in zip(nv, v)):
                changes[name] = nv
        elif isinstance(v, _EXPR_CARRIERS):
            nv = map_child_exprs(v, fn)
            if nv is not v:
                changes[name] = nv
    return dataclasses.replace(node, **changes) if changes else node


def map_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up expression rewrite: children first, then ``fn`` on the
    rebuilt node."""
    rebuilt = map_child_exprs(expr, lambda e: map_expr(e, fn))
    return fn(rebuilt)


def map_stmt_exprs(stmt: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Apply :func:`map_expr` to every expression in a statement tree,
    visiting fields in declaration order (so a ``for`` rewrites its init,
    condition, update, then body).  Returns ``stmt`` itself when nothing
    in it changed."""
    changes = {}
    for name in node_fields(type(stmt)):
        v = getattr(stmt, name)
        if isinstance(v, Expr):
            nv = map_expr(v, fn)
        elif isinstance(v, Stmt):
            nv = map_stmt_exprs(v, fn)
        elif isinstance(v, tuple) and all(isinstance(s, Stmt) for s in v):
            nv = tuple(map_stmt_exprs(s, fn) for s in v)
            nv = v if all(a is b for a, b in zip(nv, v)) else nv
        else:
            continue
        if nv is not v:
            changes[name] = nv
    return dataclasses.replace(stmt, **changes) if changes else stmt


def walk(node: Node) -> Iterator[Node]:
    """Yield every node in the tree, children before parents."""
    # An explicit stack: nested generators would resume one frame per
    # tree level for every node, and unrolled sums are deep.
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            yield n
            continue
        stack.append((n, True))
        children = [(c, False) for c in iter_child_nodes(n)]
        stack.extend(reversed(children))


def walk_exprs(node: Node) -> Iterator[Expr]:
    """Yield every expression node in the tree, children before
    parents (non-expression carriers are traversed, not yielded)."""
    for n in walk(node):
        if isinstance(n, Expr):
            yield n


def free_vars(expr: Expr) -> frozenset[str]:
    """The names ``expr`` reads from its enclosing scope.

    A WITH-loop binds its generator variable in its operation's body
    only: the bounds, step and width and the operation's shape, array or
    neutral element are evaluated outside the binding."""
    out: set[str] = set()
    stack: list[tuple[Node, frozenset[str]]] = [(expr, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Var):
            if node.name not in bound:
                out.add(node.name)
        elif isinstance(node, WithLoop):
            # Every operation holds one frame expression (shape, array
            # or neutral element) and then its body.
            frame, body = iter_child_exprs(node.operation)
            stack += [(node.generator, bound), (frame, bound),
                      (body, bound | {node.generator.var})]
        else:
            stack.extend((c, bound) for c in iter_child_nodes(node))
    return frozenset(out)


def mentions(*nodes: Node | None) -> Counter:
    """How often each name occurs as a :class:`Var` under ``nodes``
    (``None`` entries are skipped).  Binding-blind: a WITH-loop's
    generator variable counts wherever it is read."""
    return Counter(n.name for node in nodes if node is not None
                   for n in walk(node) if isinstance(n, Var))


def assigned_names(stmt: Stmt) -> set[str]:
    """Every name an assignment anywhere in ``stmt`` binds: branches,
    loop bodies and a ``for``'s init and update included."""
    out: set[str] = set()
    stack = [stmt]
    while stack:
        s = stack.pop()
        if isinstance(s, Assign):
            out.add(s.target)
        else:
            stack.extend(c for c in iter_child_nodes(s) if isinstance(c, Stmt))
    return out


class ExprDispatcher:
    """Expression dispatch to ``eval_<ClassName>`` methods.

    The dispatch table is built lazily per concrete subclass and cached
    on it, so the per-call cost is one dict lookup — the same speed as
    the hand-rolled tables this replaces.
    """

    #: Method-name prefix handlers use (``eval_IntLit`` and so on).
    dispatch_prefix = "eval_"

    def eval_expr(self, expr: Expr, env):
        table = type(self).__dict__.get("_expr_dispatch_table")
        if table is None:
            table = {}
            type(self)._expr_dispatch_table = table
        method = table.get(type(expr))
        if method is None:
            method = getattr(
                self, self.dispatch_prefix + type(expr).__name__, None
            )
            if method is None:
                return self.unknown_expr(expr, env)
            # Store the underlying function, not the bound method, so
            # the table is shared across instances of the class.
            table[type(expr)] = method.__func__
            return method(expr, env)
        return method(self, expr, env)

    def unknown_expr(self, expr: Expr, env):
        from .errors import SacRuntimeError

        raise SacRuntimeError(f"unknown expression {type(expr).__name__}")


class ReturnValue(Exception):
    """Non-local exit carrying a function's return value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class StatementExecutor(ExprDispatcher):
    """The shared statement control-flow machine.

    Subclasses provide:

    * ``eval_expr(expr, env)`` (inherited dispatch or an override),
    * :meth:`bind` — record an assignment in the environment,
    * :meth:`exec_cond` — evaluate a condition to a concrete bool
      (``what`` says whether it guards a ``branch`` or a ``loop bound``,
      for error messages),

    and may override :meth:`before_stmt` (per-statement guard hook) and
    :meth:`unknown_stmt`.
    """

    def bind(self, env, name: str, value) -> None:  # pragma: no cover
        raise NotImplementedError

    def exec_cond(self, expr: Expr, env, what: str) -> bool:  # pragma: no cover
        raise NotImplementedError

    def before_stmt(self, stmt: Stmt) -> None:
        """Hook called before each statement (guards, counters)."""

    def unknown_stmt(self, stmt: Stmt, env) -> None:
        from .errors import SacRuntimeError

        raise SacRuntimeError(f"unknown statement {type(stmt).__name__}")

    def exec_block(self, block: Block, env) -> None:
        for stmt in block.statements:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: Stmt, env) -> None:
        self.before_stmt(stmt)
        if isinstance(stmt, Assign):
            self.bind(env, stmt.target, self.eval_expr(stmt.value, env))
            return
        if isinstance(stmt, Return):
            raise ReturnValue(self.eval_expr(stmt.value, env))
        if isinstance(stmt, If):
            if self.exec_cond(stmt.cond, env, "branch"):
                self.exec_block(stmt.then, env)
            elif stmt.orelse is not None:
                self.exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, For):
            self.exec_stmt(stmt.init, env)
            while self.exec_cond(stmt.cond, env, "loop bound"):
                self.exec_block(stmt.body, env)
                self.exec_stmt(stmt.update, env)
            return
        if isinstance(stmt, While):
            while self.exec_cond(stmt.cond, env, "loop bound"):
                self.exec_block(stmt.body, env)
            return
        if isinstance(stmt, DoWhile):
            while True:
                self.exec_block(stmt.body, env)
                if not self.exec_cond(stmt.cond, env, "loop bound"):
                    break
            return
        if isinstance(stmt, ExprStmt):
            self.eval_expr(stmt.expr, env)
            return
        if isinstance(stmt, Block):
            self.exec_block(stmt, env)
            return
        self.unknown_stmt(stmt, env)
