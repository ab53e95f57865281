"""Control-flow graphs over the SAC AST.

A function body becomes a graph of :class:`BasicBlock` nodes, each a
straight-line sequence of :class:`Action` records.  An action is the
dataflow view of one statement or condition: the variable it defines (if
any), the variables it reads, and the AST node it came from (for
positions).  Loops contribute back edges; ``return`` jumps to the
synthetic exit block, so statements following a return end up in an
unreachable block — which is exactly how the lint pass finds them.

The CFG is the substrate of :mod:`repro.sac.analysis.dataflow`; it makes
no judgment calls of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ast_nodes import (
    Assign,
    Block,
    DoWhile,
    ExprStmt,
    For,
    FunDef,
    If,
    Node,
    Return,
    Stmt,
    While,
)
from ..ast_visit import free_vars

__all__ = ["Action", "BasicBlock", "CFG", "build_cfg"]


@dataclass(frozen=True)
class Action:
    """Dataflow footprint of one statement or condition."""

    uses: frozenset[str]
    defines: str | None
    node: Node

    @property
    def pos(self):
        return getattr(self.node, "pos", None)


@dataclass
class BasicBlock:
    id: int
    actions: list[Action] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, fun: FunDef):
        self.fun = fun
        self.blocks: list[BasicBlock] = []
        self.entry = self._new_block().id
        self.exit = self._new_block().id

    def _new_block(self) -> BasicBlock:
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b

    def add_edge(self, a: int, b: int) -> None:
        if b not in self.blocks[a].succs:
            self.blocks[a].succs.append(b)
        if a not in self.blocks[b].preds:
            self.blocks[b].preds.append(a)

    def reachable(self) -> set[int]:
        """Block ids reachable from the entry."""
        seen: set[int] = set()
        stack = [self.entry]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(self.blocks[b].succs)
        return seen

    def rpo(self) -> list[int]:
        """Reverse postorder over reachable blocks (forward analyses)."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(b: int) -> None:
            if b in seen:
                return
            seen.add(b)
            for s in self.blocks[b].succs:
                visit(s)
            order.append(b)

        visit(self.entry)
        return list(reversed(order))


class _Builder:
    def __init__(self, fun: FunDef):
        self.cfg = CFG(fun)

    def build(self) -> CFG:
        body_entry = self.cfg._new_block()
        self.cfg.add_edge(self.cfg.entry, body_entry.id)
        last = self._block(self.cfg.fun.body, body_entry.id)
        if last is not None:
            # Fall-through off the end of the function body.
            self.cfg.add_edge(last, self.cfg.exit)
        return self.cfg

    # Each _stmt/_block returns the id of the block control flows out of,
    # or None when every path has already left (returned).

    def _block(self, block: Block, cur: int | None) -> int | None:
        for stmt in block.statements:
            if cur is None:
                # Dead code after a return: park it in a fresh block with
                # no predecessors so lint can report it as unreachable.
                cur = self.cfg._new_block().id
            cur = self._stmt(stmt, cur)
        return cur

    def _append(self, cur: int, action: Action) -> None:
        self.cfg.blocks[cur].actions.append(action)

    def _stmt(self, stmt: Stmt, cur: int) -> int | None:
        cfg = self.cfg
        if isinstance(stmt, Assign):
            self._append(cur, Action(free_vars(stmt.value), stmt.target, stmt))
            return cur
        if isinstance(stmt, (ExprStmt,)):
            self._append(cur, Action(free_vars(stmt.expr), None, stmt))
            return cur
        if isinstance(stmt, Return):
            self._append(cur, Action(free_vars(stmt.value), None, stmt))
            cfg.add_edge(cur, cfg.exit)
            return None
        if isinstance(stmt, Block):
            return self._block(stmt, cur)
        if isinstance(stmt, If):
            self._append(cur, Action(free_vars(stmt.cond), None, stmt.cond))
            then_b = cfg._new_block()
            cfg.add_edge(cur, then_b.id)
            then_end = self._block(stmt.then, then_b.id)
            join = cfg._new_block()
            if stmt.orelse is not None:
                else_b = cfg._new_block()
                cfg.add_edge(cur, else_b.id)
                else_end = self._block(stmt.orelse, else_b.id)
                if else_end is not None:
                    cfg.add_edge(else_end, join.id)
            else:
                cfg.add_edge(cur, join.id)
            if then_end is not None:
                cfg.add_edge(then_end, join.id)
            if not join.preds:
                return None  # both branches returned
            return join.id
        if isinstance(stmt, While):
            header = cfg._new_block()
            cfg.add_edge(cur, header.id)
            self._append(header.id,
                         Action(free_vars(stmt.cond), None, stmt.cond))
            body = cfg._new_block()
            after = cfg._new_block()
            cfg.add_edge(header.id, body.id)
            cfg.add_edge(header.id, after.id)
            body_end = self._block(stmt.body, body.id)
            if body_end is not None:
                cfg.add_edge(body_end, header.id)
            return after.id
        if isinstance(stmt, DoWhile):
            body = cfg._new_block()
            cfg.add_edge(cur, body.id)
            body_end = self._block(stmt.body, body.id)
            after = cfg._new_block()
            if body_end is not None:
                self._append(body_end,
                             Action(free_vars(stmt.cond), None, stmt.cond))
                cfg.add_edge(body_end, body.id)
                cfg.add_edge(body_end, after.id)
            if not after.preds:
                return None
            return after.id
        if isinstance(stmt, For):
            self._append(cur, Action(free_vars(stmt.init.value),
                                     stmt.init.target, stmt.init))
            header = cfg._new_block()
            cfg.add_edge(cur, header.id)
            self._append(header.id,
                         Action(free_vars(stmt.cond), None, stmt.cond))
            body = cfg._new_block()
            after = cfg._new_block()
            cfg.add_edge(header.id, body.id)
            cfg.add_edge(header.id, after.id)
            body_end = self._block(stmt.body, body.id)
            if body_end is not None:
                self._append(body_end,
                             Action(free_vars(stmt.update.value),
                                    stmt.update.target, stmt.update))
                cfg.add_edge(body_end, header.id)
            return after.id
        # Unknown statement kinds flow through unchanged.
        return cur


def build_cfg(fun: FunDef) -> CFG:
    """Build the control-flow graph of one function."""
    return _Builder(fun).build()
