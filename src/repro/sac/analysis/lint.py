"""Dataflow-backed lints (``SAC4xx``).

These are the direct clients of the CFG/dataflow framework:

* **SAC401** — an assignment whose value is never read (per def-use
  chains over reaching definitions).  Parameters are exempt: an unused
  parameter may be required by overload arity.
* **SAC402** — statements that can never execute (CFG blocks unreachable
  from the entry, e.g. code after a ``return``).
* **SAC403** — a variable read where it is *maybe* but not *must*
  defined (assigned on some path only).  Reads with no reaching
  definition at all are left to the typechecker (SAC002) — this lint
  covers the gap where the typechecker's may-analysis accepts the
  program but a path exists on which the variable is unbound.
* **SAC404** — a WITH-loop generator variable shadowing a parameter or
  assigned variable of the enclosing function.
* **SAC405** — the body of a WITH-loop reads the very array the loop's
  result is bound to, at something other than the current index
  (``a = with (...) modarray(a, a[iv - 1] ...)``).  The old and new
  value of ``a`` must then coexist, which silently forbids the
  in-place update the rebinding suggests — the self-dependence the
  runtime only discovers when its alias guard fires.  A pure
  point-read (``a[iv]``) is exempt: it is the reuse-friendly
  accumulate idiom.

All are warnings.
"""

from __future__ import annotations

from typing import Callable

from ..ast_nodes import Assign, FunDef, Program, Select, Var, WithLoop
from ..ast_visit import assigned_names, walk, walk_exprs
from .cfg import build_cfg
from .dataflow import def_use_chains, must_defined, reaching_definitions

__all__ = ["lint_function", "lint_program"]


def lint_program(program: Program, sink: Callable) -> None:
    for fun in program.functions:
        lint_function(fun, sink)


def lint_function(fun: FunDef, sink: Callable) -> None:
    """Run all SAC4xx lints over one function.

    ``sink(code, message, pos, function)`` receives the findings.
    """
    cfg = build_cfg(fun)
    reachable = cfg.reachable()
    _lint_unreachable(fun, cfg, reachable, sink)
    _lint_unused(fun, cfg, reachable, sink)
    _lint_maybe_uninitialized(fun, cfg, reachable, sink)
    _lint_withloops(fun, sink)


# -- SAC402 -----------------------------------------------------------------

def _lint_unreachable(fun: FunDef, cfg, reachable, sink) -> None:
    for block in cfg.blocks:
        if block.id in reachable or not block.actions:
            continue
        act = block.actions[0]
        sink("SAC402", "statement is unreachable", act.pos, fun.name)


# -- SAC401 -----------------------------------------------------------------

def _lint_unused(fun: FunDef, cfg, reachable, sink) -> None:
    chains = def_use_chains(cfg)
    for site, uses in chains.items():
        if site.block == -1:  # parameter pseudo-definition
            continue
        if site.block not in reachable:
            continue  # already covered by SAC402
        if uses:
            continue
        act = cfg.blocks[site.block].actions[site.index]
        sink(
            "SAC401",
            f"value assigned to '{site.var}' is never used",
            act.pos, fun.name,
        )


# -- SAC403 -----------------------------------------------------------------

def _lint_maybe_uninitialized(fun: FunDef, cfg, reachable, sink) -> None:
    must = must_defined(cfg)
    reaching = reaching_definitions(cfg)
    reported: set[str] = set()
    for block in cfg.blocks:
        if block.id not in reachable:
            continue
        defined = set(must[block.id][0])
        maybe = {d.var for d in reaching[block.id][0]}
        for act in block.actions:
            for name in sorted(act.uses):
                if name in defined or name in reported:
                    continue
                if name not in maybe:
                    continue  # no def at all: typecheck reports SAC002
                reported.add(name)
                sink(
                    "SAC403",
                    f"'{name}' may be uninitialized here (assigned on "
                    f"some paths only)",
                    act.pos, fun.name,
                )
            if act.defines is not None:
                defined.add(act.defines)
                maybe.add(act.defines)


# -- SAC404 / SAC405 ----------------------------------------------------------

def _lint_withloops(fun: FunDef, sink) -> None:
    """SAC404: a generator variable shadows a parameter or an assigned
    name.  SAC405: ``t = with (...) op`` reads ``t`` in the loop body at
    anything but the current index — some mention of ``t`` there is not
    the array of a point read ``t[iv]``."""
    outer = {p.name for p in fun.params} | assigned_names(fun.body)
    for node in walk(fun.body):
        if isinstance(node, WithLoop) and node.generator.var in outer:
            sink(
                "SAC404",
                f"generator variable '{node.generator.var}' shadows an "
                f"outer binding",
                node.generator.pos or node.pos, fun.name,
            )
        if not (isinstance(node, Assign) and isinstance(node.value, WithLoop)):
            continue
        target, wl = node.target, node.value
        offset_reads = 0
        for e in walk_exprs(wl.operation.body):
            if isinstance(e, Var) and e.name == target:
                offset_reads += 1
            elif (isinstance(e, Select) and isinstance(e.array, Var)
                  and e.array.name == target and isinstance(e.index, Var)
                  and e.index.name == wl.generator.var):
                offset_reads -= 1  # its array is no offset read
        if offset_reads > 0:
            sink(
                "SAC405",
                f"WITH-loop body reads '{target}', the array its "
                f"result rebinds, at a non-identity index; the old "
                f"value stays live and blocks in-place reuse",
                wl.pos, fun.name,
            )
