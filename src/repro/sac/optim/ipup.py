"""In-place-update annotation (the classic SAC "ipup" optimization).

Runs the reuse certification of :mod:`repro.sac.analysis.reuse` over the
(already optimized) program and attaches a
:class:`~repro.sac.ast_nodes.ReuseHint` to every WITH-loop whose frame
buffer was proven reusable — a dead, function-owned, unaliased operand.
The pass itself rewrites nothing semantic; it records *proofs* on the
IR, for the analysis report (``sac.analysis.reuse_hints``, SAC5xx).  The
code generator does not read them: its buffer planner
(:mod:`repro.sac.bufplan`) finds every certified site by the liveness of
its trace — a dead owned temp — and elides the frame copy there, along
with the call results and donated parameters a per-function certificate
cannot speak for.  The interpreter copies every frame.

Scheduled last — after folding, unrolling and DCE have settled the
loop structure and liveness the certificates reason about.  Any later
pass that rewrites loops would have to re-run certification; the
analysis side enforces this with SAC501, which rejects a hint the
facts no longer support.
"""

from __future__ import annotations

import dataclasses

from ..ast_nodes import Expr, Program, ReuseHint
from .rewrite import map_stmt_exprs, walk_exprs

__all__ = ["ipup_pass"]


def ipup_pass(program: Program) -> Program:
    """Annotate certified WITH-loops with buffer-reuse hints."""
    from ..analysis.reuse import certify_program

    hints: dict[int, ReuseHint] = {}
    for cert in certify_program(program):
        if cert.buffer_reuse and cert.wl is not None:
            hints[id(cert.wl)] = ReuseHint(
                buffer_reuse=True,
                destructive=cert.destructive,
                frame=cert.frame,
            )
    if not hints:
        return program

    def annotate(expr: Expr) -> Expr:
        # Hints are keyed by the identity of the analyzed node.  The
        # bottom-up traversal hands a node back as the same object unless
        # something below it was rewritten, and reuse is only ever
        # certified for statement-level loops (never one nested in
        # another loop's expression), so a hinted loop arrives intact.
        hint = hints.get(id(expr))
        return expr if hint is None else dataclasses.replace(expr, hint=hint)

    # A function with no certified loop keeps its identity.
    return program.with_functions([
        dataclasses.replace(fun, body=map_stmt_exprs(fun.body, annotate))
        if any(id(e) in hints for e in walk_exprs(fun.body)) else fun
        for fun in program.functions
    ])
