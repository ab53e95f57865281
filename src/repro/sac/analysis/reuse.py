"""In-place-update legality: per-WITH-loop ReuseCertificates (``SAC5xx``).

The paper attributes SAC's Fortran-class MG performance to *statically*
proven memory reuse: with-loop folding plus reference-count-driven
destructive updates.  This pass is that legality oracle for our IR.  For
every WITH-loop bound at statement level (``t = with ... modarray(f,
b)``) it decides:

``buffer_reuse``
    The result may steal ``f``'s buffer instead of copying it.  Proven
    when ``f`` is a local whose buffer the function owns (not a
    parameter, not aliasing one), ``f`` is dead after the loop, and no
    value live after the loop may alias it — dataflow liveness from
    PR 1 plus the may-alias pairs of :mod:`repro.sac.analysis.alias`.
    Shape compatibility is by construction for ``modarray``.

``destructive``
    Additionally, the update is legal cell-by-cell in iteration order:
    the body reads the frame at most at the current index (``POINT``
    reads), never at offsets.  A backend may then write each cell as it
    is computed; ``buffer_reuse`` alone requires materializing the body
    first (which the NumPy backend does anyway).

``hazards``
    Names the body reads at offsets or wholesale — buffers the loop's
    *output* must not share memory with at runtime.  This is exactly
    the contract the runtime ``MG001`` stencil-alias guard enforces
    dynamically; the static and dynamic judgments are cross-checked in
    tests and must never disagree.

Diagnostics: **SAC510** (note) for each certified reuse opportunity.
(SAC502, the fusion warning, is with-loop folding's own verdict and is
issued by the analysis driver.)

Everything follows the package's prove-or-stay-silent discipline: reuse
is only certified on facts liveness and the may-alias pairs prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..ast_nodes import (
    Assign,
    FunDef,
    GenarrayOp,
    ModarrayOp,
    Program,
    Var,
    WithLoop,
)
from ..ast_visit import walk
from ..errors import SourcePos
from ..sactypes import ShapeKind
from .alias import AliasAnalysis
from .cfg import build_cfg
from .dataflow import liveness
from .effects import EffectsAnalysis, ReadKind

__all__ = ["ReuseCertificate", "certify_function", "certify_program"]

#: sink(code, message, pos, function) — same shape as the other passes.
Sink = Callable[[str, str, Optional[SourcePos], str], None]


def _null_sink(code: str, message: str, pos: Optional[SourcePos],
               function: str) -> None:
    return None


@dataclass
class ReuseCertificate:
    """Reuse verdict for one WITH-loop."""

    function: str
    #: 'genarray' | 'modarray' | 'fold'.
    kind: str
    pos: Optional[SourcePos]
    #: Variable the loop's result is bound to (None: consumed inline).
    target: Optional[str]
    #: Frame operand variable (modarray with a named frame only).
    frame: Optional[str]
    #: The result may steal the frame's buffer instead of copying.
    buffer_reuse: bool
    #: The update is additionally legal cell-by-cell in loop order.
    destructive: bool
    #: Names whose buffer must not overlap the output at runtime.
    hazards: tuple[str, ...] = ()
    #: Why reuse was denied, or caveats on a granted certificate.
    reasons: tuple[str, ...] = ()
    #: The loop itself (not part of equality).
    wl: Optional[WithLoop] = field(default=None, compare=False,
                                   repr=False)

    def __str__(self) -> str:
        where = f" at {self.pos}" if self.pos else ""
        bound = f" '{self.target}'" if self.target else ""
        if self.buffer_reuse:
            verdict = f"may reuse buffer of '{self.frame}'"
            if self.destructive:
                verdict += " destructively"
        else:
            verdict = "no reuse"
        why = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        hazards = (f"; hazards: {', '.join(self.hazards)}"
                   if self.hazards else "")
        return (f"{self.function}: {self.kind} WITH-loop{bound}{where}: "
                f"{verdict}{why}{hazards}")


# ---------------------------------------------------------------------------
# Per-function certification.
# ---------------------------------------------------------------------------

def certify_function(fun: FunDef, effects: EffectsAnalysis,
                     sink: Optional[Sink] = None) -> list[ReuseCertificate]:
    """Certificates for every WITH-loop of one function."""
    emit: Sink = sink if sink is not None else _null_sink
    cfg = build_cfg(fun)
    live = liveness(cfg)
    alias = AliasAnalysis(fun, effects, cfg)
    param_names = frozenset(p.name for p in fun.params)
    array_params = frozenset(
        p.name for p in fun.params
        if p.type.kind is not ShapeKind.SCALAR)
    certs: list[ReuseCertificate] = []
    seen: set[int] = set()
    for block in cfg.blocks:
        live_after = _live_after_per_action(block.actions, live[block.id][0])
        for i, act in enumerate(block.actions):
            node = act.node
            if isinstance(node, Assign) \
                    and isinstance(node.value, WithLoop):
                wl = node.value
                seen.add(id(wl))
                certs.append(_certify_loop(
                    fun, wl, node.target, block.id, i, live_after[i],
                    alias, effects, param_names, array_params, emit))
    # WITH-loops consumed inline (returns, nested expressions) have no
    # named binding whose lifetime could be analyzed; record them so
    # every loop carries a certificate, with reuse denied.
    for expr_node in walk(fun.body):
        if isinstance(expr_node, WithLoop) and id(expr_node) not in seen:
            seen.add(id(expr_node))
            certs.append(_inline_certificate(fun, expr_node))
    return certs


def _kind_of(wl: WithLoop) -> str:
    if isinstance(wl.operation, GenarrayOp):
        return "genarray"
    if isinstance(wl.operation, ModarrayOp):
        return "modarray"
    return "fold"


def _live_after_per_action(actions: list, live_out: frozenset
                           ) -> list[frozenset]:
    """Live variables immediately after each action of a block."""
    out: list[frozenset] = [frozenset()] * len(actions)
    live = live_out
    for j in range(len(actions) - 1, -1, -1):
        out[j] = live
        act = actions[j]
        if act.defines is not None:
            live = live - {act.defines}
        live = live | act.uses
    return out


def _certify_loop(fun: FunDef, wl: WithLoop, target: str,
                  block: int, index: int, live_after: frozenset,
                  alias: AliasAnalysis, effects: EffectsAnalysis,
                  param_names: frozenset[str],
                  array_params: frozenset[str],
                  emit: Sink) -> ReuseCertificate:
    kind = _kind_of(wl)
    op = wl.operation
    gen_var = wl.generator.var
    body_reads = effects.expr_reads(op.body, frozenset({gen_var}))
    hazards = tuple(sorted({
        r.name for r in body_reads
        if r.kind >= ReadKind.OFFSET and r.name != gen_var
    }))

    reasons: list[str] = []
    frame_name: Optional[str] = None
    if kind == "fold":
        reasons.append("fold has no frame operand")
    elif kind == "genarray":
        reasons.append("genarray allocates its own frame")
    else:
        frame = op.array if isinstance(op, ModarrayOp) else None
        if not isinstance(frame, Var):
            reasons.append("frame is not a named operand")
        else:
            frame_name = frame.name
            pairs = alias.pairs_before(block, index)
            if frame_name in param_names:
                reasons.append(
                    f"frame '{frame_name}' is a parameter; the caller "
                    f"owns its buffer")
            if frame_name != target and frame_name in live_after:
                reasons.append(
                    f"frame '{frame_name}' is live after the loop")
            partners = alias.partners(pairs, frame_name)
            blockers = partners & (array_params
                                   | (live_after - {target}))
            if blockers:
                reasons.append(
                    f"frame '{frame_name}' may alias live or "
                    f"caller-owned value(s): "
                    f"{', '.join(sorted(blockers))}")

    buffer_reuse = not reasons
    destructive = False
    if buffer_reuse and frame_name is not None:
        pairs = alias.pairs_before(block, index)
        frame_reads = [
            r for r in body_reads
            if alias.may_alias(pairs, frame_name, r.name)
        ]
        destructive = all(
            r.kind is ReadKind.NONE
            or (r.kind is ReadKind.POINT and r.index_var == gen_var)
            for r in frame_reads
        )
        if not destructive:
            reasons.append(
                f"body reads '{frame_name}' beyond the current index; "
                f"the update must materialize before writing")

    cert = ReuseCertificate(fun.name, kind, wl.pos, target, frame_name,
                            buffer_reuse, destructive, hazards,
                            tuple(reasons), wl)
    if buffer_reuse:
        emit("SAC510",
             f"WITH-loop result '{target}' may reuse the dead buffer "
             f"of '{frame_name}'"
             + (" destructively" if destructive else ""),
             wl.pos, fun.name)
    return cert


def _inline_certificate(fun: FunDef, wl: WithLoop) -> ReuseCertificate:
    return ReuseCertificate(
        fun.name, _kind_of(wl), wl.pos, None, None,
        buffer_reuse=False, destructive=False,
        reasons=("result is consumed inline; no binding to analyze",),
        wl=wl)


# ---------------------------------------------------------------------------
# Whole-program entry point.
# ---------------------------------------------------------------------------

def certify_program(program: Program,
                    sink: Optional[Sink] = None) -> list[ReuseCertificate]:
    """Certificates for every WITH-loop of every function."""
    effects = EffectsAnalysis(program)
    certs: list[ReuseCertificate] = []
    for fun in program.functions:
        certs.extend(certify_function(fun, effects, sink))
    return certs
