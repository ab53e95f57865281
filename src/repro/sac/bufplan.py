"""Buffer planning for the codegen trace.

:mod:`repro.sac.codegen` traces a SAC function into a straight-line list
of :class:`Instr` records, one per generated NumPy statement.  Every
result is a fresh SSA name, so rendered as it stands each elementwise
operation allocates its result and nothing is freed before ``return``.
:func:`plan` is the one pass between tracing and :func:`render`: exact
liveness over the straight line (a view keeps its base alive), then

* an elementwise operation whose result has the shape and dtype of an
  operand that is a whole array this trace allocated, dead after the
  operation and with no live view, writes into that operand
  (``np.add(a, b, out=a)``) and binds no new name;
* a trace-allocated array that dies without being reused is ``del``-ed
  (with the names of its views, which hold it alive).

Same ufuncs, same operand order: the planned code computes the bits the
unplanned code would.  Buffers stay locals of the generated function,
so it stays pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

__all__ = ["ELEMENTWISE", "Instr", "plan", "render", "result_bases"]

#: SAC operator / builtin -> (ufunc, operator spelling of the allocating
#: form, or None where the allocating form is the plain ufunc call).
ELEMENTWISE: dict[str, tuple[str, str | None]] = {
    "+": ("np.add", "({} + {})"),
    "-": ("np.subtract", "({} - {})"),
    "*": ("np.multiply", "({} * {})"),
    "/": ("np.true_divide", "({} / {})"),
    "==": ("np.equal", "({} == {})"),
    "!=": ("np.not_equal", "({} != {})"),
    "<": ("np.less", "({} < {})"),
    "<=": ("np.less_equal", "({} <= {})"),
    ">": ("np.greater", "({} > {})"),
    ">=": ("np.greater_equal", "({} >= {})"),
    "&&": ("np.logical_and", None),
    "||": ("np.logical_or", None),
    "neg": ("np.negative", "(-{})"),
    "!": ("np.logical_not", None),
    "abs": ("np.abs", None),
    "sqrt": ("np.sqrt", None),
    "min": ("np.minimum", None),
    "max": ("np.maximum", None),
}


@dataclass(frozen=True)
class Instr:
    """One statement of the trace.

    ``kind`` says what the statement does to memory:

    ``alloc``
        ``dst`` is a fresh array the expression allocates itself
        (``np.zeros``, ``np.stack``, a reduction, ...).
    ``copy``
        ``dst`` is a fresh copy of operand 0.
    ``elementwise``
        ``dst`` is a ufunc of the operands; ``op`` keys
        :data:`ELEMENTWISE`.  The planner may set ``out``.
    ``view``
        ``dst`` aliases memory it does not own: operand 0's, or with no
        operand an anonymous read-only temporary's.
    ``call``
        ``dst`` is what another specialization returned (or one element
        of a returned tuple).  ``base`` is None when the callee
        allocated it, so that the caller owns it like an ``alloc``; else
        the operand it aliases, or ``""`` for memory nobody may write.
    ``store``
        writes operand 1 into a region of operand 0; no ``dst``.
    ``return``
        ends the trace, returning operand 0; no ``dst``.
    ``del``
        unbinds the operands (planner-made).

    For ``elementwise`` ``op`` keys :data:`ELEMENTWISE`; for the other
    traced kinds it is the Python text of the right-hand side (of the
    whole statement where there is no ``dst``) with one ``{}`` per
    operand.  Operands are names or literals.
    """

    dst: str | None
    kind: str
    op: str
    operands: tuple[str, ...]
    shape: tuple[int, ...] = ()
    dtype: np.dtype[Any] | None = None
    #: The operand this elementwise operation writes into (planner-set).
    out: str | None = None
    base: str | None = None  # what a ``call`` result aliases


def render(ins: Instr) -> str:
    """The Python statement for one instruction."""
    if ins.kind == "del":
        return "del " + ", ".join(ins.operands)
    if ins.kind == "elementwise":
        ufunc, infix = ELEMENTWISE[ins.op]
        args = ", ".join(ins.operands)
        if ins.out is not None:
            return f"{ufunc}({args}, out={ins.out})"
        code = infix.format(*ins.operands) if infix else f"{ufunc}({args})"
    else:
        code = ins.op.format(*ins.operands)
    return code if ins.dst is None else f"{ins.dst} = {code}"


def _liveness(instrs: list[Instr]) -> tuple[
        dict[str, str], dict[str, int], dict[str, Instr]]:
    """Per buffer: ``root`` maps a name to the name whose memory it
    aliases, ``last`` a buffer to the last instruction touching it through
    any alias, ``fresh`` a buffer this trace allocated to its instruction."""
    root: dict[str, str] = {}
    last: dict[str, int] = {}
    fresh: dict[str, Instr] = {}
    for i, ins in enumerate(instrs):
        for x in ins.operands:
            if x in root:
                last[root[x]] = i
        if ins.dst is not None:
            if ins.kind == "view":
                base: str | None = ins.operands[0] if ins.operands else ins.dst
            else:
                base = ins.base
            if base is None:
                root[ins.dst] = ins.dst
                fresh[ins.dst] = ins
            else:
                root[ins.dst] = root.get(base, base)
            last.setdefault(root[ins.dst], i)
    return root, last, fresh


def result_bases(instrs: list[Instr]) -> tuple[str | None, ...]:
    """Per value the trace's final ``return`` names: None when the trace
    allocated its memory (the caller may own it), else the parameter,
    constant or read-only temporary it aliases."""
    root, _, fresh = _liveness(instrs)
    roots = [root.get(x, x) for x in instrs[-1].operands]
    return tuple(None if r in fresh and roots.count(r) == 1 else r
                 for r in roots)


def plan(instrs: list[Instr]) -> list[Instr]:
    """Rewrite a complete trace (ending in its ``return``) to accumulate
    in place and to free dead buffers.

    An instruction that writes into an operand binds no name; later
    instructions that used its ``dst`` are given the operand's name.
    """
    # ``owned`` holds the whole, writable arrays this trace allocated:
    # never a parameter, a module constant, a view or a 0-d value.
    root, last, fresh = _liveness(instrs)
    owned = {name: ins for name, ins in fresh.items() if ins.shape != ()}

    bound: dict[str, str] = {}          # SSA name -> its name in the output
    holders: dict[str, list[str]] = {}  # buffer -> bound names keeping it
    out: list[Instr] = []
    for i, ins in enumerate(instrs):
        dst, names = ins.dst, ins.operands
        operands = tuple(bound.get(x, x) for x in names)
        dying = dict.fromkeys(
            root[x] for x in names
            if x in root and root[x] in owned and last[root[x]] == i)
        target = None  # output name of the operand this one writes into
        if ins.kind == "elementwise" and dst is not None:
            for x in names:
                if (x in dying and owned[x].shape == ins.shape
                        and owned[x].dtype == ins.dtype):
                    del dying[x]
                    target = bound[dst] = bound.get(x, x)
                    break
        if target is not None:
            ins = replace(ins, dst=None, operands=operands, out=target)
        elif operands != names:
            ins = replace(ins, operands=operands)
        out.append(ins)
        if ins.kind == "return":
            break
        if dst is not None and root[dst] in owned:
            buf = root[dst]
            if target is None:
                holders.setdefault(bound.get(buf, buf), []).append(dst)
            if last[buf] == i:  # never used
                dying[buf] = None
        for buf in dying:
            out.append(Instr(None, "del", "",
                             tuple(holders.pop(bound.get(buf, buf)))))
    return out
