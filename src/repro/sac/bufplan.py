"""Buffer planning for the codegen trace.

:mod:`repro.sac.codegen` traces a SAC function into a straight-line list
of :class:`Instr` records, one per generated NumPy statement.  Every
result is a fresh SSA name, so rendered as it stands each elementwise
operation allocates its result and nothing is freed before ``return``.
:func:`plan` is the one pass between tracing and :func:`render`: exact
lifetimes over the straight line (a view keeps its base alive), then
reuse decided the way SAC's reference counts decide it — statically,
because in a straight line the count is known exactly.  A buffer is
*owned* when it is a whole array this trace allocated, a ``call`` result
the callee allocated, or a parameter every caller donates
(``owned_params``); it *dies* at the last instruction that touches it
through any alias.

* an elementwise operation whose result has the shape and dtype of an
  owned operand dying there writes into that operand
  (``np.add(a, b, out=a)``) and binds no new name;
* a ``copy`` of an owned buffer that dies there — or in the ``store``
  into the copy that follows, whose value may be a view of the source:
  NumPy buffers an overlapping right-hand side — binds no new buffer,
  the result takes the source's name;
* a ``call`` *donates* an owned operand that dies there and is passed
  once: the caller calls the variant of the callee planned with that
  parameter owned, and owns whatever comes back;
* an elementwise operation that reads a ``window`` of an owned buffer
  dying there, and no other view of it, writes into that window; a
  fresh 1-D result instead takes the head of a windowed buffer freed
  since the last allocation (its ``del`` goes), so that a chain of flat
  partial sums allocates no more arrays than it has live at once; and
  windowed buffers made before any of them dies are rows of one
  allocation, whose first ``free`` raises glibc's trim threshold above
  what a relaxation holds at once (docs/COMPILER.md, rule 4);
* an owned array that dies without being reused is ``del``-ed (with the
  names of its views, which hold it alive).

Same ufuncs, same operand order: the planned code computes the bits the
unplanned code would.  Buffers stay locals of the generated functions,
and the entry point is planned with no parameter owned, so it stays pure
and reentrant.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .builtins import BUILTINS

__all__ = ["ELEMENTWISE", "Instr", "plan", "render", "result_bases"]

#: SAC operator or elementwise builtin -> (ufunc, operator spelling of the
#: allocating form, or None where the allocating form is the plain ufunc
#: call).  A builtin's ufunc is its record's ``code``.
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
    **{b.name: (b.code, None) for b in BUILTINS.values()
       if b.instr == "elementwise"},
}


@dataclass(frozen=True)
class Instr:
    """One statement of the trace.

    ``kind`` says what the statement does to memory:

    ``alloc``
        ``dst`` is a fresh array the expression allocates itself
        (``np.zeros``, ``np.stack``, a reduction, ...).
    ``copy``
        ``dst`` is a fresh copy of operand 0 (a ``modarray`` frame; the
        planner drops it when operand 0 is an owned buffer dying there).
    ``elementwise``
        ``dst`` is a ufunc of the operands; ``op`` keys
        :data:`ELEMENTWISE`.  The planner may set ``out``.
    ``view``
        ``dst`` aliases memory it does not own: operand 0's, or with no
        operand an anonymous read-only temporary's.
    ``window``
        a view that is a contiguous slice of operand 0, a 1-D buffer
        this trace computed: the one view the planner writes into.
    ``call``
        ``dst`` is what another specialization returned (or one element
        of a returned tuple).  ``base`` is None when the callee
        allocated it, so that the caller owns it like an ``alloc``; else
        the operand it aliases, or ``""`` for memory nobody may write.
        ``donate`` holds the operand positions the callee may take over.
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
    #: Of a ``call``: in a trace the operand positions the callee could
    #: be given to write into, in a plan the ones it is given.
    donate: tuple[int, ...] = ()


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


#: What a donated parameter is planned as: its shape and dtype.
Owned = Mapping[str, tuple[tuple[int, ...], "np.dtype[Any]"]]


def _lifetimes(instrs: list[Instr], owned_params: Owned = {}) -> tuple[
        dict[str, str], dict[str, int], dict[str, Instr]]:
    """Per buffer: ``root`` maps a name to the name whose memory it
    aliases, ``last`` a buffer to the last instruction touching it through
    any alias, ``fresh`` a buffer this trace allocated, or was donated, to
    the instruction that says its shape and dtype."""
    fresh = {p: Instr(p, "alloc", "", (), shape, dtype)
             for p, (shape, dtype) in owned_params.items()}
    root = {p: p for p in fresh}
    last = {p: -1 for p in fresh}
    for i, ins in enumerate(instrs):
        for x in ins.operands:
            if x in root:
                last[root[x]] = i
        if ins.dst is not None:
            if ins.kind in ("view", "window"):
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
    root, _, fresh = _lifetimes(instrs)
    roots = [root.get(x, x) for x in instrs[-1].operands]
    return tuple(None if r in fresh and roots.count(r) == 1 else r
                 for r in roots)


def plan(instrs: list[Instr], owned_params: Owned = {}
         ) -> tuple[list[Instr], set[str]]:
    """Rewrite a complete trace (ending in its ``return``) to accumulate
    in place, to update frames in place, to donate dead operands and to
    free dead buffers.  ``owned_params`` are the parameters every caller
    of this plan donates; returned beside the plan are those of them it
    wrote into or took for a copy (which it passes on, the ``donate`` of
    its calls says).

    An instruction that writes into an operand binds no name; later
    instructions that used its ``dst`` are given the operand's name.
    """
    # ``owned`` holds the whole, writable arrays that are this trace's:
    # never another parameter, a module constant, a view or a 0-d value.
    root, last, fresh = _lifetimes(instrs, owned_params)
    owned = {name: ins for name, ins in fresh.items() if ins.shape != ()}
    windows = {ins.dst: ins for ins in instrs if ins.kind == "window"}
    windowed = {root[w.operands[0]] for w in windows.values()}

    bound: dict[str, str] = {}          # SSA name -> its name in the output
    holders: dict[str, list[str]] = {}  # buffer -> bound names keeping it
    out: list[Instr | None] = []
    used: set[str] = set()
    #: Windowed 1-D buffers freed since the last allocation: (name,
    #: length, dtype, position of their ``del`` in ``out``).
    free: list[tuple[str, int, Any, int]] = []
    for i, ins in enumerate(instrs):
        dst, names = ins.dst, ins.operands
        operands = tuple(bound.get(x, x) for x in names)
        dying = dict.fromkeys(
            root[x] for x in names
            if x in root and root[x] in owned and last[root[x]] == i)
        target = None  # output name of the operand whose memory dst takes
        if ins.kind == "elementwise" and dst is not None:
            for x in names:
                if (x in dying and owned[x].shape == ins.shape
                        and owned[x].dtype == ins.dtype):
                    del dying[x]
                    used.add(x)
                    target = bound[dst] = bound.get(x, x)
                    break
            for x in names if target is None else ():
                w = root.get(x)
                if (x in windows and w in dying
                        and windows[x].shape == ins.shape
                        and owned[w].dtype == ins.dtype
                        and [root.get(y) for y in names].count(w) == 1):
                    # Into the window of a buffer dying here that no
                    # other operand reads: each element in its own place.
                    del dying[w]
                    target = bound[dst] = bound.get(x, x)
                    holders[target] = holders.pop(bound.get(w, w))
                    break
            for k, (name, n, dtype, at) in enumerate(free):
                if target is not None or len(ins.shape) != 1:
                    break
                if dtype == ins.dtype and n >= ins.shape[0]:
                    # Into the head of a window buffer freed since the
                    # last allocation: its ``del`` goes, and no new array.
                    del free[k]
                    holders[dst] = [*out[at].operands, dst]
                    out[at] = None
                    out.append(Instr(dst, "window", f"{{}}[0:{ins.shape[0]}]",
                                     (name,), ins.shape, dtype))
                    target = dst
            if target is not None:
                ins = replace(ins, dst=None, out=target)
        elif ins.kind == "copy" and dst is not None:
            x, after = names[0], instrs[i + 1]
            stored = after.kind == "store" and after.operands[0] == dst
            if (x in owned and i <= last[x] <= i + stored
                    and owned[x].shape == ins.shape
                    and owned[x].dtype == ins.dtype):
                # The buffer is dst's from here on, so x never dies.
                dying.pop(x, None)
                del owned[x]
                used.add(x)
                target = bound[dst] = bound.get(x, x)
        elif ins.kind == "call" and ins.donate:
            ins = replace(ins, donate=tuple(
                k for k in ins.donate if names[k] in dying
                and sum(root.get(y) == names[k] for y in names) == 1))
        if not (ins.kind == "copy" and target):  # an elided copy is no code
            out.append(ins if operands == names
                       else replace(ins, operands=operands))
            if ins.dst is not None and root[ins.dst] == ins.dst:
                free.clear()
        if ins.kind == "return":
            break
        if dst is not None and root[dst] in owned:
            buf = root[dst]
            if target is None:
                holders.setdefault(bound.get(buf, buf), []).append(dst)
            if last[buf] == i:  # never used
                dying[buf] = None
        for buf in dying:
            # What lives in a donated parameter stays bound: the caller
            # holds that memory too, so unbinding would free nothing.
            name = bound.get(buf, buf)
            if name not in owned_params:
                out.append(Instr(None, "del", "", tuple(holders.pop(name))))
                if (buf in windowed and name not in windows
                        and len(owned[buf].shape) == 1):
                    free.append((name, owned[buf].shape[0],
                                 owned[buf].dtype, len(out) - 1))
    return _one_block([ins for ins in out if ins is not None]), \
        used & owned_params.keys()


def _one_block(instrs: list[Instr]) -> list[Instr]:
    """Make the windowed 1-D buffers that are all created before any of
    them dies (a relaxation's partial sums) rows of one allocation:
    ``a, b = np.empty((2, n))``, each then computed into its row."""
    windowed = {ins.operands[0] for ins in instrs if ins.kind == "window"}
    made = [i for i, ins in enumerate(instrs)
            if ins.kind == "elementwise" and ins.out is None
            and ins.dst in windowed and len(ins.shape) == 1]
    names = {instrs[i].dst for i in made}
    first_del = next((i for i, ins in enumerate(instrs) if ins.kind == "del"
                      and names & set(ins.operands)), len(instrs))
    rows = [i for i in made if i < first_del and (instrs[i].shape,
            instrs[i].dtype) == (instrs[made[0]].shape, instrs[made[0]].dtype)]
    if len(rows) < 2:
        return instrs
    out = list(instrs)
    for i in rows:
        out[i] = replace(out[i], dst=None, out=out[i].dst)
    block = f"({len(rows)}, {instrs[rows[0]].shape[0]})"
    out.insert(rows[0], Instr(None, "alloc", ", ".join(
        instrs[i].dst for i in rows) + f" = np.empty({block}, "
        f"dtype=np.{instrs[rows[0]].dtype.name})", ()))
    return out
