"""SPMD-safety certification of WITH-loops (``SAC3xx``).

The interpreter (and the paper's compiler) may execute a WITH-loop's
iterations concurrently across a thread team (``runtime/spmd.py``).
That is safe exactly when

1. no two iterations write the same cell of the result frame — for the
   single-generator dialect that is the partition-disjointness condition
   ``width <= step`` proven by :mod:`repro.sac.analysis.partition`, and
2. for ``fold`` loops, the folding function is associative and
   commutative, so partial reductions may combine in any order.  The
   operators the runtime itself folds with (``FOLD_UFUNCS``: ``+ *`` and
   the binary builtins ``min max``) are known-safe; a fold naming any
   other function is flagged **SAC302** (warning) — it may well be
   correct, but cannot be certified here.

Overlapping writes are **SAC301** (error).  Every WITH-loop visited
yields a :class:`LoopCertificate`, so a caller (the ``mg_sac`` loader
gate) can assert that a whole program is certified race-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..builtins import FOLD_UFUNCS
from ..errors import SourcePos
from .shapes import WithLoopInfo

__all__ = ["LoopCertificate", "RaceChecker", "SAFE_FOLD_FUNCTIONS"]

#: Fold functions the runtime reduces with associative-commutative
#: ufuncs — reordering partial results cannot change the outcome
#: (modulo floating-point rounding, which the paper accepts too).
SAFE_FOLD_FUNCTIONS = frozenset(FOLD_UFUNCS)


@dataclass
class LoopCertificate:
    """SPMD verdict for one WITH-loop."""

    function: str
    kind: str
    pos: Optional[SourcePos]
    safe: bool
    reasons: tuple[str, ...] = ()

    def __str__(self) -> str:
        verdict = "SPMD-safe" if self.safe else "NOT certified"
        where = f" at {self.pos}" if self.pos else ""
        why = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        return (f"{self.function}: {self.kind} WITH-loop{where}: "
                f"{verdict}{why}")


class RaceChecker:
    """WITH-loop listener emitting SAC3xx and collecting certificates."""

    def __init__(self, sink: Callable):
        # sink(code, message, pos, function)
        self.sink = sink
        self.certificates: list[LoopCertificate] = []

    def __call__(self, info: WithLoopInfo) -> None:
        reasons: list[str] = []
        safe = True
        if info.kind in ("genarray", "modarray"):
            for ax, (s, w) in enumerate(zip(info.step, info.width)):
                if s is not None and w is not None and w > s:
                    safe = False
                    reasons.append(
                        f"width {w} > step {s} along axis {ax}")
                    self.sink(
                        "SAC301",
                        f"iteration blocks overlap (width {w} > step "
                        f"{s} along axis {ax}): concurrent iterations "
                        f"write the same cells",
                        info.pos, info.function,
                    )
                    break
        else:  # fold
            fun = info.fold_fun
            if fun is not None and fun not in SAFE_FOLD_FUNCTIONS:
                safe = False
                reasons.append(
                    f"fold function '{fun}' not certified "
                    f"associative-commutative")
                self.sink(
                    "SAC302",
                    f"fold function '{fun}' is not one of the certified "
                    f"associative-commutative operators "
                    f"({', '.join(sorted(SAFE_FOLD_FUNCTIONS))}); "
                    f"parallel reduction order may change the result",
                    info.pos, info.function,
                )
        self.certificates.append(
            LoopCertificate(info.function, info.kind, info.pos, safe,
                            tuple(reasons)))

    def unsafe(self) -> list[LoopCertificate]:
        return [c for c in self.certificates if not c.safe]
