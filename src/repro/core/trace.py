"""Operation traces.

A *trace* lists the operations an MG solve performs — every stencil
application, grid transfer, border exchange and norm, with its grid
level and true interior point count.  The solver emits these records
through a :class:`Trace` object (``collect_trace=True``).

Because the V-cycle structure is fully determined by ``(nx, nit)``, a
trace can also be synthesized without running the solver
(:func:`synthesize_mg_trace`): the independent oracle the schedule
tests hold every solve mode's recorded operations against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["TraceOp", "Trace", "synthesize_mg_trace"]

#: Operation kinds emitted by the MG solver.
OP_KINDS = (
    "resid",   # r = v - A u        (27-point stencil + subtract)
    "psinv",   # u = u + S r        (27-point stencil + add)
    "rprj3",   # fine -> coarse projection (P stencil at stride 2)
    "interp",  # coarse -> fine prolongation (Q stencil scatter)
    "comm3",   # periodic border exchange
    "norm2u3", # reduction
    "zero3",   # allocation/clear
)


@dataclass(frozen=True)
class TraceOp:
    """One executed grid operation."""

    kind: str
    #: Multigrid level the *result* lives on (1 = coarsest).
    level: int
    #: Interior points of the result grid.
    points: int

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown trace op kind {self.kind!r}")
        if self.points <= 0:
            raise ValueError("trace op must cover a positive point count")


@dataclass
class Trace:
    """An append-only sequence of :class:`TraceOp` records."""

    ops: list[TraceOp] = field(default_factory=list)

    def record(self, kind: str, level: int, points: int) -> None:
        self.ops.append(TraceOp(kind, level, points))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in self.ops:
            out[op.kind] = out.get(op.kind, 0) + 1
        return out

    def points_by_level(self) -> dict[int, int]:
        """Total points processed per level — the V-cycle work profile."""
        out: dict[int, int] = {}
        for op in self.ops:
            out[op.level] = out.get(op.level, 0) + op.points
        return out


def _level_points(k: int) -> int:
    return (1 << k) ** 3


def synthesize_mg_trace(nx: int, nit: int) -> Trace:
    """Build the exact op sequence MG(nx, nit) executes, without running it.

    Mirrors :func:`repro.core.mg.mg3P` / :func:`repro.core.mg.solve`:
    initial residual, then per iteration a V-cycle (down-projections,
    coarsest smooth, up-interpolate/residual/smooth) and a top residual,
    with the border exchanges each kernel performs.
    """
    lt = nx.bit_length() - 1
    if (1 << lt) != nx:
        raise ValueError(f"nx must be a power of two, got {nx}")
    lb = 1
    t = Trace()

    def resid(k: int) -> None:
        t.record("resid", k, _level_points(k))
        t.record("comm3", k, _level_points(k))

    def psinv(k: int) -> None:
        t.record("psinv", k, _level_points(k))
        t.record("comm3", k, _level_points(k))

    resid(lt)  # r = v - A u, u = 0
    for _ in range(nit):
        # Down cycle.
        for k in range(lt, lb, -1):
            t.record("rprj3", k - 1, _level_points(k - 1))
            t.record("comm3", k - 1, _level_points(k - 1))
        # Coarsest grid.
        t.record("zero3", lb, _level_points(lb))
        psinv(lb)
        # Up cycle.
        for k in range(lb + 1, lt):
            t.record("zero3", k, _level_points(k))
            t.record("interp", k, _level_points(k))
            resid(k)
            psinv(k)
        t.record("interp", lt, _level_points(lt))
        resid(lt)
        psinv(lt)
        # Top-of-iteration residual.
        resid(lt)
    t.record("norm2u3", lt, _level_points(lt))
    return t
