"""The benchmark runner behind ``python -m repro.harness bench``.

Runs the NPB timed section per execution mode with a warm
:class:`~repro.perf.workspace.Workspace` and a
:class:`~repro.perf.instrument.PerfMonitor`, and reduces each mode to a
:class:`~repro.perf.instrument.PerfReport`.  The reported ``seconds`` is
best-of-``repeats`` (NPB convention); the pool accounting comes from the
last repeat, whose ``steady_state_allocations`` (pool misses after the
first V-cycle iteration) must be zero — that is the allocation-free
claim CI asserts via ``scripts/bench_smoke.py``.

``problem`` selects the solver-family member (default the NPB
instance).  PDE members run through :func:`repro.pde.solve_problem`
(serial/threaded); their reports carry ``mop_s = 0`` — the NPB flop
convention does not describe their operators — and ``verified`` means
converged-to-tolerance rather than NPB-verified.
"""

from __future__ import annotations

import time

from repro.core.classes import get_class
from repro.core.mg import solve

from .instrument import PerfMonitor, PerfReport, mop_per_second
from .workspace import Workspace

__all__ = ["run_bench"]


def _pool_stats(ws: Workspace, steady_state: int) -> dict:
    return {
        "allocations": ws.allocations,
        "hits": ws.hits,
        "bytes_allocated": ws.bytes_allocated,
        "live_buffers": ws.live_buffers,
        "steady_state_allocations": steady_state,
    }


def _npb_problem() -> dict:
    from repro.pde import get_workload

    return get_workload("npb-mg").spec.describe()


def _bench_serial(sc, nit: int, repeats: int) -> PerfReport:
    ws = Workspace("bench-serial", problem="npb-mg")
    best = float("inf")
    best_monitor = PerfMonitor()
    result = None
    steady = -1
    for _ in range(repeats):
        monitor = PerfMonitor()
        marks: list[int] = []
        t0 = time.perf_counter()
        result = solve(sc, nit, ws=ws, monitor=monitor,
                       on_iteration=lambda it, r: marks.append(ws.allocations))
        dt = time.perf_counter() - t0
        steady = ws.allocations - marks[0] if marks else 0
        if dt < best:
            best, best_monitor = dt, monitor
    return PerfReport(
        size_class=sc.name, mode="serial", nit=nit, seconds=best,
        repeats=repeats, per_op_seconds=best_monitor.seconds,
        per_op_calls=best_monitor.calls,
        mop_s=mop_per_second(sc.nx, nit, best),
        pool=_pool_stats(ws, steady),
        rnm2=result.rnm2, verified=result.verified,
        problem=_npb_problem(),
    )


def _bench_threaded(sc, nit: int, repeats: int, nthreads: int) -> PerfReport:
    from repro.runtime.parallel_mg import ParallelMG

    ws = Workspace("bench-threaded", problem="npb-mg")
    solver = ParallelMG(nthreads, workspace=ws)
    best = float("inf")
    best_monitor = PerfMonitor()
    result = None
    steady = -1
    for _ in range(repeats):
        monitor = PerfMonitor()
        solver.monitor = monitor
        allocs_before_warm = ws.allocations
        t0 = time.perf_counter()
        result = solver.solve(sc.name, nit)
        dt = time.perf_counter() - t0
        # The pool is warm after the first repeat's first iteration;
        # every later repeat must not miss at all.
        steady = (ws.allocations - allocs_before_warm
                  if allocs_before_warm else -1)
        if dt < best:
            best, best_monitor = dt, monitor
    solver.close()
    return PerfReport(
        size_class=sc.name, mode="threaded", nit=nit, seconds=best,
        repeats=repeats, per_op_seconds=best_monitor.seconds,
        per_op_calls=best_monitor.calls,
        mop_s=mop_per_second(sc.nx, nit, best),
        pool=_pool_stats(ws, steady),
        rnm2=result.rnm2, verified=result.verified,
        extra={"nthreads": nthreads},
        problem=_npb_problem(),
    )


def _bench_distributed(sc, nit: int, repeats: int, nranks: int) -> PerfReport:
    from repro.runtime.spmd import DistributedMG

    solver = DistributedMG(nranks, workspace=True)
    best = float("inf")
    best_monitor = PerfMonitor()
    result = None
    steady = -1
    for _ in range(repeats):
        monitor = PerfMonitor()
        solver.monitor = monitor
        before = sum(w.allocations for w in solver.workspaces)
        t0 = time.perf_counter()
        result = solver.solve(sc.name, nit)
        dt = time.perf_counter() - t0
        after = sum(w.allocations for w in solver.workspaces)
        steady = after - before if before else -1
        if dt < best:
            best, best_monitor = dt, monitor
    pool = {
        "allocations": sum(w.allocations for w in solver.workspaces),
        "hits": sum(w.hits for w in solver.workspaces),
        "bytes_allocated": sum(w.bytes_allocated for w in solver.workspaces),
        "live_buffers": sum(w.live_buffers for w in solver.workspaces),
        "steady_state_allocations": steady,
    }
    return PerfReport(
        size_class=sc.name, mode="distributed", nit=nit, seconds=best,
        repeats=repeats, per_op_seconds=best_monitor.seconds,
        per_op_calls=best_monitor.calls,
        mop_s=mop_per_second(sc.nx, nit, best),
        pool=pool, rnm2=result.rnm2, verified=result.verified,
        extra={"nranks": nranks},
        problem=_npb_problem(),
    )


def _bench_pde(problem: str, size_class: str, mode: str, repeats: int,
               nthreads: int) -> PerfReport:
    """Benchmark one PDE family member in one mode.

    ``verified`` means converged-to-tolerance; ``mop_s`` stays 0 (the
    NPB flop convention has nothing to say about these operators).
    """
    from repro.pde import get_workload

    wl = get_workload(problem)
    ws = Workspace(f"bench-{mode}", problem=problem)
    best = float("inf")
    best_monitor = PerfMonitor()
    result = None
    steady = -1
    for _ in range(repeats):
        monitor = PerfMonitor()
        marks: list[int] = []
        t0 = time.perf_counter()
        result = wl.solve(
            size_class, mode=mode, nthreads=nthreads, workspace=ws,
            monitor=monitor,
            on_iteration=lambda it, r: marks.append(ws.allocations))
        dt = time.perf_counter() - t0
        steady = ws.allocations - marks[0] if marks else 0
        if dt < best:
            best, best_monitor = dt, monitor
    extra = {"nthreads": nthreads} if mode == "threaded" else {}
    return PerfReport(
        size_class=size_class, mode=mode, nit=result.iterations,
        seconds=best, repeats=repeats,
        per_op_seconds=best_monitor.seconds,
        per_op_calls=best_monitor.calls,
        mop_s=0.0, pool=_pool_stats(ws, steady),
        rnm2=result.rnm2, verified=result.verified,
        extra=extra, problem=wl.spec.describe(),
    )


def run_bench(size_class: str = "S", modes=("serial", "threaded"),
              nit: int | None = None, repeats: int = 3, nthreads: int = 4,
              nranks: int = 2, problem: str = "npb-mg") -> list[PerfReport]:
    """Benchmark the requested modes; returns one report per mode."""
    if problem != "npb-mg":
        reports = []
        for mode in modes:
            if mode not in ("serial", "threaded"):
                raise ValueError(
                    f"problem {problem!r} benches serial and threaded "
                    f"modes, not {mode!r}")
            reports.append(_bench_pde(problem, size_class, mode,
                                      repeats, nthreads))
        return reports
    sc = get_class(size_class)
    iters = sc.nit if nit is None else nit
    reports: list[PerfReport] = []
    for mode in modes:
        if mode == "serial":
            reports.append(_bench_serial(sc, iters, repeats))
        elif mode == "threaded":
            reports.append(_bench_threaded(sc, iters, repeats, nthreads))
        elif mode == "distributed":
            reports.append(_bench_distributed(sc, iters, repeats, nranks))
        else:
            raise ValueError(f"unknown bench mode {mode!r} (serial, "
                             "threaded, distributed)")
    return reports
