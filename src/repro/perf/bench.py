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


def _open_mode(wl, mode: str, sc, size_class: str, nit: int,
               nthreads: int, nranks: int):
    """What differs between modes: ``(pools, solve, marks, close, extra)``.

    ``pools`` are the workspaces whose accounting the report sums;
    ``solve(monitor, mark)`` runs one timed solve, passing ``mark`` as
    the ``on_iteration`` callback where the solver has one — ``marks``
    says whether it does; ``close`` releases the solver (or is ``None``)
    and ``extra`` is the report's mode-specific settings.
    """
    if wl.name != "npb-mg":
        if mode not in ("serial", "threaded"):
            raise ValueError(
                f"problem {wl.name!r} benches serial and threaded "
                f"modes, not {mode!r}")
        ws = Workspace(f"bench-{mode}", problem=wl.name)
        return ([ws], lambda monitor, mark: wl.solve(
            size_class, mode=mode, nthreads=nthreads, workspace=ws,
            monitor=monitor, on_iteration=mark),
            True, None, {"nthreads": nthreads} if mode == "threaded" else {})
    if mode == "serial":
        ws = Workspace("bench-serial", problem="npb-mg")
        return ([ws], lambda monitor, mark: solve(
            sc, nit, ws=ws, monitor=monitor, on_iteration=mark),
            True, None, {})
    if mode == "threaded":
        from repro.runtime.parallel_mg import ParallelMG

        ws = Workspace("bench-threaded", problem="npb-mg")
        solver = ParallelMG(nthreads, workspace=ws)
        pools, close, extra = [ws], solver.close, {"nthreads": nthreads}
    elif mode == "distributed":
        from repro.runtime.spmd import DistributedMG

        solver = DistributedMG(nranks, workspace=True)
        pools, close, extra = solver.workspaces, None, {"nranks": nranks}
    else:
        raise ValueError(f"unknown bench mode {mode!r} (serial, "
                         "threaded, distributed)")

    def solve_with(monitor, mark):
        solver.monitor = monitor
        return solver.solve(sc.name, nit)

    return pools, solve_with, False, close, extra


def run_bench(size_class: str = "S", modes=("serial", "threaded"),
              nit: int | None = None, repeats: int = 3, nthreads: int = 4,
              nranks: int = 2, problem: str = "npb-mg") -> list[PerfReport]:
    """Benchmark the requested modes; returns one report per mode."""
    from repro.pde import get_workload

    wl = get_workload(problem)
    npb = problem == "npb-mg"
    sc = get_class(size_class) if npb else None
    iters = (sc.nit if nit is None else nit) if npb else None
    reports: list[PerfReport] = []
    for mode in modes:
        pools, solve_once, marking, close, extra = _open_mode(
            wl, mode, sc, size_class, iters, nthreads, nranks)

        def allocations() -> int:
            return sum(w.allocations for w in pools)

        best, best_monitor, steady = float("inf"), PerfMonitor(), -1
        for _ in range(repeats):
            monitor = PerfMonitor()
            marks: list[int] = []
            before = allocations()
            t0 = time.perf_counter()
            result = solve_once(
                monitor, lambda it, r: marks.append(allocations()))
            dt = time.perf_counter() - t0
            if marking:
                # Misses after the first V-cycle iteration of this solve.
                steady = allocations() - marks[0] if marks else 0
            else:
                # The pool is warm after the first repeat's first
                # iteration; every later repeat must not miss at all.
                steady = allocations() - before if before else -1
            if dt < best:
                best, best_monitor = dt, monitor
        if close is not None:
            close()
        nit_run = iters if npb else result.iterations
        reports.append(PerfReport(
            size_class=sc.name if npb else size_class, mode=mode,
            nit=nit_run, seconds=best, repeats=repeats,
            per_op_seconds=best_monitor.seconds,
            per_op_calls=best_monitor.calls,
            mop_s=mop_per_second(sc.nx, nit_run, best) if npb else 0.0,
            pool={**{k: sum(getattr(w, k) for w in pools)
                     for k in ("allocations", "hits", "bytes_allocated",
                               "live_buffers")},
                  "steady_state_allocations": steady},
            rnm2=result.rnm2, verified=result.verified, extra=extra,
            problem=wl.spec.describe(),
        ))
    return reports
