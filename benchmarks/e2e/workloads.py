"""The seven workloads: what set-up prepares, what one sample runs, and
the oracle that decides whether a sample's result is right.

One sample is one NPB timed section as ``mg.f`` defines it: ``u = 0``,
``r = v - A u``, ``nit`` x (``mg3P``; top ``resid``), final ``norm2u3``.
``zran3`` is outside (see ``zran3_stub``).  Why each workload is here is
recorded in ``BENCHMARK.json`` and in the README.

Imported by the child processes only (it imports ``repro``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Threads / ranks of the two parallel workloads (``nproc`` is 2 here).
WORKERS = 2
#: V-cycles of the set-up warm-up solve: enough to fill every pool
#: buffer and run every code path once, at a twentieth of a class-W solve.
WARM_NIT = 2
#: Cycles ``variable-poisson`` takes to its tolerance at class S; a
#: sample that takes another number has changed the solver, not its speed.
POISSON_CYCLES = 16
#: Grid of the sparse-direct oracle (a direct solve at 32^3 takes ~30 s).
ORACLE_NX = 16


@dataclass
class Prepared:
    """What a workload's set-up hands the sample loop."""

    #: The timed section; takes the ``monitor`` (or None), returns the result.
    sample: Callable[[object], object]
    #: Stand-in calls one sample must make (one per ``solve``, one per rank).
    zran3_hits: int
    #: The solver's scratch pools (``perf.workspace.Workspace``), if any.
    pools: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    #: Grid class: "S" (32^3) or "W" (64^3).
    klass: str
    #: Whether set-up computes ``zran3`` of that class for the solver.
    zran3: bool
    #: Modules set-up imports inside its ``import`` span.
    modules: tuple[str, ...]
    #: ``prepare(rec, v)`` -> :class:`Prepared`; opens the ``sac.build``,
    #: ``sac.codegen`` and ``warmup`` spans on ``rec``.
    prepare: Callable
    #: ``oracle(sample, after)`` -> bool, on the per-sample record
    #: ``{"rnm2", "iterations", "converged"}`` and the block's ``after``.
    oracle: Callable[[dict, dict], bool]
    #: Untimed, after the block's last sample: the expensive half of the
    #: oracle.  Computed by a run's first block and handed to the others.
    after: Callable[[], dict] = dict


def _official(klass: str, tol: float) -> Callable[[dict, dict], bool]:
    """NPB acceptance against the ``mg.f`` constant, at ``tol``."""
    def check(sample: dict, after: dict) -> bool:
        from repro.core.classes import get_class

        ref = get_class(klass).verify_value
        return abs(sample["rnm2"] - ref) / ref <= tol
    return check


def _official_and_serial_bits(sample: dict, after: dict) -> bool:
    return (_official("W", 1e-8)(sample, after)
            and float(sample["rnm2"]).hex() == after["serial_rnm2_hex"])


def _serial_reference() -> dict:
    from repro.core.mg import solve

    return {"serial_rnm2_hex": float(solve("W").rnm2).hex()}


# -- prepare functions -------------------------------------------------------

def _serial(klass: str):
    def prepare(rec, v) -> Prepared:
        from repro.core.mg import solve
        from repro.perf.workspace import Workspace

        ws = Workspace("e2e-serial")
        with rec.span("warmup"):
            solve(klass, WARM_NIT, ws=ws)
        return Prepared(lambda mon: solve(klass, ws=ws, monitor=mon), 1, [ws])
    return prepare


def _threaded(rec, v) -> Prepared:
    from repro.perf.workspace import Workspace
    from repro.runtime.parallel_mg import ParallelMG

    solver = ParallelMG(WORKERS, workspace=Workspace("e2e-threaded"))
    with rec.span("warmup"):
        solver.solve("W", WARM_NIT)

    def sample(mon):
        solver.monitor = mon
        return solver.solve("W")
    return Prepared(sample, 1, [solver.workspace])


def _distributed(rec, v) -> Prepared:
    from repro.runtime.spmd import DistributedMG

    solver = DistributedMG(WORKERS, workspace=True, transport="inproc")
    with rec.span("warmup"):
        solver.solve("W", WARM_NIT)

    def sample(mon):
        solver.monitor = mon
        return solver.solve("W")
    return Prepared(sample, WORKERS, list(solver.workspaces))


def _build_mg_program(rec):
    from repro.mg_sac.loader import load_mg_program

    with rec.span("sac.build"):  # cold: the block's cache dir starts empty
        program = load_mg_program()
        program.interp  # the backend stage is lazy
    return program


def _sac_interp(rec, v) -> Prepared:
    from repro.mg_sac.loader import solve_sac_mg

    _build_mg_program(rec)
    with rec.span("warmup"):
        solve_sac_mg("S")
    return Prepared(lambda mon: solve_sac_mg("S"), 1)


def _sac_codegen(rec, v) -> Prepared:
    import numpy as np

    from repro.core.classes import get_class
    from repro.mg_sac.loader import SacMGResult
    from repro.sac import compile_function

    program = _build_mg_program(rec)
    nit = get_class("S").nit
    with rec.span("sac.codegen"):
        fn = compile_function(program, "FinalResidual", (v, nit))

    def sample(mon):
        r = fn(v, nit)
        interior = r[1:-1, 1:-1, 1:-1]
        rnm2 = float(np.sqrt(np.mean(interior * interior)))
        return SacMGResult(get_class("S"), rnm2, r)

    with rec.span("warmup"):  # the generated module's first call is ~10x a later one
        sample(None)
    return Prepared(sample, 0)


def _poisson(rec, v) -> Prepared:
    from repro.pde import solve_problem

    with rec.span("warmup"):
        solve_problem("variable-poisson", "S")
    return Prepared(
        lambda mon: solve_problem("variable-poisson", "S", monitor=mon), 0)


def _poisson_oracle(sample: dict, after: dict) -> bool:
    return (sample["converged"] and sample["iterations"] == POISSON_CYCLES
            and after.get("scipy_oracle_error", 0.0) < 1e-7)


def _poisson_direct_solve() -> dict:
    """The same discretisation against ``scipy.sparse`` at 16^3."""
    try:
        import scipy.sparse.linalg  # noqa: F401
    except ImportError as exc:
        return {"scipy_oracle": f"skipped: {exc}"}
    import numpy as np

    from repro.pde import build_operator, get_workload
    from repro.pde.oracle import oracle_solve

    wl = get_workload("variable-poisson")
    wl.grid_size = lambda size_class: ORACLE_NX
    res = wl.solve("S")
    want = oracle_solve(build_operator(wl.spec, ORACLE_NX, wl.coefficient()),
                        wl.rhs(ORACLE_NX))
    got = res.u[1:-1, 1:-1, 1:-1]
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return {"scipy_oracle_error": err if res.converged else float("inf")}


def work_points(workload: Workload) -> int:
    """Fine-grid points x iterations of one sample (for ``mpts_s``)."""
    from repro.core.classes import get_class

    sc = get_class(workload.klass)
    return sc.nx ** 3 * (sc.nit if workload.zran3 else POISSON_CYCLES)


_CORE = ("numpy", "repro.core.mg", "repro.perf.workspace")
_SAC = ("numpy", "repro.mg_sac.loader", "repro.sac")

WORKLOADS: dict[str, Workload] = {
    "S-serial": Workload("S", True, _CORE, _serial("S"), _official("S", 1e-8)),
    "W-serial": Workload("W", True, _CORE, _serial("W"), _official("W", 1e-8)),
    "W-threaded": Workload("W", True, _CORE + ("repro.runtime.parallel_mg",),
                           _threaded, _official_and_serial_bits,
                           _serial_reference),
    "W-distributed": Workload("W", True, _CORE + ("repro.runtime.spmd",),
                              _distributed, _official_and_serial_bits,
                              _serial_reference),
    "S-sac-interp": Workload("S", True, _SAC, _sac_interp, _official("S", 1e-6)),
    "S-sac-codegen": Workload("S", True, _SAC, _sac_codegen, _official("S", 1e-6)),
    "S-poisson": Workload("S", False, ("numpy", "repro.pde"), _poisson,
                          _poisson_oracle, _poisson_direct_solve),
}
