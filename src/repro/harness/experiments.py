"""Experiment drivers regenerating every figure of the paper's §5.

Each driver returns plain data (dicts/rows); :mod:`repro.harness.report`
formats them and the CLI prints them.  EXPERIMENTS.md records the
outputs next to the paper's numbers.  The measured drivers
(:func:`fig11_measured`, :func:`speedup`, :func:`sac_ablation`) time
the NPB timed section: they build the right-hand side ``v`` once,
before the first timed call, and pass it to every solve.

* :func:`fig11_measured` — Fig. 11's single-processor comparison,
  measured on this machine's implementations, the paper's program
  compiled,
* :func:`speedup` — Figs. 12 and 13 measured: the parallel runtimes at
  P = 1 and 2 against their own P = 1 and against the serial solve,
* :func:`ops_table` — the §5 stencil arithmetic analysis,
* :func:`sac_ablation` — real effect of the SAC optimization passes.
"""

from __future__ import annotations

from repro.core.classes import get_class
from repro.core.stencils import STENCILS, op_counts
from repro.core.timers import Measurement, measure
from repro.core.zran3 import zran3

__all__ = [
    "fig11_measured",
    "ops_table",
    "pass_report",
    "sac_ablation",
    "speedup",
]


# ---------------------------------------------------------------------------
# Fig. 11 — sequential performance.
# ---------------------------------------------------------------------------

def fig11_measured(size_class: str = "S", repeats: int = 3) -> dict:
    """Real wall-clock comparison of this repository's implementations.

    Times the Fortran-77 style, the C style and the generated ``mg.sac``
    (``sac``) — and, at classes T and S, ``mg.sac`` through the
    interpreter (``sac-lang``) — and reports best-of-N seconds of the
    timed section.  One untimed warm-up solve each keeps the
    specialization of the generated module out of the clock.
    """
    from repro.baselines import IMPLEMENTATIONS
    from repro.mg_sac import solve_sac_mg

    sc = get_class(size_class)
    v = zran3(sc.nx)
    rows: dict[str, Measurement] = {}
    for name in ("f77", "c", "sac"):
        impl = IMPLEMENTATIONS[name]
        rows[name] = measure(lambda impl=impl: impl.solve(sc, v=v),
                             repeats=repeats)
    if sc.name in ("T", "S"):
        rows["sac-lang"] = measure(
            lambda: solve_sac_mg(sc, v=v), repeats=repeats
        )
    seconds = {k: m.seconds for k, m in rows.items()}
    return {
        "class": size_class,
        "seconds": seconds,
        # "Fortran outperforms SAC by x %", as the paper's Fig. 11 reads.
        "f77_over_sac_pct": 100.0 * (seconds["sac"] / seconds["f77"] - 1.0),
        "measurements": rows,
    }


# ---------------------------------------------------------------------------
# Figs. 12 and 13 — parallel performance, measured.
# ---------------------------------------------------------------------------

#: Team and rank counts of the measured speed-ups (the paper's run to 10).
SPEEDUP_PROCS = (1, 2)


def _runtimes() -> dict:
    """Label -> context manager factory of a pooled solver on ``p``
    threads or ranks."""
    from contextlib import nullcontext

    from repro.runtime import DistributedMG, ParallelMG

    return {
        "ParallelMG": lambda p: ParallelMG(p, workspace=True),
        **{f"DistributedMG {t}": lambda p, t=t: nullcontext(
            DistributedMG(p, workspace=True, transport=t))
           for t in ("inproc", "socket")},
    }


def speedup(size_class: str = "W", repeats: int = 3) -> dict:
    """Figs. 12 and 13 measured: each parallel runtime at every P of
    :data:`SPEEDUP_PROCS` against its own P = 1 (Fig. 12) and against
    the serial ``core.mg`` solve on a warm pool (Fig. 13).

    Every time is best of ``repeats`` after :func:`measure`'s warm-up
    solve, which also settles the fork policy; ``decisions`` is
    ``ParallelMG(2)``'s.  A ``DistributedMG`` row's ``sends`` counts the
    halo planes its last solve sent (``None`` for ``ParallelMG``).  A
    solve whose ``rnm2`` is not the serial one bit for bit raises
    ``RuntimeError``: a wrong answer gets no speed-up.
    """
    from repro.core.mg import solve
    from repro.perf import Workspace

    sc = get_class(size_class)
    v = zran3(sc.nx)
    ws, ref = Workspace("serial"), []
    serial = measure(lambda: ref.append(solve(sc, v=v, ws=ws).rnm2),
                     repeats).seconds
    rnm2 = ref[0]

    def checked(solver, label: str) -> None:
        got = solver.solve(sc, v=v).rnm2
        if got != rnm2:
            raise RuntimeError(f"{label}: rnm2 {got!r} is not the serial "
                               f"solve's {rnm2!r}")

    rows, decisions, own = [], [], {}
    for label, make in _runtimes().items():
        for p in SPEEDUP_PROCS:
            with make(p) as solver:
                secs = measure(lambda: checked(solver, f"{label} x{p}"),
                               repeats).seconds
                if label == "ParallelMG" and p == 2:
                    decisions = [
                        {"op": op, "n": shape[0] - 2, "forked": d.forked,
                         "t_inline": d.t_inline, "t_forked": d.t_forked}
                        for (op, shape), d in solver.decisions.items()]
            own.setdefault(label, secs)
            world = getattr(solver, "last_world", None)
            rows.append({"runtime": label, "procs": p, "seconds": secs,
                         "vs_own": own[label] / secs,
                         "vs_serial": serial / secs,
                         "sends": None if world is None
                         else world.stats.sends})
    decisions.sort(key=lambda d: (-d["n"], d["op"]))
    return {"class": sc.name, "repeats": repeats, "serial_seconds": serial,
            "rnm2": rnm2, "rows": rows, "decisions": decisions}


# ---------------------------------------------------------------------------
# §5 arithmetic analysis.
# ---------------------------------------------------------------------------

#: The generated operator of each stencil, the grid it is traced on at
#: class S, and the interior extent of its result.
_SAC_OPERATORS = {"A": ("Resid", 34, 32), "S": ("Smooth", 34, 32),
                 "P": ("Fine2Coarse", 34, 16), "Q": ("Coarse2Fine", 18, 32)}


def _sac_op_counts() -> dict[str, dict[str, float]]:
    """Multiplies and adds per result point of each generated operator
    of ``mg.sac``, read off its planned class-S trace
    (:func:`~repro.sac.codegen.element_operations`): a flat range's
    ghost positions count, the base combine (``v - Resid(u)``) is the
    caller's."""
    import numpy as np

    from repro.mg_sac.loader import load_mg_program
    from repro.sac.codegen import element_operations, trace_module

    prog = load_mg_program()
    out = {}
    for stencil, (name, n, m) in _SAC_OPERATORS.items():
        traced = trace_module(prog, name, (np.zeros((n, n, n)),))
        out[stencil] = {
            key: element_operations(*traced, ops=ops)[name] / m ** 3
            for key, ops in (("muls", ("*",)), ("adds", ("+", "-")))}
    return out


def ops_table() -> dict:
    """Per-stencil multiply/add counts for the three formulations, and
    for the generated operator of ``mg.sac`` (``sac``; None for a
    stencil no operator uses)."""
    rows = {}
    sac = _sac_op_counts()
    for name, coeffs in STENCILS.items():
        counts = op_counts(coeffs, with_base=True)
        rows[name] = {
            form: {"muls": oc.muls, "adds": oc.adds}
            for form, oc in counts.items()
        }
        rows[name]["sac"] = sac.get(name)
    return {
        "rows": rows,
        "paper_claims": {
            "naive": {"muls": 27, "adds": 26},
            "grouped_muls": 4,
            "buffered_adds_range": (12, 20),
        },
    }


# ---------------------------------------------------------------------------
# Ablations.
# ---------------------------------------------------------------------------

def pass_report() -> dict:
    """Instrument a cold build of ``mg.sac`` through the compiler driver.

    Forces a real pipeline run (a fresh cache, so a program the process
    already built cannot short-circuit it) and returns the per-stage and
    per-pass-execution rows from the
    :class:`~repro.sac.driver.passes.PassManager`.
    """
    from repro.mg_sac.loader import mg_source_path
    from repro.sac import CompileOptions
    from repro.sac.driver import CompilationSession, KernelCache

    session = CompilationSession.from_file(
        mg_source_path(),
        CompileOptions(analyze=True),
        cache=KernelCache(),
    )
    report = session.pass_report
    return {
        "source": str(mg_source_path()),
        "stages": [
            {"stage": rec.name, "status": rec.status,
             "seconds": rec.seconds, "detail": rec.detail}
            for rec in session.stages.values()
        ],
        "executions": [
            {"pass": e.name, "seconds": e.seconds, "rewrites": e.rewrites}
            for e in report.executions
        ],
        "table": report.format_table(),
        "total_seconds": report.total_seconds(),
    }


def sac_ablation(size_class: str = "S", nit: int | None = None,
                 repeats: int = 3) -> dict:
    """Real runtimes of the SAC-language MG with optimizations toggled.

    Configurations: full pipeline; each pass disabled one at a time; all
    passes off; the generated module (``compile_function``, compiled
    before the clock starts); and, on a reduced problem (class T, one
    iteration, one un-warmed run each), the scalar non-vectorized
    evaluator next to the vectorizing one, quantifying what WITH-loop
    compilation is worth.
    """
    from repro.mg_sac import load_mg_program, solve_sac_mg
    from repro.sac import compile_function
    from repro.sac.driver import PASSES

    configs: dict[str, dict] = {"full": {}}
    for name in PASSES:
        configs[f"no-{name}"] = {"pass_overrides": ((name, False),)}
    configs["no-opt"] = {"optimize": False}

    sc, tiny = get_class(size_class), get_class("T")
    v = zran3(sc.nx)
    v_tiny = v if sc.nx == tiny.nx else zran3(tiny.nx)
    out = {"class": size_class, "seconds": {}}
    for label, kwargs in configs.items():
        m = measure(
            lambda kwargs=kwargs: solve_sac_mg(sc, nit, v=v, **kwargs),
            repeats=repeats,
        )
        out["seconds"][label] = m.seconds
    iters = sc.nit if nit is None else nit
    generated = compile_function(load_mg_program(), "FinalResidual",
                                 (v, iters))
    out["seconds"]["generated"] = measure(
        lambda: generated(v, iters), repeats=repeats).seconds
    out["scalar"] = {"class": tiny.name, "nit": 1}
    for key, vectorize in (("vectorized_seconds", True),
                           ("scalar_seconds", False)):
        out["scalar"][key] = measure(
            lambda: solve_sac_mg(tiny, 1, v=v_tiny, vectorize=vectorize),
            repeats=1, warmup=0).seconds
    return out
