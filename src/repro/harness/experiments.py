"""Experiment drivers regenerating every figure of the paper's §5.

Each driver returns plain data (dicts/rows); :mod:`repro.harness.report`
formats them and the CLI prints them.  EXPERIMENTS.md records the
outputs next to the paper's numbers.  The measured drivers
(:func:`fig11_measured`, :func:`sac_ablation`) time the NPB timed
section: they build the right-hand side ``v`` once, before the first
timed call, and pass it to every solve.

* :func:`fig11` — single-processor runtimes, classes W and A
  (simulated testbed seconds + the headline percentage gaps),
* :func:`fig11_measured` — the same comparison measured for real on this
  machine's Python implementations (scaled-down class),
* :func:`fig12` — speedups vs each implementation's own sequential time,
* :func:`fig13` — speedups vs the fastest sequential implementation
  (Fortran-77),
* :func:`ops_table` — the §5 stencil arithmetic analysis,
* :func:`sac_ablation` — real effect of the SAC optimization passes,
* :func:`memmgmt_profile` — where SAC's constant per-op (memory
  management) overhead goes, by V-cycle level (§5's scalability
  analysis).
"""

from __future__ import annotations

from repro.core.classes import get_class
from repro.core.stencils import STENCILS, op_counts
from repro.core.timers import Measurement, measure
from repro.core.trace import synthesize_mg_trace
from repro.core.zran3 import zran3
from repro.machine.calibration import PAPER, get_profile
from repro.machine.smp import simulate

__all__ = [
    "IMPL_ORDER",
    "fig11",
    "fig11_measured",
    "fig12",
    "fig13",
    "ops_table",
    "pass_report",
    "sac_ablation",
    "memmgmt_profile",
]

IMPL_ORDER = ("f77", "sac", "omp")


def _trace(cls: str):
    sc = get_class(cls)
    return synthesize_mg_trace(sc.nx, sc.nit)


# ---------------------------------------------------------------------------
# Fig. 11 — sequential performance.
# ---------------------------------------------------------------------------

def fig11(classes: tuple[str, ...] = ("W", "A")) -> dict:
    """Simulated single-CPU seconds plus the paper's headline ratios."""
    times = {
        cls: {
            name: simulate(_trace(cls), get_profile(name), 1).seconds
            for name in IMPL_ORDER
        }
        for cls in classes
    }
    gaps = {
        cls: {
            # "Fortran outperforms SAC by x %" and "SAC outperforms C by y %".
            "f77_over_sac_pct": 100.0 * (t["sac"] / t["f77"] - 1.0),
            "sac_over_c_pct": 100.0 * (t["omp"] / t["sac"] - 1.0),
        }
        for cls, t in times.items()
    }
    paper_gaps = {
        cls: {
            "f77_over_sac_pct": 100.0 * (PAPER.f77_over_sac[cls] - 1.0),
            "sac_over_c_pct": 100.0 * (PAPER.sac_over_c[cls] - 1.0),
        }
        for cls in classes
        if cls in PAPER.f77_over_sac
    }
    return {"seconds": times, "gaps": gaps, "paper_gaps": paper_gaps}


def fig11_measured(size_class: str = "S", repeats: int = 3) -> dict:
    """Real wall-clock comparison of this repository's implementations.

    Runs the Fortran-style, C-style and SAC-style solvers (and the MG
    program executed through the mini-SAC pipeline) on a laptop-scale
    class and reports best-of-N seconds of the timed section.
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
    if sc.smoother == "a":
        rows["sac-lang"] = measure(
            lambda: solve_sac_mg(sc, v=v), repeats=repeats
        )
    return {
        "class": size_class,
        "seconds": {k: m.seconds for k, m in rows.items()},
        "measurements": rows,
    }


# ---------------------------------------------------------------------------
# Figs. 12 and 13 — parallel performance.
# ---------------------------------------------------------------------------

def fig12(classes: tuple[str, ...] = ("W", "A"),
          procs: tuple[int, ...] = PAPER.processors) -> dict:
    """Speedups relative to each implementation's own sequential time."""
    out: dict = {"speedups": {}, "paper_speedup_10": PAPER.speedup_10}
    for cls in classes:
        trace = _trace(cls)
        out["speedups"][cls] = {}
        for name in IMPL_ORDER:
            prof = get_profile(name)
            base = simulate(trace, prof, 1).seconds
            out["speedups"][cls][name] = {
                p: base / simulate(trace, prof, p).seconds for p in procs
            }
    return out


def fig13(classes: tuple[str, ...] = ("W", "A"),
          procs: tuple[int, ...] = PAPER.processors) -> dict:
    """Speedups relative to the sequential Fortran-77 time (the fastest
    sequential solution in the field)."""
    out: dict = {"speedups": {}, "crossovers": {}}
    for cls in classes:
        trace = _trace(cls)
        f77_seq = simulate(trace, get_profile("f77"), 1).seconds
        out["speedups"][cls] = {}
        for name in IMPL_ORDER:
            prof = get_profile(name)
            out["speedups"][cls][name] = {
                p: f77_seq / simulate(trace, prof, p).seconds for p in procs
            }
        sac = out["speedups"][cls]["sac"]
        f77 = out["speedups"][cls]["f77"]
        cross = next((p for p in procs if sac[p] > f77[p]), None)
        out["crossovers"][cls] = cross
    return out


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

    Forces a real pipeline run (memory-only cache, so a warm on-disk
    entry cannot short-circuit it) and returns the per-stage and
    per-pass-execution rows from the
    :class:`~repro.sac.driver.passes.PassManager`.
    """
    from repro.mg_sac.loader import mg_source_path
    from repro.sac import CompileOptions
    from repro.sac.driver import CompilationSession, KernelCache

    session = CompilationSession.from_file(
        mg_source_path(),
        CompileOptions(analyze=True),
        cache=KernelCache(memory_only=True),
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


def memmgmt_profile(classes: tuple[str, ...] = ("W", "A")) -> dict:
    """SAC per-op overhead share by class and V-cycle level (§5).

    The per-op overhead is constant, so its share grows as grids shrink;
    class A's larger top grid dilutes it — the paper's explanation for
    why A scales better than W.
    """
    prof = get_profile("sac")
    overhead = prof.op_overhead_us * 1e-6
    out: dict = {"per_op_overhead_us": prof.op_overhead_us, "classes": {}}
    for cls in classes:
        trace = _trace(cls)
        total = simulate(trace, prof, 1).seconds
        by_level: dict[int, dict[str, float]] = {}
        ov_total = 0.0
        for op in trace:
            lv = by_level.setdefault(op.level, {"ops": 0, "overhead_s": 0.0})
            lv["ops"] += 1
            lv["overhead_s"] += overhead
            ov_total += overhead
        out["classes"][cls] = {
            "total_s": total,
            "overhead_s": ov_total,
            "overhead_share": ov_total / total,
            "by_level": by_level,
        }
    return out
