"""Run the SAC-language MG program through the mini-SAC pipeline.

The right-hand side ``v`` comes from the verified core's ``zran3`` (the
NPB pseudo-random setup is benchmark plumbing, not part of the paper's
program text), after which everything — V-cycle, stencils, periodic
borders, norms — executes as SAC code: through the interpreter
(:func:`solve_sac_mg`, the semantic reference) or as the generated
NumPy module (:func:`solve_generated_mg`, the compiled program).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.classes import SizeClass, get_class
from repro.core.mg import checked_rhs
from repro.core.zran3 import zran3
from repro.sac import CompileOptions, SacProgram, compile_function
from repro.sac.module import load_spmd_certified

__all__ = ["mg_source_path", "load_mg_program", "solve_sac_mg",
           "solve_generated_mg", "SacMGResult"]


def mg_source_path() -> Path:
    """Filesystem path of the packaged ``mg.sac`` source."""
    return Path(__file__).with_name("mg.sac")


def load_mg_program(optimize: bool = True, vectorize: bool = True,
                    pass_overrides: tuple[tuple[str, bool], ...] = (),
                    analyze: bool = True) -> SacProgram:
    """Load (and memoize) the MG program under the given options.

    Builds go through a
    :class:`~repro.sac.driver.session.CompilationSession`: within a
    process one facade is memoized per
    :class:`~repro.sac.CompileOptions`, however the call spells them,
    and across processes the driver's content-addressed program/kernel
    cache (see ``docs/COMPILER.md``) serves warm loads with zero parse
    or optimization work — the second ``solve_sac_mg("S")`` in a fresh
    interpreter skips the whole middle end.

    ``analyze`` (default on) runs the static analyzer as a build gate:
    the program must come out free of error-severity findings — in
    particular, every WITH-loop must be certified race-free for SPMD
    execution — or :class:`~repro.sac.errors.SacAnalysisError` is
    raised instead of building an interpreter.
    """
    return _load(CompileOptions(
        optimize=optimize, vectorize=vectorize,
        pass_overrides=pass_overrides, analyze=analyze))


@lru_cache(maxsize=None)
def _load(options: CompileOptions) -> SacProgram:
    return load_spmd_certified(mg_source_path(), options)


class SacMGResult:
    """Result of a SAC-executed MG run."""

    def __init__(self, size_class: SizeClass, rnm2: float, r: np.ndarray):
        self.size_class = size_class
        self.rnm2 = rnm2
        self.r = r

    @property
    def verified(self) -> bool:
        """NPB acceptance test, the rule of ``MGResult.verified``
        (:meth:`~repro.core.classes.SizeClass.verifies`, ``1e-8``)."""
        return self.size_class.verifies(self.rnm2)


def _prepare(size_class: str | SizeClass, nit: int | None,
             v: np.ndarray | None) -> tuple[SizeClass, int, np.ndarray]:
    """The class, iteration count and right-hand side of one run
    (``v=None``: built here with ``zran3``, which is set-up — see
    :func:`repro.core.mg.checked_rhs`)."""
    sc = get_class(size_class) if isinstance(size_class, str) else size_class
    if sc.smoother != "a":
        raise ValueError(
            "the SAC program carries the S(a) smoother (classes S/W/A)"
        )
    v = zran3(sc.nx) if v is None else checked_rhs(sc, v)
    return sc, sc.nit if nit is None else nit, v


def _result(sc: SizeClass, r: np.ndarray) -> SacMGResult:
    interior = r[tuple(slice(1, -1) for _ in range(r.ndim))]
    return SacMGResult(sc, float(np.sqrt(np.mean(interior * interior))), r)


def solve_sac_mg(size_class: str | SizeClass, nit: int | None = None, *,
                 v: np.ndarray | None = None,
                 optimize: bool = True, vectorize: bool = True,
                 pass_overrides: tuple[tuple[str, bool], ...] = ()
                 ) -> SacMGResult:
    """Run NAS MG entirely as SAC code, through the interpreter, and
    return the residual norm."""
    sc, iters, v = _prepare(size_class, nit, v)
    program = load_mg_program(optimize, vectorize, pass_overrides)
    return _result(sc, program.call("FinalResidual", v, iters))


@lru_cache(maxsize=None)
def _final_residual(nx: int, nit: int):
    """The generated ``FinalResidual`` for an ``nx``³ grid and ``nit``
    iterations (``nit`` is baked into the specialization), through the
    driver's kernel cache."""
    v = np.zeros((nx + 2,) * 3)  # a float array pins its shape only
    return compile_function(load_mg_program(), "FinalResidual", (v, nit))


def solve_generated_mg(size_class: str | SizeClass, nit: int | None = None,
                       *, v: np.ndarray | None = None) -> SacMGResult:
    """Run NAS MG as the generated NumPy module of ``mg.sac``.

    The first call per grid size and iteration count specializes
    ``FinalResidual`` (or loads it from the kernel cache); later calls
    run the module only."""
    sc, iters, v = _prepare(size_class, nit, v)
    return _result(sc, _final_residual(sc.nx, iters)(v, iters))
