"""Calibrated machine profiles for the paper's three implementations.

The paper reports *relative* performance only (runtime ratios in Fig. 11
and speedups in Figs. 12/13); no absolute seconds are given.  The
calibration therefore

1. anchors the Fortran-77 class-A sequential time at an assumed
   :data:`F77_ANCHOR_SECONDS_A` (the order of magnitude of NPB 2.3 MG
   class A on a ~400 MHz UltraSPARC-II; only ratios matter downstream),
2. *derives* the sequential constants — per-point scale and per-op
   overhead per implementation — by solving the 2x2 linear systems that
   make the simulator reproduce the paper's four sequential ratios
   exactly (F77 beats SAC by 29.6 %/23.0 % on W/A; SAC beats C by
   14.2 %/22.5 %), and
3. freezes the parallel constants (fork/join costs, sequential-grid
   threshold, unparallelizable fraction, parallelized op kinds), fitted
   once by grid search against the Fig. 12 speedups at ten processors
   (F77 2.8/4.0, SAC 5.3/7.6, OpenMP 8.0/9.0).

The resulting model also reproduces the paper's qualitative Fig. 13
claims without having been fitted to them: SAC passes auto-parallelized
Fortran at four processors, and stays ahead of OpenMP on class A within
the investigated range while OpenMP overtakes on class W
(tested in ``tests/machine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.trace import synthesize_mg_trace

from .costmodel import KIND_IS_SURFACE, MachineProfile

__all__ = [
    "KIND_WEIGHTS",
    "F77_ANCHOR_SECONDS_A",
    "PaperTargets",
    "PAPER",
    "profiles",
    "get_profile",
]

#: Relative per-point arithmetic weight of each op kind (flops-flavoured;
#: ``comm3`` is per surface point).
KIND_WEIGHTS: dict[str, float] = {
    "resid": 16.0,
    "psinv": 17.0,
    "rprj3": 15.0,
    "interp": 4.0,
    "zero3": 1.0,
    "norm2u3": 3.0,
    "comm3": 4.0,
}

#: Assumed absolute anchor: serial F77 class A seconds on the testbed.
F77_ANCHOR_SECONDS_A = 100.0

#: Cache-capacity threshold for the C port's large-grid penalty.
LARGE_GRID_THRESHOLD = 1 << 20


@dataclass(frozen=True)
class PaperTargets:
    """The §5 numbers the model is calibrated against / validated on."""

    # Fig. 11 — sequential ratios.
    f77_over_sac: dict[str, float]
    sac_over_c: dict[str, float]
    # Fig. 12 — speedups at 10 CPUs relative to own sequential time.
    speedup_10: dict[str, dict[str, float]]
    processors: tuple[int, ...] = (1, 2, 4, 6, 8, 10)


PAPER = PaperTargets(
    f77_over_sac={"W": 1.296, "A": 1.230},
    sac_over_c={"W": 1.142, "A": 1.225},
    speedup_10={
        "f77": {"W": 2.8, "A": 4.0},
        "sac": {"W": 5.3, "A": 7.6},
        "omp": {"W": 8.0, "A": 9.0},
    },
)

#: Op kinds each implementation parallelizes: the Fortran auto-
#: parallelizer only handles the two simple relaxation loop nests;
#: OpenMP (30 hand directives) and SAC (every WITH-loop) cover all.
_F77_PARALLEL = frozenset({"resid", "psinv"})
_ALL_PARALLEL = frozenset(
    {"resid", "psinv", "rprj3", "interp", "zero3", "comm3", "norm2u3"}
)


def _trace_terms(nx: int, nit: int) -> tuple[float, int, float]:
    """(volume work at unit scale [s], op count, large-grid volume [Gpt])."""
    vol = 0.0
    big = 0.0
    n = 0
    for op in synthesize_mg_trace(nx, nit):
        w = KIND_WEIGHTS.get(op.kind, 0.0)
        pts = 6.0 * op.points ** (2.0 / 3.0) if op.kind in KIND_IS_SURFACE \
            else float(op.points)
        vol += pts * w * 1e-9
        if op.kind not in KIND_IS_SURFACE and op.points >= LARGE_GRID_THRESHOLD:
            big += op.points * 1e-9
        n += 1
    return vol, n, big


@lru_cache(maxsize=1)
def _sequential_fit() -> dict[str, tuple[float, float, float]]:
    """Derive (scale, overhead_us, large_grid_penalty_ns) per style."""
    vol_w, n_w, _ = _trace_terms(64, 40)
    vol_a, n_a, big_a = _trace_terms(256, 4)

    ov_f = 5e-6  # static layout: negligible per-op cost
    scale_f = (F77_ANCHOR_SECONDS_A - ov_f * n_a) / vol_a
    t_f_w = scale_f * vol_w + ov_f * n_w

    # SAC: per-point scale + per-op (memory management) overhead solve
    # the two Fig. 11 ratios exactly.
    m = np.array([[vol_w, n_w], [vol_a, n_a]])
    rhs = np.array([
        PAPER.f77_over_sac["W"] * t_f_w,
        PAPER.f77_over_sac["A"] * F77_ANCHOR_SECONDS_A,
    ])
    scale_s, ov_s = np.linalg.solve(m, rhs)
    t_s_w = scale_s * vol_w + ov_s * n_w
    t_s_a = scale_s * vol_a + ov_s * n_a

    # C: almost-static memory (small fixed overhead); its growing deficit
    # on the large class is a cache-capacity effect, modelled as a
    # per-point penalty on grids above the threshold.
    ov_c = 30e-6
    scale_c = (PAPER.sac_over_c["W"] * t_s_w - ov_c * n_w) / vol_w
    pen_c = (
        PAPER.sac_over_c["A"] * t_s_a - (scale_c * vol_a + ov_c * n_a)
    ) / big_a

    return {
        "f77": (scale_f, ov_f * 1e6, 0.0),
        "sac": (float(scale_s), float(ov_s) * 1e6, 0.0),
        "omp": (float(scale_c), ov_c * 1e6, float(pen_c)),
    }


#: Frozen parallel constants (grid-search fit against Fig. 12 at P=10):
#: (parallel kinds, fork_base_us, fork_per_proc_us, min_parallel_points,
#:  unparallelizable_fraction).
_PARALLEL_CONSTANTS = {
    "f77": (_F77_PARALLEL, 3000.0, 100.0, 262144, 0.05),
    "sac": (_ALL_PARALLEL, 50.0, 25.0, 4096, 0.03),
    "omp": (_ALL_PARALLEL, 200.0, 5.0, 512, 0.01),
}

_LABELS = {"f77": "Fortran-77", "sac": "SAC", "omp": "C / OpenMP"}


@lru_cache(maxsize=1)
def profiles() -> dict[str, MachineProfile]:
    """The three calibrated machine profiles, keyed by style name."""
    seq = _sequential_fit()
    out: dict[str, MachineProfile] = {}
    for name, (scale, ov_us, pen) in seq.items():
        kinds, fb, fp, thr, beta = _PARALLEL_CONSTANTS[name]
        out[name] = MachineProfile(
            name=name,
            label=_LABELS[name],
            per_point_ns={k: w * scale for k, w in KIND_WEIGHTS.items()},
            op_overhead_us=ov_us,
            parallel_kinds=kinds,
            fork_base_us=fb,
            fork_per_proc_us=fp,
            min_parallel_points=thr,
            large_grid_penalty_ns=pen,
            large_grid_threshold=LARGE_GRID_THRESHOLD,
            unparallelizable_fraction=beta,
        )
    return out


def get_profile(name: str) -> MachineProfile:
    try:
        return profiles()[name]
    except KeyError:
        raise KeyError(
            f"unknown machine profile {name!r}; known: {sorted(profiles())}"
        ) from None
