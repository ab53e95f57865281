"""Which end-to-end metric, on which workload, each per-layer metric
should move -- written down before anything was measured.

First matching pattern wins.  ``none`` means: no end-to-end metric of
this benchmark; the number is a guard or a like-for-like row.  With
nothing contending, a faster layer saves at most its share of the steps
that block the result, so ``*.attributed_frac.*`` caps what kernel work
can buy on its workload.
"""

from fnmatch import fnmatchcase

PREDICTIONS: tuple[tuple[str, str], ...] = (
    ("core.*.L3.us", "solve_s_p50 on S-serial (not W-serial)"),
    ("core.*.L5.us", "solve_s_p50 on S-serial"),
    ("core.*.L6.us", "solve_s_p50 on W-serial, W-threaded, W-distributed"),
    ("core.*.gbs_computed", "as core.*.L6.us; bytes computed from array sizes"),
    ("core.zran3.*", "setup_s on every NPB workload; never solve_s_*"),
    ("core.calls.*", "none; a changed count means a changed V-cycle"),
    ("core.attributed_frac.S", "caps kernel gains in solve_s_p50 on S-serial"),
    ("core.attributed_frac.W", "caps kernel gains in solve_s_p50 on W-serial"),
    ("core.solve_ms.*", "the base of the vs_*_x ratios"),
    ("core.solve_with_zran3_ms.S", "none; what repro.perf.bench times"),
    ("core.zran3_in_solve_ms.S", "none; must stay out of solve_s_p50 (about core.zran3.n32.ms)"),
    ("perf.workspace.get_hit_us", "solve_s_p50 on S-serial"),
    ("perf.workspace.steady_allocs.*", "solve_s_p50 and peak_rss_mb on that workload"),
    ("perf.workspace.pool_mb.*", "peak_rss_mb on the W workloads"),
    ("perf.workspace.pool_gain_x.S", "solve_s_p50 on S-serial"),
    ("executor.*", "solve_s_p50 and cpu_s_p50 on W-threaded; nothing else"),
    ("parallel_mg.*.L3.us", "solve_s_p50 on W-threaded; the loss a level cutoff removes"),
    ("parallel_mg.*", "solve_s_p50 on W-threaded"),
    ("spmd.*", "solve_s_p50 and solve_s_tail on W-distributed"),
    ("transport.inproc.*", "solve_s_p50 on W-distributed"),
    ("transport.socket.*", "none; guards the substrate the workloads do not use"),
    ("resilience.*", "none; features off in the workloads"),
    ("supervisor.*", "none; bounds what the harness adds over S-serial / W-serial"),
    ("sac.driver.*", "setup_s on S-sac-interp and S-sac-codegen"),
    ("sac.optim.pass_ms.*", "setup_s on S-sac-interp and S-sac-codegen"),
    ("sac.optim.rewrites_total", "solve_s_p50 on both SAC workloads"),
    ("sac.analysis.reuse_hints", "up => sac.codegen.frame_copies down => solve_s_p50 on S-sac-codegen"),
    ("sac.analysis.*", "none; a drop means a loop lost its certificate"),
    ("sac.codegen.compile*", "setup_s on S-sac-codegen"),
    ("sac.codegen.*", "solve_s_p50 and peak_rss_mb on S-sac-codegen; not S-sac-interp"),
    ("sac.interp.*", "solve_s_p50 on S-sac-interp; not S-sac-codegen"),
    ("pde.*", "solve_s_p50 on S-poisson"),
    ("baselines.*", "none; like-for-like rows beside core, codegen and interp"),
    ("harness.*", "setup_s on every workload"),
    ("trace_overhead_frac", "none; above 0.05 this workload's per-layer numbers are unreliable"),
)


def prediction(metric: str) -> str:
    return next(text for pattern, text in PREDICTIONS if fnmatchcase(metric, pattern))
