#!/usr/bin/env python
"""The paper's program, executed as SAC.

Loads ``mg.sac`` (the Figs. 4-7 program text) through the mini-SAC
pipeline, shows what the optimizer does to it, runs the benchmark, and
compares against the bit-exact Fortran-77 port.

    python examples/sac_mg_demo.py [CLASS]
"""

import sys
import time

from repro.baselines import FortranMG
from repro.mg_sac import load_mg_program, mg_source_path, solve_sac_mg
from repro.sac.ast_nodes import Call, WithLoop
from repro.sac.ast_visit import walk_exprs


def describe(program, names):
    for f in program.program.functions:
        if f.name in names:
            wls = sum(1 for e in walk_exprs(f.body) if isinstance(e, WithLoop))
            calls = sorted({
                e.name for e in walk_exprs(f.body) if isinstance(e, Call)
            })
            print(f"  {f.name:<14} with-loops={wls:<3} calls={calls}")


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "S"
    print(f"SAC source: {mg_source_path()}")

    names = {"Resid", "Smooth", "Fine2Coarse", "Coarse2Fine"}
    print("\nbefore optimization (per V-cycle operation):")
    describe(load_mg_program(optimize=False), names)
    print("\nafter inlining + WITH-loop folding + unroll + coefficient "
          "grouping:")
    describe(load_mg_program(optimize=True), names)

    print(f"\nrunning class {name} through the SAC pipeline ...")
    t0 = time.perf_counter()
    sac = solve_sac_mg(name)
    t_sac = time.perf_counter() - t0

    t0 = time.perf_counter()
    f77 = FortranMG().solve(name)
    t_f77 = time.perf_counter() - t0

    print(f"  SAC        rnm2 = {sac.rnm2:.12e}   ({t_sac:.2f} s)")
    print(f"  Fortran-77 rnm2 = {f77.rnm2:.12e}   ({t_f77:.2f} s)")
    rel = abs(sac.rnm2 - f77.rnm2) / abs(f77.rnm2)
    print(f"  relative difference: {rel:.2e}")
    if sac.size_class.verify_value is not None:
        print(f"  NPB verification: "
              f"{'SUCCESSFUL' if sac.verified else 'FAILED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
