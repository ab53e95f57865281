#!/usr/bin/env python
"""Compile SAC to standalone NumPy Python (the sac2c analogue).

Specializes the MG program for class-S shapes — one NumPy function per
(SAC function, grid size), and a ``_d`` variant where its callers donate
an argument they are done with, all listed in the generated module's
docstring — prints an excerpt, saves the whole module next to this script (it is
checked in; tests/integration/test_examples.py fails when it drifts),
and verifies the compiled code against NPB.

    python examples/compile_to_python.py
"""

import time
from pathlib import Path

import numpy as np

from repro.core import get_class, zran3
from repro.core.timers import measure
from repro.mg_sac import load_mg_program
from repro.sac.codegen import compile_function


def main() -> int:
    sc = get_class("S")
    prog = load_mg_program(True, True)
    v = zran3(sc.nx)

    t0 = time.perf_counter()
    fn = compile_function(prog, "FinalResidual", (v, sc.nit))
    t_compile = time.perf_counter() - t0
    lines = fn.source.splitlines()
    print(f"specialized FinalResidual for {sc.nx}^3 x {sc.nit} iterations: "
          f"{len(lines)} lines of NumPy in {t_compile:.2f} s\n")

    print("generated code (header, then from the finest V-cycle level on):")
    top = lines.index("def VCycle__34x34x34_d(r):")
    for ln in lines[:10] + ["  ..."] + lines[top:]:
        print("  " + ln)

    out_path = Path(__file__).parent / "generated_mg_class_s.py"
    out_path.write_text(fn.source)
    print(f"\nfull module written to {out_path}")

    m_comp = measure(lambda: fn(v, sc.nit), repeats=3)
    m_interp = measure(lambda: prog.call("FinalResidual", v, sc.nit),
                       repeats=3)
    r = fn(v, sc.nit)
    rnm2 = float(np.sqrt(np.mean(r[1:-1, 1:-1, 1:-1] ** 2)))
    ok = abs(rnm2 - sc.verify_value) / sc.verify_value < 1e-6
    print(f"\ncompiled run : {m_comp.seconds:.3f} s")
    print(f"interpreted  : {m_interp.seconds:.3f} s "
          f"({m_interp.seconds / m_comp.seconds:.2f}x the compiled time)")
    print(f"rnm2 = {rnm2:.12e}  NPB verification "
          f"{'SUCCESSFUL' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
