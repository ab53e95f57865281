#!/usr/bin/env python
"""Print the size of the NumPy module generated for ``FinalResidual`` at
classes S, W and A (lines and ``def``s) and, at S and W, the array
elements one solve computes and copies, per SAC operator — counts read
off the planned trace, no clock — for the CI "Source size" summary.

It also prints a 12-hex sha256 prefix (the digest the code generator
puts in the module's ``linecache`` filename) of the generated source at
S, W and A and of ``pprint_program`` of the optimized ``mg.sac``, so a
compiler change that alters generated or optimized code shows up.  Only
the right-hand side's shape reaches the generated code, so a grid of
zeros stands in for ``zran3``'s.

    PYTHONPATH=src python scripts/generated_lines.py
"""

import hashlib

import numpy as np

from repro.core import get_class
from repro.mg_sac import load_mg_program
from repro.sac.codegen import (compile_function, element_operations,
                               trace_module)
from repro.sac.pprint import pprint_program


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main() -> None:
    prog = load_mg_program()
    print(f"{digest(pprint_program(prog.program))} sha256 of the "
          f"optimized mg.sac (pprint_program)")
    for name in ("S", "W", "A"):
        sc = get_class(name)
        args = (np.zeros((sc.nx + 2,) * 3), sc.nit)
        source = compile_function(prog, "FinalResidual", args).source
        print(f"{len(source.splitlines()):6d} generated FinalResidual, "
              f"class {name} ({source.count(chr(10) + 'def ') - 2} defs)")
        print(f"{digest(source)} sha256 of generated FinalResidual, "
              f"class {name}")
        if name == "A":
            continue
        traced = trace_module(prog, "FinalResidual", args)
        for kind, what in (("elementwise", "element operations"),
                           ("copy", "array elements copied")):
            ops = element_operations(*traced, kind)
            print(f"{sum(ops.values()):14,d} {what} per solve, class {name}")
            for operator, n in ops.most_common():
                if n:
                    print(f"{n:14,d}   {operator}")

if __name__ == "__main__":
    main()
