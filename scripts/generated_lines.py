#!/usr/bin/env python
"""Print the size of the NumPy module generated for ``FinalResidual`` at
classes S and W (lines and ``def``s) and the array elements one solve
computes and copies, per SAC operator — counts read off the planned
trace, no clock — for the CI "Source size" summary.

    PYTHONPATH=src python scripts/generated_lines.py
"""

from repro.core import get_class, zran3
from repro.mg_sac import load_mg_program
from repro.sac.codegen import (compile_function, element_operations,
                               trace_module)


def main() -> None:
    prog = load_mg_program()
    for name in ("S", "W"):
        sc = get_class(name)
        args = (zran3(sc.nx), sc.nit)
        source = compile_function(prog, "FinalResidual", args).source
        print(f"{len(source.splitlines()):6d} generated FinalResidual, "
              f"class {name} ({source.count(chr(10) + 'def ') - 2} defs)")
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
