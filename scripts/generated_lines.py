#!/usr/bin/env python
"""Print the size of the NumPy module generated for ``FinalResidual`` at
classes S and W (lines and ``def``s), for the CI "Source size" summary.

    PYTHONPATH=src python scripts/generated_lines.py
"""

from repro.core import get_class, zran3
from repro.mg_sac import load_mg_program
from repro.sac.codegen import compile_function


def main() -> None:
    prog = load_mg_program()
    for name in ("S", "W"):
        sc = get_class(name)
        fn = compile_function(prog, "FinalResidual", (zran3(sc.nx), sc.nit))
        print(f"{len(fn.source.splitlines()):6d} generated FinalResidual, "
              f"class {name} ({fn.source.count(chr(10) + 'def ') - 2} defs)")


if __name__ == "__main__":
    main()
