#!/usr/bin/env python
"""Quickstart: run the NAS MG benchmark and verify it against NPB.

    python examples/quickstart.py [CLASS]

CLASS is one of T, S, W (default S).  Class A (256^3) works too but
needs a few minutes and ~1.5 GB.
"""

import sys
import time

from repro.core import get_class, norm2u3, solve, zran3


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "S"
    sc = get_class(name)
    print(f"NAS MG class {sc.name}: {sc.nx}^3 grid, {sc.nit} V-cycle "
          f"iterations, {sc.lt} levels")

    v = zran3(sc.nx)  # the right-hand side is set-up, as in NPB
    norms = []
    t0 = time.perf_counter()
    result = solve(sc, v=v, on_iteration=lambda it, rnm2: norms.append(rnm2))
    dt = time.perf_counter() - t0

    print("\nresidual L2 norm per iteration:")
    print(f"  {'initial':>8}: {norm2u3(v)[0]:.6e}")  # r = v - A 0
    for i, rnm2 in enumerate(norms, 1):
        print(f"  {f'iter {i}':>8}: {rnm2:.6e}")

    print(f"\nfinal rnm2  = {result.rnm2:.12e}")
    if sc.verify_value is not None:
        print(f"official    = {sc.verify_value:.12e}")
        print(f"VERIFICATION {'SUCCESSFUL' if result.verified else 'FAILED'}")
    else:
        print("(class has no official verification value)")
    print(f"solved in {dt:.2f} s")
    return 0 if (result.verified or sc.verify_value is None) else 1


if __name__ == "__main__":
    sys.exit(main())
