#!/usr/bin/env python
"""Is ``core.mg._BLOCK_BYTES`` verified on this box?  Per operator and
grid: ms per call over the whole range as one block, in blocks of the
length :func:`repro.core.mg.block_planes` picks (marked ``*``) and of
half and double that.  Every row is compared byte for byte with the
one-block result (a mismatch exits 1); there is no timing gate.  The
operators are ``core.mg``'s four and ``repro.pde``'s variable-coefficient
``FaceOperator.residual`` (``face``, up to 128^3).

    PYTHONPATH=src python scripts/block_sweep.py [--large]
"""

from __future__ import annotations

import argparse
import sys
import timeit

import numpy as np

from repro.core import mg
from repro.core.mg import (block_planes, interp_chunk, psinv_chunk,
                           resid_chunk, rprj3_chunk)
from repro.core.stencils import A_COEFFS, S_COEFFS_A
from repro.pde import build_operator, get_workload
from repro.perf import Workspace


def sweep(n: int) -> bool:
    rng = np.random.default_rng(n)
    u, v = (rng.random((n + 2,) * 3) for _ in range(2))
    z = rng.random((n // 2 + 2,) * 3)
    h = n // 2
    ops = {  # name: (planes of the range, call writing ``out``, its start)
        "resid": (n, lambda o, ws: resid_chunk(u, o, A_COEFFS, o, 0, n, ws), v),
        "psinv": (n, lambda o, ws: psinv_chunk(v, o, S_COEFFS_A, 0, n, ws), u),
        "rprj3": (h, lambda o, ws: rprj3_chunk(u, o, 0, h, ws), np.zeros_like(z)),
        "interp": (h + 1, lambda o, ws: interp_chunk(z, o, 0, h + 1, ws), u),
    }
    if n <= 128:
        wl = get_workload("variable-poisson")
        face, f = build_operator(wl.spec, n, wl.coefficient()), v[1:-1, 1:-1, 1:-1]
        ops["face"] = (n, lambda o, ws: face.residual(u, f, o, ws=ws), np.zeros((n,) * 3))
    same = True
    for op, (rows, call, start) in ops.items():
        picks: list[int] = []
        mg.block_planes = lambda b: picks.append(block_planes(b)) or picks[-1]
        call(start.copy(), None)
        pick = min(picks[0], rows)
        want = None
        for planes in dict.fromkeys(
                [rows, max(1, pick // 2), pick, min(rows, 2 * pick)]):
            mg.block_planes = lambda b, planes=planes: planes
            out, ws = start.copy(), Workspace()
            call(out, ws)
            want = out.copy() if want is None else want
            ok = out.tobytes() == want.tobytes()
            same &= ok
            reps = max(3, min(200, 20_000_000 // n ** 3))
            t = min(timeit.repeat(lambda: call(out, ws), number=1, repeat=reps))
            print(f"{op:<6} {n:>3}^3 {planes:>4} planes{' *'[planes == pick]}"
                  f" {t * 1e3:9.3f} ms  {'same bytes' if ok else 'BYTES DIFFER'}")
    return same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--large", action="store_true",
                    help="also 128^3 and 256^3 (about 1 GB, a minute)")
    args = ap.parse_args()
    ok = all([sweep(n) for n in (32, 64) + (128, 256) * args.large])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
