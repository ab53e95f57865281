#!/usr/bin/env python
"""Warm-vs-cold compile smoke check for the driver's kernel cache.

Runs ``solve_sac_mg("S")`` twice, each in a *fresh* interpreter
process, against a shared ``REPRO_SAC_CACHE_DIR``:

* the cold run must build mg.sac from scratch (not served from cache),
* the warm run must be served entirely from the on-disk cache — zero
  optimization pass runs — and reproduce the cold residual norm
  bit-for-bit,
* in both, loading the program again with ``vectorize=False`` stores no
  second program, and a kernel compiled under the default options is
  served to it without a trace (``vectorize`` is not part of the key).

With ``--kernel-w`` the two processes instead compile ``FinalResidual``
at class W (64^3, 40 iterations) through ``compile_function`` and run
it: the cold process traces once, the warm one not at all, both get the
same residual bits from a generated module of under 2 000 lines, its
donated variants included, and neither writes into the ``v`` it passes.

Exits non-zero (with a diagnostic) on any violation.  Usage:

    PYTHONPATH=src python scripts/compile_cache_smoke.py [--kernel-w]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

_PHASE_FLAG = "--phase"
_KERNEL_FLAG = "--kernel-w"


def _run_phase() -> None:
    """Child mode: one fresh-process benchmark run; JSON on stdout."""
    import numpy as np

    from repro.mg_sac import load_mg_program, solve_sac_mg
    from repro.sac.codegen import compile_function, trace_event_count

    result = solve_sac_mg("S")
    # The very session the benchmark ran on, not a second build.
    session = load_mg_program().session
    u = np.zeros((6, 6, 6))
    compile_function(load_mg_program(), "Resid", (u,))
    stores, traces = session.cache.stats.stores, trace_event_count()
    compile_function(load_mg_program(vectorize=False), "Resid", (u,))
    json.dump(
        {
            "from_cache": session.from_cache(),
            "pass_runs": session.pass_report.runs(),
            "scalar_stores": session.cache.stats.stores - stores,
            "scalar_traces": trace_event_count() - traces,
            "stages": {name: rec.status
                       for name, rec in session.stages.items()},
            "rnm2": result.rnm2.hex(),
            "verified": result.verified,
        },
        sys.stdout,
    )


def _run_kernel_phase() -> None:
    """Child mode: compile and run class-W FinalResidual; JSON on stdout."""
    import numpy as np

    from repro.core import zran3
    from repro.mg_sac import load_mg_program
    from repro.sac.codegen import compile_function, trace_event_count

    v = zran3(64)
    given = v.tobytes()
    fn = compile_function(load_mg_program(), "FinalResidual", (v, 40))
    interior = fn(v, 40)[1:-1, 1:-1, 1:-1]
    json.dump(
        {
            "traces": trace_event_count(),
            "lines": len(fn.source.splitlines()),
            "donated_defs": fn.source.count(" donated"),
            "v_unmutated": v.tobytes() == given,
            "rnm2": float(np.sqrt(np.mean(interior * interior))).hex(),
        },
        sys.stdout,
    )


def _spawn(label: str, cache_dir: str, *flags: str) -> dict:
    env = dict(os.environ, REPRO_SAC_CACHE_DIR=cache_dir)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), _PHASE_FLAG, label, *flags],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{label} run failed:\n{proc.stdout}\n{proc.stderr}")
    data = json.loads(proc.stdout)
    print(f"{label:>4}: " + " ".join(
        f"{k}={v}" for k, v in data.items() if k != "stages"))
    return data


def _kernel_main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-sac-smoke-") as cache:
        cold = _spawn("cold", cache, _KERNEL_FLAG)
        warm = _spawn("warm", cache, _KERNEL_FLAG)
    failures = []
    if cold["traces"] != 1:
        failures.append(f"cold run traced {cold['traces']} times, expected 1")
    if warm["traces"] != 0:
        failures.append(f"warm run traced {warm['traces']} times; the "
                        "kernel was not served from the cache")
    if warm["rnm2"] != cold["rnm2"]:
        failures.append(f"warm rnm2 {warm['rnm2']} differs from cold "
                        f"{cold['rnm2']} (not bit-identical)")
    if not cold["lines"] == warm["lines"] < 2000:
        failures.append(f"generated module has {cold['lines']} (cold) / "
                        f"{warm['lines']} (warm) lines, expected < 2000")
    for label, data in (("cold", cold), ("warm", warm)):
        if not data["donated_defs"]:
            failures.append(f"{label} module has no donated variant")
        if not data["v_unmutated"]:
            failures.append(f"{label} run wrote into the v it was passed")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("OK: class-W kernel traced once, served warm, bit-identical")
    return 1 if failures else 0


def main() -> int:
    if _PHASE_FLAG in sys.argv:
        _run_kernel_phase() if _KERNEL_FLAG in sys.argv else _run_phase()
        return 0
    if _KERNEL_FLAG in sys.argv:
        return _kernel_main()

    with tempfile.TemporaryDirectory(prefix="repro-sac-smoke-") as cache:
        cold = _spawn("cold", cache)
        warm = _spawn("warm", cache)

    failures = []
    if cold["from_cache"]:
        failures.append("cold run was unexpectedly served from cache "
                        "(cache dir not fresh?)")
    if cold["pass_runs"] == 0:
        failures.append("cold run reported zero optimization passes")
    if not warm["from_cache"]:
        failures.append("warm run was NOT served from the cache")
    if warm["pass_runs"] != 0:
        failures.append(f"warm run re-ran {warm['pass_runs']} optimization "
                        "passes; expected zero work")
    if warm["rnm2"] != cold["rnm2"]:
        failures.append(f"warm rnm2 {warm['rnm2']} differs from cold "
                        f"{cold['rnm2']} (not bit-identical)")
    for label, data in (("cold", cold), ("warm", warm)):
        if not data["verified"]:
            failures.append(f"{label} run failed NPB verification")
        if data["scalar_stores"] or data["scalar_traces"]:
            failures.append(
                f"{label} vectorize=False load stored "
                f"{data['scalar_stores']} artifact(s) and traced "
                f"{data['scalar_traces']} kernel(s); expected to share "
                "the default options' program and kernels")

    if failures:
        print("FAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("OK: warm run served from cache, bit-identical, zero pass runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
