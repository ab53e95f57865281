"""repro — "Implementing the NAS Benchmark MG in SAC" (IPPS 2002), reproduced.

Subpackages:

* :mod:`repro.core`      — verified NPB 2.3 MG solver (bit-exact port)
* :mod:`repro.sac`       — the mini-SAC language, optimizer and backends
* :mod:`repro.mg_sac`    — the paper's MG program written in SAC
* :mod:`repro.baselines` — the Fortran-77 / C / compiled ``mg.sac`` comparisons
* :mod:`repro.runtime`   — parallel execution substrates (threads,
  processes, SPMD message passing)
* :mod:`repro.harness`   — experiment drivers and CLI

Quick start::

    from repro.core import solve
    solve("S").verified          # True

    from repro.mg_sac import solve_sac_mg
    solve_sac_mg("S").verified   # True, through the SAC pipeline
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
