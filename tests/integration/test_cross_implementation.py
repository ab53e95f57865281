"""The full cross-implementation agreement matrix.

Six execution paths of the same benchmark, one table of truth:

1. Fortran-77 style core (NPB 2.3 expression-order-exact),
2. C port style (plane loops),
3. fork-join parallel kernels (3 threads),
4. the SPMD distributed-memory solver (2 ranks),
5. the SAC-language program through the interpreter,
6. the SAC-language program compiled to NumPy by the codegen backend
   (``IMPLEMENTATIONS["sac"]``).

Paths 1–4 must agree bit for bit (the SPMD norm allreduce may reorder
the final sum); 5 and 6 with each other bit for bit and with the rest to
floating-point tolerance; all must pass NPB verification where an
official constant exists.
"""

import pytest

from repro.baselines import CMG, IMPLEMENTATIONS, FortranMG
from repro.core import get_class
from repro.mg_sac import solve_sac_mg
from repro.runtime import ParallelMG


@pytest.fixture(scope="module")
def class_t_results():
    from repro.runtime.spmd import DistributedMG

    sc = get_class("T")
    f77 = FortranMG().solve(sc)
    c = CMG().solve(sc)
    par = ParallelMG(3).solve(sc)
    spmd = DistributedMG(2).solve(sc)
    sac_interp = solve_sac_mg(sc)
    sac_compiled = IMPLEMENTATIONS["sac"].solve(sc)

    return {
        "f77": f77.rnm2,
        "c": c.rnm2,
        "parallel": par.rnm2,
        "spmd": spmd.rnm2,
        "sac_interp": sac_interp.rnm2,
        "sac_compiled": sac_compiled.rnm2,
    }


class TestAgreementMatrix:
    def test_bit_identical_group(self, class_t_results):
        r = class_t_results
        assert r["f77"] == r["c"] == r["parallel"]
        assert r["spmd"] == pytest.approx(r["f77"], rel=1e-13)

    def test_high_level_group_tolerance(self, class_t_results):
        r = class_t_results
        for name in ("sac_interp", "sac_compiled"):
            assert r[name] == pytest.approx(r["f77"], rel=1e-9), name

    def test_sac_interp_equals_sac_compiled_exactly(self, class_t_results):
        r = class_t_results
        assert r["sac_interp"] == r["sac_compiled"]


class TestVerificationSweep:
    @pytest.mark.parametrize("path", ["f77", "c", "sac", "parallel"])
    def test_class_s_verifies_everywhere(self, path):
        impl = {
            "f77": FortranMG(),
            "c": CMG(),
            "sac": IMPLEMENTATIONS["sac"],
            "parallel": ParallelMG(2),
        }[path]
        assert impl.solve("S").verified

    def test_class_s_verifies_sac_language(self):
        assert solve_sac_mg("S").verified


class TestTraceConsistency:
    def test_simulated_traces_match_executed(self):
        """The synthesized schedule's operator counts equal the calls
        an executed solve books on its monitor."""
        from collections import Counter

        from repro.core import solve, synthesize_mg_trace
        from repro.core.timers import SectionTimers

        for name in ("T", "S"):
            sc = get_class(name)
            timers = SectionTimers()
            solve(sc, monitor=timers)
            synthesized = Counter(kind for kind, _ in
                                  synthesize_mg_trace(sc.nx, sc.nit))
            assert timers.calls == {kind: synthesized[kind] for kind in
                                    ("resid", "psinv", "rprj3", "interp")}
