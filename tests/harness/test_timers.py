"""Tests for the NPB-style section timers."""

from collections import Counter

from repro.baselines import FortranMG
from repro.core import get_class, synthesize_mg_trace
from repro.core.mg import numpy_kernels, run
from repro.core.timers import SectionTimers
from repro.perf import Workspace


def _solve_timed(size_class):
    """Any kernel table under ``core.mg.run`` with a monitor."""
    timers = SectionTimers()
    return run(FortranMG.kernels, size_class, monitor=timers), timers


class TestSectionTimers:
    def test_accumulation(self):
        t = SectionTimers()
        t.add("resid", 0.5)
        t.add("resid", 0.25)
        t.add("psinv", 0.25)
        assert t.seconds["resid"] == 0.75
        assert t.calls["resid"] == 2
        assert t.total == 1.0
        assert t.shares()["resid"] == 0.75

    def test_empty_shares(self):
        assert SectionTimers().shares() == {}

    def test_report_renders(self):
        t = SectionTimers()
        t.add("interp", 0.1)
        text = t.report()
        assert "interp" in text and "total" in text


class TestTimedSolve:
    def test_result_matches_untimed(self):
        timed, timers = _solve_timed("T")
        plain = FortranMG().solve("T")
        assert timed.rnm2 == plain.rnm2

    def test_call_counts_match_trace(self):
        _, timers = _solve_timed("T")
        sc = get_class("T")
        counts = Counter(kind for kind, _ in
                         synthesize_mg_trace(sc.nx, sc.nit))
        for kind in ("resid", "psinv", "rprj3", "interp"):
            assert timers.calls[kind] == counts[kind], kind

    def test_stencils_dominate(self):
        # resid + psinv carry most of the arithmetic (the §5 premise
        # behind the auto-parallelizer's coverage mattering so much).
        # Each section's best of three solves on a warm pool: one cold
        # or preempted solve must not decide the shares.
        kernels = numpy_kernels(Workspace())
        run(kernels, "S", 1)
        best = SectionTimers()
        for _ in range(3):
            timers = SectionTimers()
            run(kernels, "S", monitor=timers)
            for section, dt in timers.seconds.items():
                best.seconds[section] = min(
                    dt, best.seconds.get(section, dt))
        shares = best.shares()
        assert shares["resid"] + shares["psinv"] > 0.5
