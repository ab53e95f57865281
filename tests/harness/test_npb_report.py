"""Tests for the NPB-style closing report."""

import time
from functools import lru_cache
from types import SimpleNamespace

import pytest

from repro.core import timers
from repro.harness.npb_report import (
    format_npb_report,
    mop_per_second,
    npb_report,
)
from repro.mg_sac import loader


class TestReport:
    def test_class_s_report(self):
        rep = npb_report("S", repeats=1)
        assert rep.verified
        assert rep.seconds > 0
        assert rep.mops == mop_per_second(32, 4, rep.seconds)

    def test_format(self):
        rep = npb_report("T", repeats=1)
        text = format_npb_report(rep)
        assert "MG Benchmark Completed" in text
        assert "Mop/s" in text
        assert "16x16x16" in text
        assert "N/A" in text  # class T has no official value

    def test_unknown_implementation(self):
        with pytest.raises(KeyError):
            npb_report("T", implementation="zpl")

    def test_sac_report_verifies(self):
        rep = npb_report("S", "sac")
        assert rep.verified
        assert "SUCCESSFUL" in format_npb_report(rep)

    def test_compile_step_runs_before_the_first_timed_repeat(
            self, monkeypatch):
        # A fresh memo over the compile step, so an earlier test's
        # specialization (or a kernel-cache hit) cannot leave the count
        # at zero throughout.
        compiles, compile_step = [], loader._final_residual.__wrapped__

        @lru_cache(maxsize=None)
        def counted(nx, nit):
            compiles.append((nx, nit))
            return compile_step(nx, nit)

        monkeypatch.setattr(loader, "_final_residual", counted)
        # measure() reads the clock only around timed repeats.
        at_clock = []
        monkeypatch.setattr(timers, "time", SimpleNamespace(
            perf_counter=lambda: at_clock.append(len(compiles))
            or time.perf_counter()))
        npb_report("T", "sac", repeats=2)
        assert compiles == [(16, 4)]
        assert at_clock and set(at_clock) == {len(compiles)}
