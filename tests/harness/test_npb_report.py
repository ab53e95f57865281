"""Tests for the NPB-style closing report."""

import pytest

from repro.harness.npb_report import (
    format_npb_report,
    mop_per_second,
    npb_report,
)


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
