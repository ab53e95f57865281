"""The section accumulator solvers take as ``monitor``, and NPB's
Mop/s formula."""

import pytest

from repro.core.timers import SectionTimers
from repro.harness.npb_report import mop_per_second

pytestmark = pytest.mark.perf


class TestMonitor:
    def test_accumulates_sections(self):
        mon = SectionTimers()
        mon.add("resid", 0.25)
        mon.add("resid", 0.25)
        mon.add("psinv", 0.1)
        assert mon.seconds["resid"] == pytest.approx(0.5)
        assert mon.calls == {"resid": 2, "psinv": 1}
        assert "resid" in mon.report()


class TestMopPerSecond:
    def test_npb_convention(self):
        # 58 flops * nx^3 * nit / s / 1e6
        assert mop_per_second(32, 4, 1.0) == pytest.approx(
            58.0 * 32 ** 3 * 4 / 1.0e6)

    def test_zero_time_is_zero_not_inf(self):
        assert mop_per_second(32, 4, 0.0) == 0.0
