"""Tests for the synthesized NPB MG schedule."""

from collections import Counter

import pytest

from repro.core.mg import synthesize_mg_trace


def _points_by_level(ops):
    """Interior points each level's operations cover."""
    points: Counter = Counter()
    for _, level in ops:
        points[level] += (1 << level) ** 3
    return points


class TestSynthesize:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            synthesize_mg_trace(24, 4)

    def test_structure_counts(self):
        nx, nit = 16, 4
        lt = 4
        counts = Counter(kind for kind, _ in synthesize_mg_trace(nx, nit))
        assert counts["rprj3"] == nit * (lt - 1)
        assert counts["interp"] == nit * (lt - 1)
        assert counts["resid"] == 1 + nit * lt  # initial + (lt-1 up) + top + end-of-iter
        assert counts["psinv"] == nit * lt
        assert counts["norm2u3"] == 1

    def test_work_dominated_by_finest_level(self):
        pts = _points_by_level(synthesize_mg_trace(64, 1))
        top = pts[max(pts)]
        rest = sum(v for k, v in pts.items() if k != max(pts))
        assert top > rest  # geometric decay of V-cycle work

    def test_every_level_touched(self):
        assert set(_points_by_level(synthesize_mg_trace(32, 1))) == \
            {1, 2, 3, 4, 5}
