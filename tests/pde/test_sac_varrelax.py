"""The SAC variable-coefficient relax: twin tests and the analysis gate.

``examples/sac/varrelax.sac`` must (a) agree with the NumPy
:func:`repro.core.stencils.relax_variable` to floating-point tolerance
on rank-3 grids, (b) run unchanged on rank-2 grids (the paper's
rank-polymorphism claim), and (c) come out of the static analyzer
SPMD-certified with *no* memory-effects or reuse findings — a
regression net for spurious SAC4xx/SAC5xx diagnostics on the
coefficient-field access pattern.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.stencils import relax_variable
from repro.sac import CompileOptions
from repro.sac.errors import SacArityError
from repro.sac.module import load_spmd_certified

VARRELAX = (Path(__file__).resolve().parents[2]
            / "examples" / "sac" / "varrelax.sac")


@lru_cache(maxsize=None)
def load_varrelax_program():
    """Behind the same gate as ``mg.sac``: analyzed, SPMD-certified."""
    return load_spmd_certified(VARRELAX, CompileOptions(analyze=True))


def sac_relax_variable(u, cfields):
    return np.asarray(load_varrelax_program().call("VarRelax", u, *cfields))


def _fields(rng, shape):
    u = rng.standard_normal(shape)
    cf = [1.0 + 0.25 * rng.standard_normal(shape) for _ in range(4)]
    return u, cf


class TestTwin:
    def test_rank3_matches_numpy_relax_variable(self):
        rng = np.random.default_rng(10)
        u, cf = _fields(rng, (6, 5, 7))
        got = sac_relax_variable(u, cf)
        want = relax_variable(u, cf)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_rank2_runs_the_same_source(self):
        rng = np.random.default_rng(11)
        u, cf = _fields(rng, (5, 6))
        got = sac_relax_variable(u, cf)
        # manual 9-point Manhattan-class sum on the interior
        want = np.zeros_like(u)
        for i in range(1, u.shape[0] - 1):
            for j in range(1, u.shape[1] - 1):
                acc = 0.0
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        cls = abs(di) + abs(dj)
                        acc += cf[cls][i, j] * u[i + di, j + dj]
                want[i, j] = acc
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_borders_zeroed(self):
        rng = np.random.default_rng(12)
        u, cf = _fields(rng, (4, 4, 4))
        out = sac_relax_variable(u, cf)
        shell = np.ones(u.shape, dtype=bool)
        shell[1:-1, 1:-1, 1:-1] = False
        assert np.all(out[shell] == 0.0)

    def test_wrong_field_count_rejected(self):
        with pytest.raises(SacArityError, match="VarRelax"):
            sac_relax_variable(np.zeros((4, 4, 4)),
                               [np.zeros((4, 4, 4))] * 3)


class TestAnalysisGate:
    def test_program_is_spmd_certified(self):
        report = load_varrelax_program().analysis_report
        assert report is not None
        assert report.spmd_safe
        assert all(c.safe for c in report.certificates)

    def test_no_spurious_memory_effect_findings(self):
        """The per-point coefficient-vector construction must not trip
        the SAC4xx (memory-effects/alias) or SAC5xx (reuse) passes."""
        report = load_varrelax_program().analysis_report
        assert report is not None
        codes = [w.code for w in report.warnings]
        spurious = [c for c in codes
                    if c.startswith("SAC4") or c.startswith("SAC5")]
        assert spurious == [], f"spurious findings: {spurious}"
