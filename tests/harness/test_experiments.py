"""Tests for the experiment drivers and report formatting."""

import pytest

import repro.mg_sac
from repro.core.timers import measure
from repro.harness import experiments, npb_report, report


class TestFig11:
    def test_structure(self):
        data = experiments.fig11()
        assert set(data["seconds"]) == {"W", "A"}
        for cls in ("W", "A"):
            assert set(data["seconds"][cls]) == {"f77", "sac", "omp"}

    def test_gaps_match_paper(self):
        data = experiments.fig11()
        for cls in ("W", "A"):
            got = data["gaps"][cls]
            want = data["paper_gaps"][cls]
            assert got["f77_over_sac_pct"] == pytest.approx(
                want["f77_over_sac_pct"], abs=0.2
            )
            assert got["sac_over_c_pct"] == pytest.approx(
                want["sac_over_c_pct"], abs=0.2
            )

    def test_report_renders(self):
        text = report.format_fig11(experiments.fig11())
        assert "Fortran-77" in text and "29.6" in text


class TestFig12And13:
    def test_fig12_speedups(self):
        data = experiments.fig12(procs=(1, 10))
        for cls in ("W", "A"):
            for name in ("f77", "sac", "omp"):
                s = data["speedups"][cls][name]
                assert s[1] == pytest.approx(1.0)
                assert s[10] > 1.0

    def test_fig13_crossover(self):
        data = experiments.fig13()
        assert data["crossovers"]["W"] == 4
        assert data["crossovers"]["A"] == 4

    def test_fig13_baseline_is_f77(self):
        data = experiments.fig13(procs=(1,))
        for cls in ("W", "A"):
            assert data["speedups"][cls]["f77"][1] == pytest.approx(1.0)
            assert data["speedups"][cls]["sac"][1] < 1.0

    def test_reports_render(self):
        assert "Figure 12" in report.format_fig12(experiments.fig12())
        assert "Figure 13" in report.format_fig13(experiments.fig13())


class TestOpsTable:
    def test_all_stencils_covered(self):
        data = experiments.ops_table()
        assert set(data["rows"]) == {"A", "S", "Sb", "P", "Q"}

    def test_report_renders(self):
        text = report.format_ops(experiments.ops_table())
        assert "27" in text and "grouped" in text

    def test_sac_column_reads_the_generated_operators(self):
        rows = experiments.ops_table()["rows"]
        assert rows["Sb"]["sac"] is None  # no operator of mg.sac uses it
        # Resid's three multiplies run over the 36 922-point flat range
        # of a 34^3 grid; its partial sums bring the adds near buffered.
        assert rows["A"]["sac"]["muls"] == pytest.approx(3 * 36922 / 32 ** 3)
        assert rows["A"]["sac"]["adds"] < rows["A"]["buffered"]["adds"] + 1


class TestMeasured:
    def test_fig11_measured_tiny(self):
        data = experiments.fig11_measured("T", repeats=1)
        assert set(data["seconds"]) >= {"f77", "c", "sac", "sac-lang"}
        assert all(s > 0 for s in data["seconds"].values())
        assert "wall-clock" in report.format_fig11_measured(data)

    def test_rhs_built_once_outside_every_timed_callable(
            self, monkeypatch, zran3_calls):
        # fig11_measured, sac_ablation and npb_report time the NPB timed
        # section: one zran3 per command, before the first timed call.
        def spying_measure(fn, repeats=3, warmup=1):
            before = len(zran3_calls)
            m = measure(fn, repeats, warmup)
            assert len(zran3_calls) == before, \
                "zran3 ran inside a timed callable"
            return m

        monkeypatch.setattr(experiments, "measure", spying_measure)
        monkeypatch.setattr(npb_report, "measure", spying_measure)
        # The per-index evaluator takes 8 s at class T: see that the
        # ablation asks for it, run the request vectorized.
        solve_sac_mg, scalar_requests = repro.mg_sac.solve_sac_mg, []

        def vectorized(size_class, nit=None, *, vectorize=True, **kwargs):
            if not vectorize:
                scalar_requests.append((size_class.name, nit))
            return solve_sac_mg(size_class, nit, **kwargs)

        monkeypatch.setattr(repro.mg_sac, "solve_sac_mg", vectorized)
        for command in (
                lambda: experiments.fig11_measured("T", repeats=2),
                lambda: experiments.sac_ablation("T", nit=1, repeats=1),
                lambda: npb_report.npb_report("T", repeats=2)):
            del zran3_calls[:]
            command()
            assert zran3_calls == [16]
        assert scalar_requests == [("T", 1)]

    def test_ablation_report_has_the_scalar_row(self):
        data = {"class": "S", "seconds": {"full": 0.2, "no-opt": 0.4},
                "scalar": {"class": "T", "nit": 1, "scalar_seconds": 8.0,
                           "vectorized_seconds": 0.04}}
        text = report.format_ablation(data)
        assert "2.00x full" in text
        assert "scalar evaluator (class T, 1 iteration)" in text
        assert "200x" in text

    def test_memmgmt_profile(self):
        data = experiments.memmgmt_profile()
        w = data["classes"]["W"]
        a = data["classes"]["A"]
        # The §5 claim: the constant per-op overhead weighs far more on
        # class W than on class A.
        assert w["overhead_share"] > 10 * a["overhead_share"]
        assert "memory-management" in report.format_memmgmt(data)


class TestTiming:
    def test_measure_returns_min(self):
        m = measure(lambda: None, repeats=3, warmup=0)
        assert m.seconds == min(m.all_seconds)
        assert m.repeats == 3

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)


class TestCli:
    def test_main_runs_sim_figures(self, capsys):
        from repro.harness.__main__ import main

        assert main(["fig11", "ops"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out and "stencil" in out

    def test_main_verify_class_t(self, capsys):
        from repro.harness.__main__ import main

        # Class T has no official constant, so nothing can fail against
        # one: `verify` answers as `npb -c T` does ("N/A"), not FAILED
        # with exit 1 as it used to.
        status = main(["verify", "-c", "T"])
        out = capsys.readouterr().out
        assert "rnm2" in out
        assert out.count("no official value") == 3 and "FAILED" not in out
        assert status == 0

    def test_main_verify_class_s(self, capsys):
        from repro.harness.__main__ import main

        assert main(["verify", "-c", "S"]) == 0
        assert "VERIFIED" in capsys.readouterr().out
