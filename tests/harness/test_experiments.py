"""Tests for the experiment drivers and report formatting."""

import pytest

import repro.mg_sac
from repro.core.timers import measure
from repro.harness import experiments, npb_report, report


class TestFig11:
    def test_report_renders(self):
        data = {"class": "W", "seconds": {"f77": 0.4, "sac": 0.9},
                "f77_over_sac_pct": 125.0}
        text = report.format_fig11_measured(data)
        assert "Fortran-77 style over mg.sac generated: 125.0%" in text
        # The paper's gaps are printed as a citation, not reproduced.
        assert "(paper: 29.6% at W, 23.0% at A)" in text


@pytest.fixture(scope="module")
def speedup_t():
    data = experiments.speedup("T", repeats=1)
    return data, report.format_speedup(data)


class TestFig12And13:
    def test_fig12_speedups(self, speedup_t):
        # Every runtime at every P, each P = 1 row 1.00 against itself.
        data, text = speedup_t
        runtimes = ("ParallelMG", "DistributedMG inproc",
                    "DistributedMG socket")
        assert [(r["runtime"], r["procs"]) for r in data["rows"]] == [
            (name, p) for name in runtimes for p in (1, 2)]
        own = {r["runtime"]: r["seconds"] for r in data["rows"]
               if r["procs"] == 1}
        for row in data["rows"]:
            assert row["seconds"] > 0
            assert row["vs_own"] == own[row["runtime"]] / row["seconds"]
            if row["procs"] == 1:
                assert row["vs_own"] == 1.0
                assert f"{row['runtime']:<22}  1" in text
        assert text.count("1.00x") >= 3

    def test_distributed_rows_count_halo_sends(self, speedup_t):
        # One solve sends a plane each way per rank and exchange: at
        # P = 2 on class T (4 iterations of 5 exchanges, plus the first
        # residual's) that is 2 * 2 * 21; a lone rank sends none.
        data, text = speedup_t
        for row in data["rows"]:
            if row["runtime"] == "ParallelMG":
                assert row["sends"] is None
            else:
                assert row["sends"] == {1: 0, 2: 84}[row["procs"]]
                assert f"x{row['sends']:>12}" in text

    def test_fig13_baseline_is_f77(self, speedup_t):
        # Fig. 13's baseline is the serial Fortran-77 style solve.
        data, text = speedup_t
        for row in data["rows"]:
            assert row["vs_serial"] == data["serial_seconds"] / row["seconds"]
        assert f"serial core.mg (warm pool): {data['serial_seconds']:.3f} s" \
            in text

    def test_reports_render(self, speedup_t):
        # The headings, and the fork policy that explains the threaded row.
        data, text = speedup_t
        assert "Figures 12 and 13, measured — class T" in text
        assert data["decisions"], "ParallelMG(2) decided no key"
        assert "ParallelMG(2) fork policy" in text
        for d in data["decisions"]:
            assert d["forked"] in (True, False)
            assert f"{d['op']:<7}{d['n']:>4}^3" in text
        assert f"of {len(data['decisions'])} keys forked" in text

    @pytest.mark.parametrize("runtime", ["ParallelMG", "DistributedMG"])
    def test_a_one_ulp_wrong_rnm2_raises(self, runtime, monkeypatch):
        import dataclasses

        import repro.runtime

        cls = getattr(repro.runtime, runtime)
        solve = cls.solve

        def off_by_an_ulp(self, *args, **kwargs):
            res = solve(self, *args, **kwargs)
            return dataclasses.replace(res, rnm2=res.rnm2 * (1 + 2**-52))

        monkeypatch.setattr(cls, "solve", off_by_an_ulp)
        with pytest.raises(RuntimeError, match="is not the serial"):
            experiments.speedup("T", repeats=1)


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
        # fig11_measured, speedup, sac_ablation and npb_report time the
        # NPB timed section: one zran3 per command, before the first
        # timed call.
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
                lambda: experiments.speedup("T", repeats=1),
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


class TestTiming:
    def test_measure_returns_min(self):
        m = measure(lambda: None, repeats=3, warmup=0)
        assert m.seconds == min(m.all_seconds)
        assert m.repeats == 3

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)


class TestCli:
    def test_main_runs_ops(self, capsys):
        from repro.harness.__main__ import main

        assert main(["ops"]) == 0
        assert "stencil" in capsys.readouterr().out

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
        out = capsys.readouterr().out
        assert out.count("[VERIFIED]") == 3 and "  sac   rnm2" in out
