"""Tests for the CLI's JSON export and the remaining commands."""

import json

import pytest

from repro.harness import report
from repro.harness.__main__ import main


class TestJsonExport:
    def test_fig_results_dumped(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["ops", "speedup", "-c", "T", "-r", "1",
                     "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        data = json.loads(out.read_text())
        assert set(data) == {"ops", "speedup"}
        assert set(data["ops"]["rows"]) == {"A", "S", "Sb", "P", "Q"}
        # The dump is the data the table was printed from.
        assert report.format_speedup(data["speedup"]) in printed

    def test_npb_command_json(self, tmp_path, capsys):
        out = tmp_path / "npb.json"
        assert main(["npb", "-c", "T", "-r", "1", "--json", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["npb"]["Class"] == "T"

    @pytest.mark.parametrize("problem", ["npb-mg", "heat2d"])
    def test_solve_command_reports_nx(self, problem, tmp_path, capsys):
        # npb-mg returns core's MGResult (no ``nx``): the command used
        # to die with AttributeError after solving.
        out = tmp_path / "solve.json"
        assert main(["solve", "-c", "S", "--problem", problem,
                     "--json", str(out)]) == 0
        capsys.readouterr()
        modes = json.loads(out.read_text())["solve"]
        assert set(modes) == {"serial", "threaded"}
        assert all(m["nx"] == 32 and m["verified"] for m in modes.values())

    def test_ten_commands(self):
        from repro.harness.__main__ import COMMANDS

        assert COMMANDS == [
            "ablation", "all", "measure", "npb", "ops", "solve", "speedup",
            "supervised", "timers", "verify"]

    @pytest.mark.parametrize("argv, known", [
        (["timers", "-c", "Z"], "A, B, C, S, T, W"),
        (["solve", "--modes", "serial,bogus"], "serial, threaded"),
        (["solve", "--problem", "navier-stokes"], "npb-mg"),
        (["fig12"], "from ablation, all, measure"),
    ])
    def test_unknown_value_exits_2_naming_the_known_ones(self, argv, known,
                                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert known in capsys.readouterr().err

    @pytest.mark.parametrize("argv, accepted", [
        (["measure", "-r", "0"], "-r/--repeats must be an integer >= 1"),
        (["solve", "--nthreads", "0"], "--nthreads must be an integer >= 1"),
        (["supervised", "--heal", "-1"], "--heal must be an integer >= 0"),
    ])
    def test_out_of_range_count_exits_2_naming_the_range(self, argv, accepted,
                                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert accepted in capsys.readouterr().err

    def test_solve_class_t_has_no_official_value(self, capsys):
        assert main(["solve", "-c", "T", "--modes", "serial"]) == 0
        assert "no official value" in capsys.readouterr().out

    def test_version_importable(self):
        import repro

        assert repro.__version__
