"""Tests for the CLI's JSON export and the remaining commands."""

import json

import pytest

from repro.harness.__main__ import main


class TestJsonExport:
    def test_fig_results_dumped(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["fig11", "fig13", "--json", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert set(data) == {"fig11", "fig13"}
        assert data["fig13"]["crossovers"]["W"] == 4
        assert "W" in data["fig11"]["seconds"]

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

    def test_future_and_related_render(self, capsys):
        assert main(["future", "related"]) == 0
        out = capsys.readouterr().out
        assert "F77 + MPI" in out
        assert "ZPL" in out

    def test_version_importable(self):
        import repro

        assert repro.__version__
