"""Smoke tests: every example script must run to completion.

Run as subprocesses with the repository's interpreter, on their default
(laptop-scale) settings, asserting exit code 0 and the expected closing
output.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: int = 240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart_class_t(self):
        out = run_example("quickstart.py", "T")
        assert "final rnm2" in out

    def test_quickstart_class_s_verifies(self):
        out = run_example("quickstart.py", "S")
        assert "VERIFICATION SUCCESSFUL" in out

    def test_sac_mg_demo(self):
        out = run_example("sac_mg_demo.py", "T")
        assert "relative difference" in out
        assert "with-loops" in out

    def test_poisson_solver(self):
        out = run_example("poisson_solver.py", "16", "6")
        assert "overall residual reduction" in out

    def test_poisson_rejects_bad_size(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "poisson_solver.py"), "30"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2

    def test_dimension_invariance(self):
        out = run_example("dimension_invariance.py")
        assert out.count("[OK]") == 3

    def test_parallel_scaling(self):
        out = run_example("parallel_scaling.py")
        assert "bit-identical" in out
        assert "Figures 12 and 13, measured — class T" in out

    def test_compile_to_python(self, tmp_path):
        generated = EXAMPLES / "generated_mg_class_s.py"
        checked_in = generated.read_text()
        out = run_example("compile_to_python.py")
        assert "NPB verification SUCCESSFUL" in out
        # Drift guard: the example rewrites the file; what is checked in
        # must be what the compiler generates now.
        assert generated.read_text() == checked_in, (
            "examples/generated_mg_class_s.py is stale: commit what "
            "`python examples/compile_to_python.py` just wrote")
        assert len(checked_in.splitlines()) < 1600  # donated variants included

    def test_game_of_life(self):
        out = run_example("game_of_life.py", "10", "8")
        assert "glider translation check: OK" in out
        assert "5 -> 5" in out
