"""What importing a layer loads: the compiler only where it is used.

The solvers, the pool, the runtimes and the PDE family never need the
SAC compiler, and the comparison implementations load it on their first
SAC solve.  Each check runs in a fresh interpreter, so nothing an
earlier test imported can hide a module-level import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("imports, absent", [
    ("repro.core.mg, repro.perf.workspace, repro.runtime, repro.pde",
     ("repro.sac", "repro.mg_sac", "repro.baselines")),
    ("repro.baselines", ("repro.sac",)),
])
def test_import_loads_no_compiler(imports, absent):
    code = (f"import sys, {imports}\n"
            f"print(*sorted(m for m in sys.modules if m in {absent!r}\n"
            f"              or m.startswith({tuple(p + '.' for p in absent)!r})))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == []
