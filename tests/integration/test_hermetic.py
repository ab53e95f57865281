"""Nothing a solve does outlives its process: no cache, checkpoint or
temporary file is written, wherever ``HOME``, ``TMPDIR`` and the working
directory point."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
from repro.mg_sac import solve_generated_mg, solve_sac_mg
from repro.runtime.resilience import CheckpointStore
from repro.runtime.supervisor import Rung, SupervisedSolver, SupervisorPolicy

assert solve_sac_mg("S", 1).rnm2 > 0
assert solve_generated_mg("S", 1).rnm2 > 0
store = CheckpointStore()
policy = SupervisorPolicy(ladder=(Rung("distributed", workers=2),))
SupervisedSolver(policy=policy, checkpoint=store).solve("T")
assert store.latest() is not None
print("ok")
"""


def test_a_solve_writes_no_file(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # No bytecode either: a test run must not leave .pyc files in src/.
    env.update(HOME=str(tmp_path), TMPDIR=str(tmp_path), PYTHONPATH=str(SRC),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
    assert sorted(p.name for p in tmp_path.iterdir()) == []
