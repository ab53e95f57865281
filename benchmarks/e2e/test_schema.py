"""``BENCHMARK.json`` keeps the contract's limits, and the command prints
exactly what it lists.

Not part of tier-1; run with ``python -m pytest benchmarks/e2e -q``.  The
two ``--selftest`` runs (every workload, both passes, 0.3 s each) take
about a minute each.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from predictions import prediction  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_keeps_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for key in ("workloads", "end_to_end", "per_layer"):
        names = [e["name"] for e in BENCH[key]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) for n in names), names
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_every_layer_metric_names_what_it_should_move():
    for m in BENCH["per_layer"]:
        assert prediction(m["name"])  # StopIteration: none was written down


@pytest.fixture(scope="module")
def selftests() -> list[dict]:
    docs = []
    for i in range(2):
        out = ROOT / ".bench_e2e" / f"selftest-{i}.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--selftest", "--seed", str(i),
             "--out", str(out)], capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        assert "selftest ok" in done.stdout
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        docs.append(json.loads(out.read_text()))
    return docs


def test_every_workload_ran_both_passes_and_passed(selftests):
    # "selftest ok" above is run.py's own check of names and units.
    for doc in selftests:
        seen = {(r["workload"], r["trace"]) for r in doc["runs"]}
        assert seen == {(w["name"], t) for w in BENCH["workloads"] for t in (0, 1)}
        for r in doc["runs"]:
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1


def test_counts_repeat_exactly(selftests):
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert len(counts) >= 15
    first, second = ({(r["workload"], n): r["metrics"][n]["value"]
                      for r in doc["runs"] if r["trace"] == 1 for n in counts}
                     for doc in selftests)
    assert first == second


def test_no_sample_ran_the_real_zran3(selftests):
    # A broken guard fails its sample, so ``failed == 0`` above already says
    # it; this pins that the stand-in really was bound where solvers look.
    for doc in selftests:
        for r in doc["runs"]:
            assert "repro.core.mg.zran3" in r["zran3_bound"]
