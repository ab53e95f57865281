"""``scripts/bench_pairs.py`` writes one fixed schema.

``tests/data/bench_pairs_sample.json`` is a recorded file: two pairs of
``--workload S-serial --seconds 0.3``.  Replaying its runs through
``main`` (clones and ``run.py`` stubbed) must rewrite it byte for byte,
so a change to the schema, the run order or the table shows here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = Path(__file__).parent / "data" / "bench_pairs_sample.json"

RUN_KEYS = ["pair", "side", "workload", "first", "args", "exit", "wall_s",
            "minflt", "majflt", "utime_s", "stime_s", "records"]
ROW_KEYS = ["metric", "workload", "verdict", "text", "change_wins", "pairs"]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sample():
    return json.loads(SAMPLE.read_text())


def test_sample_has_the_schema(sample):
    assert list(sample) == ["schema", "parent", "change", "pairs", "runs", "compare"]
    assert sample["schema"] == "repro.bench-pairs/1"
    assert [list(r) for r in sample["runs"]] == [RUN_KEYS] * 4
    # Alternating sides: the parent first in odd pairs, the change in even.
    assert [(r["pair"], r["side"], r["first"]) for r in sample["runs"]] == [
        (1, "parent", True), (1, "change", False),
        (2, "change", True), (2, "parent", False)]
    for run in sample["runs"]:
        assert run["exit"] == 0 and run["minflt"] > 0 and run["stime_s"] >= 0
        assert [rec["workload"] for rec in run["records"]] == ["S-serial"]
        assert not {"walls", "speeds"} & set(run["records"][0])
    assert [list(row) for row in sample["compare"]] == [ROW_KEYS] * 6


def test_table_is_compares_rows_with_pair_wins(bench_pairs, sample):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = bench_pairs.table(sample["runs"], bench)
    assert rows == sample["compare"]
    p50 = next(r for r in rows if r["metric"] == "solve_s_p50")
    value = {(r["pair"], r["side"]): r["records"][0]["metrics"]["solve_s_p50"]["value"]
             for r in sample["runs"]}
    assert p50["change_wins"] == sum(value[p, "change"] < value[p, "parent"]
                                     for p in (1, 2))


def test_main_rewrites_the_sample(bench_pairs, sample, tmp_path, monkeypatch):
    revs = iter([sample["parent"], sample["change"]])
    recorded = {(r["pair"], r["side"]): r for r in sample["runs"]}
    calls = []

    def run_once(checkout, args, out):
        calls.append((checkout.name, args))
        run = recorded[int(args[args.index("--seed") + 1]), checkout.name]
        assert args == run["args"]
        return {k: run[k] for k in RUN_KEYS[5:]}

    monkeypatch.setattr(bench_pairs, "clone", lambda rev, into: next(revs))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    status = bench_pairs.main(["P", "C", "--pairs", "2", "--workload", "S-serial",
                               "--seconds", "0.3", "-o", str(out)])
    assert status == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"]
    assert out.read_text() == SAMPLE.read_text()
