"""``compare.py`` must flag a planted slowdown and pass two honest sets.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/e2e -q`` (~1 min: it takes real samples).

The slowdown is planted on the benchmark's side: a sleep inside the
timed region of one workload's sample callable, 1.5 x the bound of
``solve_s_p50`` long, so it must read ``worse``; the honest sets differ
only in their seeds, so no row may.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
P50_BOUND = next(m["bound"] for m in BENCH["end_to_end"]
                 if m["name"] == "solve_s_p50")
WORKLOAD = "S-serial"  # 10 ms samples: a one-second run holds ~100 of them
RUNS = 4


def take(seed0: int, plant: float = 0.0) -> list[dict]:
    records = []
    for seed in range(seed0, seed0 + RUNS):
        new, _ = run.run([WORKLOAD], seed, 1.0, [False], {WORKLOAD: plant})
        records += new
    return records


@pytest.fixture(scope="module")
def parent() -> list[dict]:
    return take(0)


def verdicts(rows) -> dict[str, str]:
    return {name: v for name, _workload, _text, v in rows}


def test_honest_pair_has_no_worse_row(parent):
    got = verdicts(compare.compare(parent, take(100), BENCH))
    assert set(got) == {m["name"] for m in BENCH["end_to_end"]}
    assert "worse" not in got.values(), got


def test_planted_slowdown_is_flagged(parent):
    got = verdicts(compare.compare(parent, take(200, 1.5 * P50_BOUND), BENCH))
    assert got["solve_s_p50"] == "worse", got
    assert got["mpts_s"] == "worse", got
    # A sleep costs wall time, not processor time.
    assert got["cpu_s_p50"] != "worse", got


def test_every_sample_passed_its_oracle(parent):
    assert all(r["correct"] and r["failed"] == 0 for r in parent)


class TestVerdict:
    """The rule itself, on made-up numbers."""

    def test_worse_beyond_bound(self):
        assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29],
                               "lower", 0.2)[1] == "worse"

    def test_within_bound_is_same(self):
        assert compare.verdict([1.0, 1.01, 0.99], [1.1, 1.11, 1.09],
                               "lower", 0.2)[1] == "same"

    def test_better_needs_more_than_the_parents_spread(self):
        assert compare.verdict([1.0, 1.01, 0.99], [0.9, 0.91, 0.89],
                               "lower", 0.2)[1] == "better"
        assert compare.verdict([1.0, 1.2, 0.8], [0.95, 1.15, 0.75],
                               "lower", 0.5)[1] == "same"

    def test_wide_spread_is_unresolved_unless_the_sides_separate(self):
        assert compare.verdict([1.0, 1.5, 0.6], [1.1, 1.6, 0.7],
                               "lower", 0.2)[1] == "unresolved"
        # Separated, and further apart than the parent's quartile distance.
        assert compare.verdict([1.0, 1.5, 0.6], [0.05, 0.06, 0.04],
                               "lower", 0.2)[1] == "better"

    def test_higher_is_better_flips_the_sign(self):
        worse_by, v = compare.verdict([10.0, 10.1, 9.9], [7.0, 7.1, 6.9],
                                      "higher", 0.2)
        assert v == "worse" and worse_by > 0.2
