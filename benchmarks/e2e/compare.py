#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one.

    python3 benchmarks/e2e/compare.py PARENT CHANGE
    python3 benchmarks/e2e/compare.py RUNS

Each argument is a result JSON written by ``run.py`` or a directory of
them; a set should hold ten runs per workload, each with another seed.
One row per (metric, workload): median and quartiles of each side, the
relative change (positive = worse) and a verdict against the bounds in
``BENCHMARK.json``:

``worse``       the change's median is worse than the parent's by more than the bound
``better``      it is better by more than the parent's own quartile distance
``same``        neither
``unresolved``  a side's quartile distance is wider than the bound, and the
                runs of one side do not all lie beyond all runs of the other

Per-layer metrics have no bound: counts read ``same`` or ``changed``,
everything else ``ungated``.  With one argument the verdict is about the
set itself: ``steady`` (spread under a third of the bound), ``ok``
(under the bound) or ``noisy``.  Exits 1 on any ``worse`` row, any
``noisy`` row, or any failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> list[dict]:
    """The run records of one result file, or of every one in a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [run for f in files for run in json.loads(f.read_text())["runs"]]


def series(runs: list[dict]) -> dict[tuple[int, str, str], list[float]]:
    """``(trace, metric, workload)`` -> one value per run, in run order."""
    out: dict[tuple[int, str, str], list[float]] = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["trace"], name, run["workload"]), []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[float, str]:
    """``(worse_by, verdict)`` for a bounded metric; ``worse_by`` is the
    change of the median as a share of the parent's, positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not (all_worse or all_better):
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < 0 and abs(med_b - med_a) > q3 - q1:
        return worse_by, "better"
    return worse_by, "same"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{len(values):>3} {med:>11.5g} [{q1:>10.5g} {q3:>10.5g}]"


def compare(parent: list[dict], change: list[dict] | None, bench: dict
            ) -> list[tuple[str, str, str, str]]:
    """Rows ``(metric, workload, text, verdict)``, end-to-end first."""
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    a_series = series(parent)
    b_series = series(change) if change is not None else {}
    rows = []
    for key in sorted(a_series):
        trace, name, workload = key
        a = a_series[key]
        b = b_series.get(key)
        if change is not None and b is None:
            continue
        if name in bounded and trace == 0:
            bound = bounded[name]["bound"]
            if b is None:
                s = spread(a)
                text = f"{fmt(a)}  spread {100 * s:6.2f}% of bound {100 * bound:.0f}%"
                v = "steady" if s < bound / 3 else "ok" if s <= bound else "noisy"
            else:
                worse_by, v = verdict(a, b, bounded[name]["better"], bound)
                text = f"{fmt(a)} | {fmt(b)}  {100 * worse_by:+7.2f}%"
        elif b is None:
            text, v = f"{fmt(a)}  spread {100 * spread(a):6.2f}%", "ungated"
        else:
            med_a, med_b = statistics.median(a), statistics.median(b)
            change_pct = 100 * (med_b - med_a) / abs(med_a) if med_a else 0.0
            text = f"{fmt(a)} | {fmt(b)}  {change_pct:+7.2f}%"
            if units.get(name) == "count":
                v = "same" if len(set(a) | set(b)) == 1 else "changed"
            else:
                v = "ungated"
        rows.append((name, workload, text, v))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(arg) for arg in argv]
    rows = compare(sets[0], sets[1] if len(sets) == 2 else None, bench)
    for name, workload, text, v in rows:
        print(f"{name:<40} {workload:<14} {text}  {v}")
    failed = sum(run["failed"] for runs in sets for run in runs)
    bad = [r for r in rows if r[3] in ("worse", "noisy")]
    print(f"{len(rows)} rows, {len(bad)} worse or noisy, {failed} failed operations")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
