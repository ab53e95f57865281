#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark, in one file.

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 [--workload W-serial ...] -o BENCH_<n>.json

PARENT and CHANGE are revisions of this repository.  Each is checked out
in its own fresh ``git clone`` in a temporary directory (``TMPDIR``), so
both sides run committed files and neither has bytecode the other lacks.
Pair ``i`` (1..N) runs ``benchmarks/e2e/run.py --seed i`` in both
clones, the parent first in odd pairs and the change first in even ones;
``--workload`` (repeatable) runs each named workload on its own instead
of all seven.  Every run records the minor faults, major faults and CPU
seconds of its process tree from ``getrusage(RUSAGE_CHILDREN)``.

The output has one fixed schema: ``runs``, every run in the order it
ran with its rusage and ``run.py``'s records (less the per-sample
``walls`` and ``speeds``), then ``compare``, ``compare.py``'s rows of
parent against change, each end-to-end row with the number of pairs
the change won.  Exits 1 on a ``worse`` row, a
failed operation or a ``run.py`` that exited non-zero (an oracle failed).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402

SCHEMA = "repro.bench-pairs/1"
SIDES = ("parent", "change")
#: ``run.py``'s per-sample lists, left out: the metrics summarise them.
PER_SAMPLE = ("walls", "speeds")


def clone(rev: str, into: Path) -> str:
    """Check ``rev`` out in a fresh clone at ``into``; its full hash."""
    subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT), str(into)],
                   check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "-q", "--detach", rev],
                   check=True)
    return subprocess.run(["git", "-C", str(into), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, args: list[str], out: Path) -> dict:
    """One ``run.py`` in ``checkout``: its records and what its process
    tree cost, read as the difference of two ``RUSAGE_CHILDREN`` readings."""
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args,
                           "--out", str(out)], cwd=checkout,
                          stdout=subprocess.DEVNULL)
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "minflt": after.ru_minflt - before.ru_minflt,
        "majflt": after.ru_majflt - before.ru_majflt,
        "utime_s": after.ru_utime - before.ru_utime,
        "stime_s": after.ru_stime - before.ru_stime,
        "records": [{k: v for k, v in rec.items() if k not in PER_SAMPLE}
                    for rec in (json.loads(out.read_text())["runs"]
                                if out.exists() else [])],
    }


def table(runs: list[dict], bench: dict) -> list[dict]:
    """``compare.py``'s rows of parent against change; an end-to-end row
    also counts the pairs whose change value beat the parent's."""
    sides = {s: [rec for r in runs if r["side"] == s for rec in r["records"]]
             for s in SIDES}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    paired: dict[tuple[str, str], dict[int, dict[str, float]]] = {}
    for r in runs:
        for rec in r["records"]:
            if rec["trace"] == 0:
                for name, m in rec["metrics"].items():
                    paired.setdefault((name, rec["workload"]), {}).setdefault(
                        r["pair"], {})[r["side"]] = m["value"]
    rows = []
    for name, workload, text, verdict in compare.compare(
            sides["parent"], sides["change"], bench):
        row = {"metric": name, "workload": workload, "verdict": verdict, "text": text}
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            pairs = [p for p in paired.get((name, workload), {}).values()
                     if len(p) == 2]
            row["change_wins"] = sum(sign * p["change"] < sign * p["parent"]
                                     for p in pairs)
            row["pairs"] = len(pairs)
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent revision")
    ap.add_argument("change", help="change revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", default=None,
                    help="run this workload alone (repeatable; default: all seven at once)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("-o", "--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    options = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        work = Path(tmp)
        revs = {side: clone(rev, work / side)
                for side, rev in zip(SIDES, (args.parent, args.change))}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in args.workload or [None]:
                for side in order:
                    chosen = ["--workload", workload] if workload else []
                    run_args = [*chosen, "--seed", str(pair), *options]
                    out = work / f"{side}-{pair}-{workload or 'all'}.json"
                    runs.append({"pair": pair, "side": side, "workload": workload,
                                 "first": side == order[0], "args": run_args,
                                 **run_once(work / side, run_args, out)})
                    last = runs[-1]
                    print(f"pair {pair} {side:<6} {workload or 'all':<14} exit "
                          f"{last['exit']} {last['wall_s']:7.1f} s "
                          f"{last['minflt']} minflt", flush=True)
    rows = table(runs, bench)
    args.out.write_text(json.dumps({
        "schema": SCHEMA, "parent": revs["parent"], "change": revs["change"],
        "pairs": args.pairs, "runs": runs, "compare": rows}, indent=1) + "\n")
    for row in rows:
        wins = f"  {row['change_wins']}/{row['pairs']}" if "pairs" in row else ""
        print(f"{row['metric']:<40} {row['workload']:<14} {row['text']}  "
              f"{row['verdict']}{wins}")
    failed = sum(rec["failed"] for r in runs for rec in r["records"])
    crashed = sum(r["exit"] != 0 for r in runs)
    worse = sum(row["verdict"] == "worse" for row in rows)
    print(f"{len(rows)} rows, {worse} worse, {failed} failed operations, "
          f"{crashed} runs exited non-zero; wrote {args.out}")
    return 1 if worse or failed or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
