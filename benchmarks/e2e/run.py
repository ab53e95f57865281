#!/usr/bin/env python3
"""The repo's benchmark: the NPB timed section on seven workloads.

    python3 benchmarks/e2e/run.py --workload W-serial --seed 0 --seconds 10 --trace 0

runs one workload and prints every metric by name with its unit, then --
as the last line of standard output -- one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``--trace 0``: the end-to-end
metrics; ``--trace 1``: the per-layer metrics).  Without ``--workload``
it runs all seven, blocks interleaved in an order shuffled by ``--seed``;
without ``--trace`` it makes the untraced pass and then the traced one.
Results go to ``.bench_e2e/result.json``, spans to
``.bench_e2e/trace.jsonl``.  See README.md beside this file.

An untraced run takes its samples in three blocks, each a fresh process
(closed loop, one client), so set-up is measured three times.  A traced
run is one block that alternates untraced and traced samples, plus the
per-layer pass (``layers.py``).  This process only orchestrates: it
never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_e2e"
sys.path.insert(0, str(HERE))

from predictions import prediction  # noqa: E402
from workloads import WORKERS, WORKLOADS  # noqa: E402

#: Fresh processes an untraced run spreads its samples over.
BLOCKS = 3
SCHEMA = "repro.e2e/1"


# -- child processes -----------------------------------------------------------

def child_env(cache_dir: Path) -> dict[str, str]:
    """The one place child-process hygiene lives: no inherited ``REPRO_*``
    knob, BLAS/OpenMP pinned to one thread, and a compile cache that is
    empty and inside the checkout (never ``~/.cache/repro-sac``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_SAC_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(script: str, spec: dict) -> dict:
    """Run one child to completion and parse the JSON on its last line."""
    cache_dir = OUT / "tmp" / f"{os.getpid()}-{time.monotonic_ns()}"
    cache_dir.mkdir(parents=True)
    try:
        spec["t_spawn"] = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / script), json.dumps(spec)],
            env=child_env(cache_dir), stdout=subprocess.PIPE, text=True,
            cwd=ROOT, timeout=170)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"{script} failed ({done.returncode}) on {spec}")
    return json.loads(done.stdout.splitlines()[-1])


def run_blocks(names: list[str], seed: int, seconds: float, trace: bool,
               plant: dict[str, float] | None = None) -> dict[str, list[dict]]:
    """Every workload's blocks, round-robin in an order shuffled by
    ``seed``, so drift on a shared box spreads over all workloads."""
    nblocks = 1 if trace else BLOCKS
    rng = random.Random(seed)
    results: dict[str, list[dict]] = {name: [] for name in names}
    for block in range(nblocks):
        for name in rng.sample(names, len(names)):
            done = results[name]
            done.append(run_child("block.py", {
                "workload": name, "block": block, "trace": trace,
                "seconds": seconds / nblocks, "min_samples": 2 if trace else 1,
                "after": done[0]["after"] if done else None,
                "plant": (plant or {}).get(name, 0.0),
            }))
    return results


# -- metrics ---------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least
    ten samples beyond it -- but never below the median, which is all a
    run of fewer than 21 samples can resolve."""
    return max(n - 11, n // 2)


def end_to_end(blocks: list[dict]) -> dict:
    """One untraced run of one workload, reduced to its record.  Times are
    at yardstick speed: each divided by the ``speed`` measured around it."""
    samples = [s for b in blocks for s in b["samples"]]
    walls = sorted(s["wall"] / s["speed"] for s in samples)
    n = len(walls)
    p50 = statistics.median(walls)
    failed = sum(not s["ok"] for s in samples)
    return {
        "correct": failed == 0, "attempted": n, "failed": failed,
        "tail_pct": 100.0 * tail_index(n) / n,
        "raw": {"solve_s_p50": statistics.median(s["wall"] for s in samples),
                "setup_s": statistics.median(b["setup_s"] for b in blocks),
                "speed": statistics.median(s["speed"] for s in samples)},
        "walls": [round(s["wall"], 6) for s in samples],  # raw, in sample order
        "speeds": [round(s["speed"], 4) for s in samples],
        "metrics": {
            "setup_s": metric(statistics.median(
                b["setup_s"] / b["setup_speed"] for b in blocks), "s"),
            "solve_s_p50": metric(p50, "s"),
            "solve_s_tail": metric(walls[tail_index(n)], "s"),
            "mpts_s": metric(blocks[0]["work_points"] / p50 / 1e6, "Mpt/s"),
            "cpu_s_p50": metric(statistics.median(
                s["cpu"] / s["speed"] for s in samples), "s"),
            "peak_rss_mb": metric(max(b["peak_rss_mb"] for b in blocks), "MiB"),
        },
    }


def traced(block: dict, layers: dict) -> dict:
    """One traced run of one workload: the layer pass's metrics plus this
    workload's tracing overhead."""
    samples = block["samples"]
    p50 = {flag: statistics.median(s["wall"] for s in samples if s["traced"] == flag)
           for flag in (False, True)}
    failed = sum(not s["ok"] for s in samples) + layers["failed"]
    metrics = dict(layers["metrics"])
    metrics["trace_overhead_frac"] = metric(p50[True] / p50[False] - 1.0, "frac")
    return {"correct": failed == 0, "failed": failed,
            "attempted": len(samples) + layers["attempted"], "metrics": metrics}


def environment() -> dict:
    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, text=True, timeout=10,
                                  capture_output=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_rev": git("rev-parse", "--short", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
        # Wall-clock numbers of a 2-thread / 2-rank solve mean nothing on one core.
        "unresolved": (["W-threaded", "W-distributed"] if nproc < WORKERS
                       else []),
    }


# -- the run ------------------------------------------------------------------------

def run(names: list[str], seed: int, seconds: float, passes: list[bool],
        plant: dict[str, float] | None = None) -> tuple[list[dict], list[dict]]:
    """``(records, spans)``: one record per workload and pass."""
    records, spans = [], []
    for trace in passes:
        blocks = run_blocks(names, seed, seconds, trace, plant)
        if trace:
            layers = run_child("layers.py", {
                "seed": seed, "micro_seconds": max(0.002, seconds / 200.0)})
            spans += layers["spans"]
        for name in names:
            if trace:
                record = traced(blocks[name][0], layers)
                spans += blocks[name][0]["spans"]
            else:
                record = end_to_end(blocks[name])
            record.update(workload=name, seed=seed, seconds=seconds,
                          trace=int(trace), after=blocks[name][0]["after"],
                          zran3_bound=blocks[name][0]["zran3_bound"])
            records.append(record)
    return records, spans


def show(record: dict) -> None:
    tail = ""
    if not record["trace"]:
        raw = record["raw"]
        tail = (f", tail = p{record['tail_pct']:.0f}; times at yardstick speed "
                f"(here x{raw['speed']:.3f}: raw solve_s_p50 {raw['solve_s_p50']:.6g} s, "
                f"raw setup_s {raw['setup_s']:.6g} s)")
    print(f"== {record['workload']} (trace {record['trace']}, seed "
          f"{record['seed']}): {record['attempted']} samples, "
          f"{record['failed']} failed{tail}")
    for name, m in record["metrics"].items():
        moves = f"  -> {prediction(name)}" if record["trace"] else ""
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6}{moves}")
    if not record["trace"] and WORKLOADS[record["workload"]].zran3:  # the NPB ones
        print(f"  {'(NPB Mop/s = 58 x mpts_s)':<46} "
              f"{58.0 * record['metrics']['mpts_s']['value']:>14.6g} Mop/s")


def selftest_errors(records: list[dict]) -> list[str]:
    """Every name in BENCHMARK.json present with its unit, for every workload."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            got = next((r["metrics"] for r in records
                        if r["workload"] == w["name"] and r["trace"] == trace), None)
            if got is None:
                errors.append(f"no trace-{trace} record for {w['name']}")
                continue
            have = {name: m["unit"] for name, m in got.items()}
            errors += [f"{w['name']}: {key} metric {n!r} [{u}] missing or "
                       f"unit differs (got {have.get(n)!r})"
                       for n, u in want.items() if have.get(n) != u]
            errors += [f"{w['name']}: {n!r} printed but not in BENCHMARK.json"
                       for n in have if n not in want]
    return errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), default=None,
                    help="one workload (default: all seven)")
    ap.add_argument("--seed", type=int, default=0,
                    help="block order and micro-benchmark array contents")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time per workload and pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                    "(default: both passes)")
    ap.add_argument("--out", type=Path, default=OUT / "result.json")
    ap.add_argument("--selftest", action="store_true",
                    help="all workloads and both passes at 0.3 s, then check "
                    "the output against BENCHMARK.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.selftest:
        args.workload, args.trace, args.seconds = None, None, 0.3

    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    records, spans = run(names, args.seed, args.seconds, passes)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"schema": SCHEMA, "meta": environment(), "runs": records}, indent=1))
    if spans:
        with open(OUT / "trace.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    for record in records:
        show(record)
    status = 0 if all(r["correct"] for r in records) else 1
    if args.selftest:
        errors = selftest_errors(records)
        print("\n".join(errors) if errors else "selftest ok")
        status |= bool(errors)
    last = records[-1]
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
