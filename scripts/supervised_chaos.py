#!/usr/bin/env python
"""Supervised-solve chaos matrix for CI.

Drives :class:`repro.runtime.SupervisedSolver` through a
``fault-kind x supervision-response`` matrix on class S — every cell
injects a seeded :class:`FaultPlan` and asserts the supervision
mechanism it targets actually fired:

=========  ========  =====================================================
fault      response  expectation (besides a verified, finite solution)
=========  ========  =====================================================
crash      retry     plan-scoped rank crash: >=1 retry-from-checkpoint
crash      degrade   world-scoped rank crash: retry budget exhausts,
                     ladder demotes, serial rung solves
corrupt    retry     plan-scoped NaN halo plane: watchdog aborts the
                     attempt, rollback recorded, later attempt clean
corrupt    degrade   world-scoped NaN halo plane: watchdog verdict on the
                     distributed rung every attempt, serial rung solves
slow-rank  retry     plan-scoped stall past the op timeout: the peers'
                     timeout names the stalled rank and aborts the
                     world, >=1 retry succeeds
slow-rank  degrade   world-scoped stall: distributed rung times out every
                     attempt, ladder lands on serial
=========  ========  =====================================================

The **heal matrix** (``heal-*`` cells, x in-proc/socket transports)
exercises elastic recovery beneath the ladder:

=================  ====================================================
cell               expectation
=================  ====================================================
heal-1crash        one rank killed: healed in place, zero demotions,
                   solved at width 4
heal-2crash        two ranks killed at different iterations: both
                   healed, zero demotions, width 4
heal-rejoin-crash  two ranks killed at the *same* iteration with heal
                   budget 1: the second death lands while the heal is
                   in flight, the world aborts, and the ladder degrades
                   cleanly to serial
heal-stall         one rank stalls 1.5 s at iteration 2 against a 0.4 s
                   op timeout: its peers' barrier timeout names it, it
                   is healed in place, zero demotions, width 4
=================  ====================================================

Each cell's :class:`SolveReport` is written to ``--out`` as JSON (the CI
job uploads the directory as an artifact).  Exits non-zero, with a
diagnostic per failed cell, when any expectation is violated.  Usage:

    PYTHONPATH=src python scripts/supervised_chaos.py --out reports/
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260806"))


def _scenarios():
    from repro.runtime.resilience import Fault, FaultKind, FaultPlan
    from repro.runtime.supervisor import (
        HealPolicy,
        RetryPolicy,
        Rung,
        SupervisorPolicy,
    )

    fast_retry = RetryPolicy(max_attempts=3, backoff_base=0.01,
                             backoff_max=0.05, jitter=0.25, seed=CHAOS_SEED)
    ladder = (Rung("distributed", workers=4), Rung("serial"))

    def policy(**kw):
        return SupervisorPolicy(ladder=ladder, retry=fast_retry, **kw)

    def crash(scope):
        return FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=2,
                                scope=scope)], seed=CHAOS_SEED)

    def corrupt(scope):
        # A NaN-corrupted interp plane feeds the very next resid sweep,
        # so the residual norm the watchdog sees goes non-finite.
        return FaultPlan([Fault(FaultKind.CORRUPT, rank=1, iteration=1,
                                op="interp", magnitude=float("nan"),
                                scope=scope)], seed=CHAOS_SEED)

    def slow(scope):
        # The stalled rank sleeps far past the 0.4s op timeout, so its
        # peers' waits abort the world.
        return FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=2,
                                delay=1.5, scope=scope)], seed=CHAOS_SEED)

    def stall():
        return FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=2,
                                delay=1.5)], seed=CHAOS_SEED)

    def one_crash():
        return FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)],
                         seed=CHAOS_SEED)

    def two_crashes():
        # Distinct ranks, distinct iterations: each death is healed on
        # its own two-phase rejoin (class S runs iterations 0..3).
        return FaultPlan([
            Fault(FaultKind.CRASH, rank=1, iteration=1),
            Fault(FaultKind.CRASH, rank=3, iteration=3),
        ], seed=CHAOS_SEED)

    def rejoin_crash():
        # Same iteration, two ranks, heal budget 1: whichever death the
        # heal authority sees second is unhealable, so the world aborts
        # mid-heal and the ladder takes over.
        return FaultPlan([
            Fault(FaultKind.CRASH, rank=1, iteration=2),
            Fault(FaultKind.CRASH, rank=2, iteration=2),
        ], seed=CHAOS_SEED)

    cells = {
        "crash-retry": (crash("plan"), policy(),
                        ["solved", "verified", "retried", "checkpointed"]),
        "crash-degrade": (crash("world"), policy(),
                          ["solved", "verified", "demoted",
                           "serial_rung"]),
        "corrupt-retry": (corrupt("plan"), policy(),
                          ["solved", "verified", "watchdog", "finite"]),
        "corrupt-degrade": (corrupt("world"), policy(),
                            ["solved", "verified", "watchdog", "finite",
                             "serial_rung"]),
        "slow-retry": (slow("plan"), policy(op_timeout=0.4),
                       ["solved", "verified", "retried"]),
        "slow-degrade": (slow("world"), policy(op_timeout=0.4),
                         ["solved", "verified", "demoted", "serial_rung"]),
    }
    for transport in ("inproc", "socket"):
        cells[f"heal-1crash-{transport}"] = (
            one_crash(),
            policy(heal=HealPolicy(max_heals=2), transport=transport),
            ["solved", "verified", "healed", "no_demotions", "width4"])
        cells[f"heal-2crash-{transport}"] = (
            two_crashes(),
            policy(heal=HealPolicy(max_heals=2), transport=transport),
            ["solved", "verified", "healed_twice", "no_demotions",
             "width4"])
        cells[f"heal-rejoin-crash-{transport}"] = (
            rejoin_crash(),
            policy(heal=HealPolicy(max_heals=1), transport=transport),
            ["solved", "verified", "demoted", "serial_rung"])
        cells[f"heal-stall-{transport}"] = (
            stall(),
            policy(heal=HealPolicy(max_heals=2), transport=transport,
                   op_timeout=0.4),
            ["solved", "verified", "healed", "no_demotions", "width4"])
    return cells


def _check(name: str, res, expectations: list[str]) -> list[str]:
    import numpy as np

    rep = res.report
    problems = []
    checks = {
        "solved": rep.outcome == "solved",
        "verified": bool(rep.verified),
        "finite": bool(np.all(np.isfinite(res.result.u))),
        "retried": rep.retries >= 1,
        "checkpointed": rep.checkpoints_used >= 1,
        "demoted": len(rep.demotions) >= 1,
        "watchdog": len(rep.watchdog_verdicts) >= 1,
        "serial_rung": rep.solved_by == "serial",
        "healed": sum(h.completed for h in rep.heals) >= 1,
        "healed_twice": sum(h.completed for h in rep.heals) >= 2,
        "no_demotions": len(rep.demotions) == 0,
        "width4": rep.solved_by == "distributed x4",
    }
    for expectation in expectations:
        if not checks[expectation]:
            problems.append(f"{name}: expectation {expectation!r} not met")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="supervised-reports",
                        help="directory for the SolveReport JSON artifacts")
    parser.add_argument("--size-class", default="S")
    args = parser.parse_args(argv)

    from repro.runtime.supervisor import SupervisedSolver, SupervisionFailed

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    for name, (plan, policy, expectations) in _scenarios().items():
        solver = SupervisedSolver(policy=policy, fault_plan=plan)
        try:
            res = solver.solve(args.size_class)
            rep = res.report
            problems = _check(name, res, expectations)
        except SupervisionFailed as exc:
            rep = exc.report
            problems = [f"{name}: supervision failed outright: {exc}"]
        (out / f"{name}.json").write_text(rep.to_json() + "\n")
        status = "ok" if not problems else "FAIL"
        print(f"[{status}] {name}: outcome={rep.outcome} "
              f"solved_by={rep.solved_by} retries={rep.retries} "
              f"checkpoints={rep.checkpoints_used} "
              f"watchdog={rep.watchdog_verdicts} "
              f"demotions={len(rep.demotions)} "
              f"heals={sum(h.completed for h in rep.heals)}"
              f"/{len(rep.heals)}")
        failures.extend(problems)

    if failures:
        print()
        for problem in failures:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"\nall {len(_scenarios())} supervised chaos cells passed; "
          f"reports in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
