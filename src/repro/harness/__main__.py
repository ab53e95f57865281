"""Command-line entry point: regenerate the paper's figures.

    python -m repro.harness measure        # Fig. 11, wall-clock
    python -m repro.harness speedup -c W   # Figs. 12 and 13, wall-clock
    python -m repro.harness ops            # §5 arithmetic analysis
    python -m repro.harness ablation       # SAC optimizer ablation
    python -m repro.harness verify -c S    # NPB verification run
    python -m repro.harness supervised     # self-healing supervised solve
    python -m repro.harness npb timers     # mg.f's closing block / per-kernel times
    python -m repro.harness solve --problem heat2d   # any family member
    python -m repro.harness all

``--problem`` selects the solver-family member (see
``docs/WORKLOADS.md``); the default ``npb-mg`` is the benchmark itself,
so existing invocations behave exactly as before.  The measured commands
(``measure``, ``speedup``, ``ablation``, ``npb``, ``timers``) time the
NPB timed section: the right-hand side is built once, before the clock
starts.
The benchmark itself is ``python3 benchmarks/e2e/run.py`` (docs/PERF.md).
"""

from __future__ import annotations

import argparse
import sys

from . import experiments, report

__all__ = ["main"]

#: Every name the command line accepts, ``all`` included.
COMMANDS = ["ablation", "all", "measure", "npb", "ops", "solve", "speedup",
            "supervised", "timers", "verify"]

_MODES = ("serial", "threaded")


def _verdict(res) -> str:
    """``VERIFIED``, ``FAILED``, or ``no official value`` for an NPB
    class without one (class T): nothing to fail against, as ``npb``
    prints ``N/A``."""
    if res.verified:
        return "VERIFIED"
    sc = getattr(res, "size_class", None)
    if sc is not None and sc.verify_value is None:
        return "no official value"
    return "FAILED"


def _run_verify(size_class: str) -> int:
    from repro.baselines import IMPLEMENTATIONS
    from repro.core import get_class

    sc = get_class(size_class)
    print(f"NPB MG class {sc.name}: {sc.nx}^3 grid, {sc.nit} iterations")
    ok = True
    for name, impl in IMPLEMENTATIONS.items():
        try:
            res = impl.solve(sc)
        except ValueError as exc:  # mg.sac carries the S(a) smoother only
            print(f"  {name:<5} [not run: {exc}]")
            continue
        status = _verdict(res)
        ok = ok and status != "FAILED"
        print(f"  {name:<5} rnm2 = {res.rnm2:.12e}  [{status}]")
    if sc.verify_value is not None:
        print(f"  official value: {sc.verify_value:.12e}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-mg",
        description="Regenerate the evaluation of 'Implementing the NAS "
        "Benchmark MG in SAC' (IPPS 2002).",
    )
    parser.add_argument(
        "commands",
        nargs="*",
        default=[],
        metavar="command",
        help="figures/analyses to run: " + ", ".join(COMMANDS),
    )
    parser.add_argument(
        "--pass-report", action="store_true",
        help="print the compiler driver's per-pass timing/rewrite table "
        "for a cold mg.sac build",
    )
    parser.add_argument(
        "-c", "--size-class", default="S",
        help="size class for measure/speedup/ablation/verify "
        "(default: S)",
    )
    parser.add_argument(
        "-r", "--repeats", type=int, default=3,
        help="timing repetitions for measured experiments",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="additionally dump the raw result data as JSON",
    )
    parser.add_argument(
        "--modes", default="serial,threaded",
        help="comma-separated modes of the solve command: serial, "
        "threaded (default: serial,threaded)",
    )
    parser.add_argument(
        "--problem", default="npb-mg",
        help="solver-family member for solve/supervised "
        "(default: npb-mg, the benchmark itself; see docs/WORKLOADS.md)",
    )
    parser.add_argument(
        "--nthreads", type=int, default=4,
        help="worker threads for the solve command's threaded mode "
        "(default: 4)",
    )
    parser.add_argument(
        "--transport", choices=["inproc", "socket"], default="inproc",
        help="communication substrate for the supervised command's "
        "distributed rungs (default: inproc)",
    )
    parser.add_argument(
        "--heal", type=int, metavar="N", default=None,
        help="enable elastic healing for the supervised command: replace "
        "up to N dead ranks in place from checkpoint before demoting",
    )
    args = parser.parse_args(argv)
    from repro.core import CLASSES
    from repro.pde import PROBLEMS

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for what, given, choices in (
            ("problem", [args.problem], PROBLEMS),
            ("size class", [args.size_class.upper()], CLASSES),
            ("mode", modes, _MODES)):
        bad = [g for g in given if g not in choices]
        if bad:
            parser.error(f"unknown {what} {', '.join(map(repr, bad))} "
                         f"(choose from {', '.join(sorted(choices))})")
    for flag, value, least in (("-r/--repeats", args.repeats, 1),
                               ("--nthreads", args.nthreads, 1),
                               ("--heal", args.heal, 0)):
        if value is not None and value < least:
            parser.error(f"{flag} must be an integer >= {least}, "
                         f"got {value}")
    bad = [c for c in args.commands if c not in COMMANDS]
    if bad:
        parser.error(f"invalid command(s) {', '.join(bad)} "
                     f"(choose from {', '.join(COMMANDS)})")
    if not args.commands and not args.pass_report:
        parser.error("nothing to do: give at least one command "
                     "or --pass-report")

    commands = list(args.commands)
    if "all" in commands:
        commands = ["ops", "verify", "supervised", "npb", "timers",
                    "measure", "speedup"]

    status = 0
    first = True
    collected: dict = {}
    for cmd in commands:
        if not first:
            print()
        first = False
        if cmd == "ops":
            collected[cmd] = data = experiments.ops_table()
            print(report.format_ops(data))
        elif cmd == "speedup":
            collected[cmd] = data = experiments.speedup(args.size_class,
                                                        args.repeats)
            print(report.format_speedup(data))
        elif cmd == "measure":
            data = experiments.fig11_measured(args.size_class, args.repeats)
            collected[cmd] = {k: v for k, v in data.items()
                              if k != "measurements"}
            print(report.format_fig11_measured(data))
        elif cmd == "ablation":
            data = experiments.sac_ablation(args.size_class,
                                            repeats=args.repeats)
            collected[cmd] = data
            print(report.format_ablation(data))
        elif cmd == "timers":
            from repro.core import get_class, solve, zran3
            from repro.core.timers import SectionTimers

            sc = get_class(args.size_class)
            timers = SectionTimers()
            solve(sc, v=zran3(sc.nx), monitor=timers)
            print(f"per-kernel timing, class {args.size_class} "
                  "(Fortran-style kernels):")
            print(timers.report())
            collected[cmd] = {"seconds": timers.seconds,
                              "calls": timers.calls}
        elif cmd == "npb":
            from .npb_report import format_npb_report, npb_report

            rep = npb_report(args.size_class, repeats=args.repeats)
            collected[cmd] = dict(rep.rows())
            print(format_npb_report(rep))
        elif cmd == "verify":
            status |= _run_verify(args.size_class)
        elif cmd == "solve":
            from repro.pde import get_workload, solve_problem

            # npb-mg returns core's MGResult, which has no ``nx``.
            nx = get_workload(args.problem).grid_size(args.size_class)
            collected[cmd] = {}
            for mode in modes:
                res = solve_problem(args.problem, args.size_class,
                                    mode=mode, nthreads=args.nthreads)
                ok = bool(res.verified)
                verdict = _verdict(res)
                status |= verdict == "FAILED"
                collected[cmd][mode] = {
                    "problem": args.problem, "nx": nx,
                    "iterations": getattr(res, "iterations", None),
                    "rnm2": res.rnm2, "verified": ok,
                }
                its = getattr(res, "iterations", None)
                its_txt = f"{its} cycles, " if its is not None else ""
                print(f"  {args.problem} [{mode:<8}] {its_txt}"
                      f"rnm2 = {res.rnm2:.6e}  [{verdict}]")
        elif cmd == "supervised":
            from repro.runtime import (
                HealPolicy,
                SupervisedSolver,
                SupervisionFailed,
                SupervisorPolicy,
            )

            policy = SupervisorPolicy(
                transport=args.transport,
                heal=(HealPolicy(max_heals=args.heal)
                      if args.heal is not None else None),
            )
            try:
                res = SupervisedSolver().solve(args.size_class,
                                               policy=policy,
                                               problem=args.problem)
                rep = res.report
            except SupervisionFailed as exc:
                rep = exc.report
                status |= 1
            collected[cmd] = rep.to_dict()
            print(rep.summary())
    if args.pass_report:
        if not first:
            print()
        data = experiments.pass_report()
        collected["pass_report"] = {k: v for k, v in data.items()
                                    if k != "table"}
        print(report.format_pass_report(data))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2, default=str)
        print(f"\nraw data written to {args.json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
