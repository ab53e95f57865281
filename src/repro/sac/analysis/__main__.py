"""Command-line interface of the SAC static analyzer.

    python -m repro.sac.analysis file.sac [file2.sac ...]
        [--format {text,json,sarif}] [--fail-on {error,warning,never}]
        [--select CODES] [--ignore CODES]
        [--no-lint] [--no-reuse] [--certificates]

``--select``/``--ignore`` take comma-separated code prefixes
(``--select SAC5`` keeps only the memory-effects family, ``--ignore
SAC404`` drops one lint).  Ignore wins over select, and both apply
before the ``--fail-on`` judgement, so a filtered-out warning cannot
fail the run.

Exit status is 0 when no finding reaches the ``--fail-on`` severity
(default: error), 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from ..diagnostics import (
    CODE_CATALOGUE,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from .driver import AnalysisOptions, analyze_file


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.sac.analysis",
        description="Static shape/partition/race/effects analyzer for "
                    "SAC programs (error codes SAC0xx-SAC5xx; see "
                    "docs/ANALYSIS.md).",
    )
    p.add_argument("files", nargs="+", metavar="FILE.sac",
                   help="SAC source files to analyze")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default: text)")
    p.add_argument("--fail-on", choices=("error", "warning", "never"),
                   default="error",
                   help="lowest severity that causes exit status 1 "
                        "(default: error)")
    p.add_argument("--select", metavar="CODES",
                   help="comma-separated code prefixes to keep "
                        "(e.g. SAC5 or SAC201,SAC3); default: all")
    p.add_argument("--ignore", metavar="CODES",
                   help="comma-separated code prefixes to drop "
                        "(e.g. SAC404); wins over --select")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the SAC4xx dataflow lints")
    p.add_argument("--no-reuse", action="store_true",
                   help="skip the SAC5xx effects/alias/reuse "
                        "certification")
    p.add_argument("--all-functions", action="store_true",
                   help="also report findings inside the linked prelude")
    p.add_argument("--certificates", action="store_true",
                   help="print the per-WITH-loop SPMD and reuse "
                        "certificates (text format only)")
    return p


def _parse_prefixes(spec: str | None, flag: str) -> tuple[str, ...]:
    """Validate a comma-separated code-prefix list against the
    catalogue; empty/None means no filtering on that side."""
    if not spec:
        return ()
    prefixes = tuple(s.strip() for s in spec.split(",") if s.strip())
    for prefix in prefixes:
        if not any(code.startswith(prefix) for code in CODE_CATALOGUE):
            known = ", ".join(sorted(CODE_CATALOGUE))
            raise ValueError(
                f"error: {flag} prefix {prefix!r} matches no known "
                f"diagnostic code ({known})")
    return prefixes


def _keep(code: str, select: tuple[str, ...],
          ignore: tuple[str, ...]) -> bool:
    if any(code.startswith(p) for p in ignore):
        return False
    return not select or any(code.startswith(p) for p in select)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    fail_on = {"error": Severity.ERROR, "warning": Severity.WARNING,
               "never": None}[args.fail_on]
    try:
        select = _parse_prefixes(args.select, "--select")
        ignore = _parse_prefixes(args.ignore, "--ignore")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    options = AnalysisOptions(
        report_prelude=args.all_functions,
        lint=not args.no_lint,
        reuse=not args.no_reuse,
        fail_on=fail_on or Severity.ERROR,
    )

    diagnostics = []
    certificates = []
    reuse_certificates = []
    failed = False
    for path in args.files:
        try:
            report = analyze_file(path, options)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        kept = [d for d in report.diagnostics
                if _keep(d.code, select, ignore)]
        diagnostics.extend(kept)
        certificates.extend(report.certificates)
        reuse_certificates.extend(report.reuse_certificates)
        if fail_on is not None and any(
                d.severity >= fail_on for d in kept):
            failed = True

    if args.format == "json":
        print(render_json(diagnostics))
    elif args.format == "sarif":
        print(render_sarif(diagnostics))
    else:
        print(render_text(diagnostics))
        if args.certificates:
            print()
            for cert in certificates:
                print(cert)
            if certificates and reuse_certificates:
                print()
            for rcert in reuse_certificates:
                print(rcert)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
