"""Plain-text rendering of the experiment results."""

from __future__ import annotations

from repro.machine.calibration import PAPER

from .experiments import IMPL_ORDER

__all__ = [
    "format_fig11",
    "format_fig11_measured",
    "format_fig12",
    "format_fig13",
    "format_ops",
    "format_ablation",
    "format_pass_report",
    "format_memmgmt",
]

_LABEL = {"f77": "Fortran-77", "sac": "SAC", "omp": "C/OpenMP"}
#: The rows of the measured Fig. 11.
_MEASURED_LABEL = {"f77": "Fortran-77 style", "c": "C style",
                   "sac": "mg.sac generated", "sac-lang": "mg.sac interpreted"}


def _rule(width: int = 72) -> str:
    return "-" * width


def format_fig11(data: dict) -> str:
    lines = ["Figure 11 — single processor performance (simulated testbed)",
             _rule()]
    lines.append(f"{'class':<7}" + "".join(f"{_LABEL[n]:>14}" for n in IMPL_ORDER))
    for cls, times in data["seconds"].items():
        lines.append(
            f"{cls:<7}" + "".join(f"{times[n]:>13.1f}s" for n in IMPL_ORDER)
        )
    lines.append("")
    lines.append(f"{'class':<7}{'F77 over SAC':>16}{'SAC over C':>16}   (paper)")
    for cls, g in data["gaps"].items():
        paper = data["paper_gaps"].get(cls, {})
        lines.append(
            f"{cls:<7}{g['f77_over_sac_pct']:>15.1f}%{g['sac_over_c_pct']:>15.1f}%"
            f"   ({paper.get('f77_over_sac_pct', float('nan')):.1f}%,"
            f" {paper.get('sac_over_c_pct', float('nan')):.1f}%)"
        )
    return "\n".join(lines)


def format_fig11_measured(data: dict) -> str:
    lines = [
        f"Figure 11 (measured) — class {data['class']} wall-clock on this "
        "machine (Python substrate)",
        _rule(),
    ]
    for name, secs in data["seconds"].items():
        lines.append(f"{_MEASURED_LABEL.get(name, name):<26}{secs:>10.3f} s")
    paper = ", ".join(f"{100.0 * (r - 1.0):.1f}% at {cls}"
                      for cls, r in PAPER.f77_over_sac.items())
    lines.append(f"Fortran-77 style over mg.sac generated: "
                 f"{data['f77_over_sac_pct']:.1f}%   (paper: {paper})")
    return "\n".join(lines)


def _format_speedups(title: str, speedups: dict) -> list[str]:
    lines = [title, _rule()]
    for cls, by_impl in speedups.items():
        procs = sorted(next(iter(by_impl.values())).keys())
        lines.append(f"class {cls}:")
        lines.append("  " + f"{'#CPUs':<12}" + "".join(f"{p:>7}" for p in procs))
        for name in IMPL_ORDER:
            row = by_impl[name]
            lines.append(
                "  " + f"{_LABEL[name]:<12}"
                + "".join(f"{row[p]:>7.2f}" for p in procs)
            )
    return lines


def format_fig12(data: dict) -> str:
    lines = _format_speedups(
        "Figure 12 — speedups relative to own sequential time (simulated)",
        data["speedups"],
    )
    lines.append("")
    lines.append("paper speedups at 10 CPUs: "
                 + ", ".join(
                     f"{_LABEL[n]} W={v['W']} A={v['A']}"
                     for n, v in data["paper_speedup_10"].items()
                 ))
    return "\n".join(lines)


def format_fig13(data: dict) -> str:
    lines = _format_speedups(
        "Figure 13 — speedups relative to sequential Fortran-77 (simulated)",
        data["speedups"],
    )
    lines.append("")
    for cls, cross in data["crossovers"].items():
        lines.append(
            f"class {cls}: SAC passes auto-parallelized F77 at "
            f"{cross} CPUs (paper: 4)"
        )
    return "\n".join(lines)


def format_ops(data: dict) -> str:
    lines = ["§5 stencil arithmetic (per grid point, incl. base combine)",
             _rule()]
    lines.append(f"{'stencil':<9}{'naive':>14}{'grouped':>14}{'buffered':>14}"
                 f"{'sac':>18}")
    for name, forms in data["rows"].items():
        cells = []
        for form in ("naive", "grouped", "buffered"):
            oc = forms[form]
            cells.append(f"{oc['muls']:.0f}mul {oc['adds']:.0f}add")
        sac = forms["sac"]
        cells.append("-" if sac is None else
                     f"{sac['muls']:.2f}mul {sac['adds']:.2f}add")
        lines.append(f"{name:<9}" + "".join(f"{c:>14}" for c in cells[:3])
                     + f"{cells[3]:>18}")
    claims = data["paper_claims"]
    lines.append("")
    lines.append(
        f"paper: naive {claims['naive']['muls']} mul / "
        f"{claims['naive']['adds']} add; grouped -> "
        f"{claims['grouped_muls']} mul; buffered adds in "
        f"{claims['buffered_adds_range']}"
    )
    lines.append("sac: the generated Resid/Smooth/Fine2Coarse/Coarse2Fine "
                 "per result point at class S, flat-range ghosts included, "
                 "base combine excluded")
    return "\n".join(lines)


def format_ablation(data: dict) -> str:
    lines = [f"SAC optimization ablation — class {data['class']} wall-clock",
             _rule()]
    base = data["seconds"].get("full")
    for label, secs in data["seconds"].items():
        rel = f" ({secs / base:5.2f}x full)" if base else ""
        lines.append(f"{label:<16}{secs:>10.3f} s{rel}")
    sca = data["scalar"]
    lines.append(
        f"scalar evaluator (class {sca['class']}, {sca['nit']} iteration): "
        f"{sca['scalar_seconds']:.2f} s vs {sca['vectorized_seconds']:.3f} s "
        f"vectorized ({sca['scalar_seconds'] / sca['vectorized_seconds']:.0f}x)")
    return "\n".join(lines)


def format_pass_report(data: dict) -> str:
    lines = [
        f"compiler driver pass report — cold build of {data['source']}",
        _rule(),
        "stages:",
    ]
    for row in data["stages"]:
        lines.append(f"  {row['stage']:<10} {row['status']:<8} "
                     f"{row['seconds'] * 1e3:>9.2f} ms  {row['detail']}")
    lines.append("")
    lines.append("passes (aggregated over executions):")
    lines.extend("  " + ln for ln in data["table"].splitlines())
    lines.append("")
    lines.append("executions (in schedule order):")
    for n, row in enumerate(data["executions"], 1):
        lines.append(f"  {n:>2} {row['pass']:<12} "
                     f"{row['seconds'] * 1e3:>9.2f} ms  "
                     f"{row['rewrites']} rewrites")
    return "\n".join(lines)


def format_memmgmt(data: dict) -> str:
    lines = [
        "SAC memory-management overhead (constant "
        f"{data['per_op_overhead_us']:.0f} µs per operation)",
        _rule(),
    ]
    for cls, row in data["classes"].items():
        lines.append(
            f"class {cls}: total {row['total_s']:8.2f} s, overhead "
            f"{row['overhead_s']:6.2f} s ({100 * row['overhead_share']:.2f} %)"
        )
        levels = sorted(row["by_level"])
        shares = [
            f"L{lv}:{row['by_level'][lv]['ops']}ops" for lv in levels
        ]
        lines.append("   ops by level: " + " ".join(shares))
    lines.append("")
    lines.append("the overhead is invariant against grid size, so the small "
                 "grids at the bottom of the V-cycle dominate it (paper §5)")
    return "\n".join(lines)
