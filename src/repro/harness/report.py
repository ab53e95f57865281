"""Plain-text rendering of the experiment results."""

from __future__ import annotations

__all__ = [
    "PAPER",
    "format_fig11_measured",
    "format_speedup",
    "format_ops",
    "format_ablation",
    "format_pass_report",
]

#: The paper's §5 numbers, cited next to what this machine measures:
#: Fig. 11's "Fortran-77 outperforms SAC by x %" per class, and Fig.
#: 12's speed-ups at 10 CPUs against each implementation's own serial
#: time.
PAPER = {
    "f77_over_sac_pct": {"W": 29.6, "A": 23.0},
    "speedup_10": {"SAC": {"W": 5.3, "A": 7.6},
                   "Fortran-77": {"W": 2.8, "A": 4.0},
                   "C/OpenMP": {"W": 8.0, "A": 9.0}},
}

#: The rows of the measured Fig. 11.
_MEASURED_LABEL = {"f77": "Fortran-77 style", "c": "C style",
                   "sac": "mg.sac generated", "sac-lang": "mg.sac interpreted"}


def _rule(width: int = 72) -> str:
    return "-" * width


def format_fig11_measured(data: dict) -> str:
    lines = [
        f"Figure 11 (measured) — class {data['class']} wall-clock on this "
        "machine (Python substrate)",
        _rule(),
    ]
    for name, secs in data["seconds"].items():
        lines.append(f"{_MEASURED_LABEL.get(name, name):<26}{secs:>10.3f} s")
    paper = ", ".join(f"{pct}% at {cls}"
                      for cls, pct in PAPER["f77_over_sac_pct"].items())
    lines.append(f"Fortran-77 style over mg.sac generated: "
                 f"{data['f77_over_sac_pct']:.1f}%   (paper: {paper})")
    return "\n".join(lines)


def format_speedup(data: dict) -> str:
    lines = [
        f"Figures 12 and 13, measured — class {data['class']} on this "
        f"machine, best of {data['repeats']}",
        _rule(),
        f"serial core.mg (warm pool): {data['serial_seconds']:.3f} s, "
        f"rnm2 = {data['rnm2']:.12e}",
        f"{'runtime':<22}{'P':>3}{'seconds':>10}"
        f"{'vs own P=1':>13}{'vs serial':>12}{'halo sends':>12}",
    ]
    for row in data["rows"]:
        sends = "-" if row["sends"] is None else row["sends"]
        lines.append(f"{row['runtime']:<22}{row['procs']:>3}"
                     f"{row['seconds']:>10.3f}{row['vs_own']:>12.2f}x"
                     f"{row['vs_serial']:>11.2f}x{sends:>12}")
    lines.append("vs own P=1 is Fig. 12, vs serial Fig. 13; every row's "
                 "rnm2 is bit-equal to serial; halo sends are per solve")
    lines.append("paper, 10 CPUs against own serial: " + ", ".join(
        f"{name} W={s['W']} A={s['A']}"
        for name, s in PAPER["speedup_10"].items()))
    lines += ["", "ParallelMG(2) fork policy (warm inline / forked visit):"]
    for d in data["decisions"]:
        lines.append(f"  {d['op']:<7}{d['n']:>4}^3  "
                     f"{'forked' if d['forked'] else 'inline':<7}"
                     f"{d['t_inline'] * 1e6:>8.0f} us inline "
                     f"{d['t_forked'] * 1e6:>8.0f} us forked")
    forked = [f"{d['op']} {d['n']}^3" for d in data["decisions"]
              if d["forked"]]
    lines.append(f"{len(forked)} of {len(data['decisions'])} keys forked: "
                 f"{', '.join(forked) or 'none'}")
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
