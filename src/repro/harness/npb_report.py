"""NPB-style benchmark report (the block ``mg.f`` prints at the end).

Times the timed section as ``mg.f`` does — the right-hand side is
built before the clock starts, and one untimed solve runs first, which
also keeps a compiled implementation's specialization off the clock —
and reports Mop/s by ``mg.f``'s own formula alongside time and
verification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classes import SizeClass, get_class
from repro.core.timers import measure
from repro.core.zran3 import zran3

__all__ = ["NPBReport", "mop_per_second", "npb_report", "format_npb_report"]


def mop_per_second(nx: int, nit: int, seconds: float) -> float:
    """Mop/s as ``mg.f`` prints it: 58 flops per fine-grid point and
    iteration, ``58 * nx**3 * nit / seconds / 1e6`` (0 for no time)."""
    if seconds <= 0.0:
        return 0.0
    return 58.0 * nx ** 3 * nit / seconds / 1.0e6


@dataclass(frozen=True)
class NPBReport:
    size_class: SizeClass
    seconds: float
    mops: float
    rnm2: float
    verified: bool
    implementation: str

    def rows(self) -> list[tuple[str, str]]:
        sc = self.size_class
        return [
            ("Benchmark", "MG"),
            ("Class", sc.name),
            ("Size", f"{sc.nx}x{sc.nx}x{sc.nx}"),
            ("Iterations", str(sc.nit)),
            ("Time in seconds", f"{self.seconds:.4f}"),
            ("Mop/s total", f"{self.mops:.2f}"),
            ("Implementation", self.implementation),
            ("Verification", "SUCCESSFUL" if self.verified else
             ("FAILED" if sc.verify_value is not None else "N/A")),
            ("rnm2", f"{self.rnm2:.13e}"),
        ]


def npb_report(size_class: str | SizeClass, implementation: str = "f77",
               repeats: int = 1) -> NPBReport:
    """Run the benchmark and produce the NPB closing report."""
    from repro.baselines import IMPLEMENTATIONS

    sc = get_class(size_class) if isinstance(size_class, str) else size_class
    impl = IMPLEMENTATIONS[implementation]
    v = zran3(sc.nx)
    result_box = {}

    def run():
        result_box["result"] = impl.solve(sc, v=v)

    m = measure(run, repeats=repeats, warmup=1)
    result = result_box["result"]
    return NPBReport(
        size_class=sc,
        seconds=m.seconds,
        mops=mop_per_second(sc.nx, sc.nit, m.seconds),
        rnm2=result.rnm2,
        verified=result.verified,
        implementation=impl.label,
    )


def format_npb_report(report: NPBReport) -> str:
    lines = ["", " MG Benchmark Completed.".center(52, "*"), ""]
    for key, value in report.rows():
        lines.append(f" {key:<24}= {value:>24}")
    return "\n".join(lines)
