"""The one timing facility: per-section accumulation and best-of-N.

``mg.f`` (with ``TIMING_ENABLED``) reports how the benchmark's time
splits across the V-cycle kernels.  Every solver's ``monitor`` is any
object with ``add(section, seconds)``; :class:`SectionTimers` is the
accumulator to hand in.  :func:`measure` times a whole callable; what
it times is the NPB timed section only when the callable's set-up —
the right-hand side ``v`` above all — was prepared outside it and
passed in (every solver entry takes ``v=``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SectionTimers", "Measurement", "measure"]


@dataclass
class SectionTimers:
    """Accumulated seconds and call counts per section."""

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def add(self, section: str, dt: float) -> None:
        self.seconds[section] = self.seconds.get(section, 0.0) + dt
        self.calls[section] = self.calls.get(section, 0) + 1

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def shares(self) -> dict[str, float]:
        total = self.total
        if total == 0.0:
            return {k: 0.0 for k in self.seconds}
        return {k: v / total for k, v in self.seconds.items()}

    def report(self) -> str:
        lines = [f"{'section':<10}{'calls':>8}{'seconds':>12}{'share':>9}"]
        for name in sorted(self.seconds, key=self.seconds.get, reverse=True):
            lines.append(
                f"{name:<10}{self.calls[name]:>8}"
                f"{self.seconds[name]:>12.4f}"
                f"{100 * self.shares()[name]:>8.1f}%"
            )
        lines.append(f"{'total':<10}{sum(self.calls.values()):>8}"
                     f"{self.total:>12.4f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Measurement:
    """Best-of-N wall-clock timing: ``seconds`` is the minimum."""

    seconds: float
    repeats: int
    all_seconds: tuple[float, ...]


def measure(fn: Callable[[], object], repeats: int = 3,
            warmup: int = 1) -> Measurement:
    """Run ``fn`` ``repeats`` times (after ``warmup`` unmeasured runs)
    and report the minimum — the standard low-noise estimator."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return Measurement(min(times), repeats, tuple(times))
