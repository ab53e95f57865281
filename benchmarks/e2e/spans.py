"""Benchmark-owned span recorder.

Spans are opened from ``benchmarks/e2e`` only, around calls into the
solvers' public entry points; the children of a ``solve#i`` span come
from handing the solvers' public ``monitor=`` parameter an adapter whose
``add(section, dt)`` becomes a span ending now and starting ``dt`` ago.
Spans stay in memory; the parent process writes them to ``trace.jsonl``
when the run ends.

One line of ``trace.jsonl`` is one span: ``id``, ``parent`` (``null`` at
the root), ``name``, ``start``/``end`` (seconds on the recording
process's ``perf_counter``; the root span's ``epoch`` is the wall clock
at its start, which places processes relative to each other), ``pid``,
``tid`` and ``sample`` (the ``solve#i`` index shared by a sample's
spans, else ``null``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._ids = itertools.count()  # monitors add spans from rank threads
        self._open: list[str] = []  # main-thread stack of open span ids

    def _new(self, name: str, start: float, end: float | None,
             parent: str | None, sample: int | None) -> dict:
        span = {"id": f"{self._pid}.{next(self._ids)}", "parent": parent,
                "name": name, "start": start, "end": end, "pid": self._pid,
                "tid": threading.get_ident(), "sample": sample}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, sample: int | None = None):
        """Open a child of the innermost open span (main thread only)."""
        parent = self._open[-1] if self._open else None
        span = self._new(name, time.perf_counter(), None, parent, sample)
        if parent is None:
            span["epoch"] = time.time()
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def monitor(self, solve_span: dict) -> "Monitor":
        """An ``add(section, dt)`` object for the solvers' ``monitor=``."""
        return Monitor(self, solve_span)


class Monitor:
    def __init__(self, recorder: SpanRecorder, solve_span: dict) -> None:
        self._rec = recorder
        self._parent = solve_span["id"]
        self._sample = solve_span["sample"]
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, section: str, dt: float) -> None:
        end = time.perf_counter()
        self._rec._new(section, end - dt, end, self._parent, self._sample)
        self.seconds[section] = self.seconds.get(section, 0.0) + dt
        self.calls[section] = self.calls.get(section, 0) + 1


def attributed_fraction(spans: list[dict]) -> float:
    """Share of the ``solve#i`` spans' time that their children cover.

    The remainder is the solve spans' self time: wall time no monitor
    section accounts for.
    """
    solves = {s["id"]: s["end"] - s["start"] for s in spans
              if s["name"].startswith("solve#")}
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] in solves)
    total = sum(solves.values())
    return covered / total if total > 0 else 0.0
