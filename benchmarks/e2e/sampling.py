"""Set a workload up and take guarded, timed samples of it.

Shared by ``block.py`` (one block of one workload) and ``layers.py``
(one traced sample of every workload).  Child processes only.
"""

from __future__ import annotations

import importlib
import time
from contextlib import nullcontext

from spans import Monitor, SpanRecorder
from workloads import WORKLOADS, Prepared
from zran3_stub import Zran3Stub


def set_up(name: str, rec: SpanRecorder, stub: Zran3Stub | None = None
           ) -> tuple[Prepared, Zran3Stub]:
    """The ``setup`` span: ``import``, ``zran3``, then the workload's own
    ``sac.build`` / ``sac.codegen`` / ``warmup``.  Installs the ``zran3``
    stand-in once the workload's modules are imported, so that the scan
    finds their bindings."""
    wl = WORKLOADS[name]
    with rec.span("setup"):
        with rec.span("import"):
            for module in wl.modules:
                importlib.import_module(module)
        if stub is None:
            stub = Zran3Stub()
            stub.install()
        v = None
        if wl.zran3:
            from repro.core.classes import get_class

            with rec.span("zran3"):
                v = stub.prime(get_class(wl.klass).nx)
        run = wl.prepare(rec, v)
    return run, stub


def take_sample(run: Prepared, stub: Zran3Stub, rec: SpanRecorder, i: int,
                traced: bool, plant: float = 0.0) -> tuple[dict, Monitor | None]:
    """One timed section: its record, and its monitor when traced (inside
    a ``solve#i`` span, with the span recorder as the solver's
    ``monitor``).  ``plant`` stretches the timed region by that share
    with a sleep (``test_compare`` only)."""
    sample = {"traced": traced, "ok": False}
    before = stub.counts()
    with (rec.span(f"solve#{i}", sample=i) if traced else nullcontext()) as sp:
        monitor = rec.monitor(sp) if traced else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = run.sample(monitor)
        except Exception as exc:  # a failed operation, counted and reported
            sample["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        if plant:
            time.sleep(plant * (time.perf_counter() - wall0))
        sample["wall"] = time.perf_counter() - wall0
        sample["cpu"] = time.process_time() - cpu0
    sample["guard_ok"] = stub.sample_ok(before, run.zran3_hits)
    if result is not None:
        sample["rnm2"] = float(result.rnm2)
        sample["iterations"] = getattr(result, "iterations", None)
        sample["converged"] = bool(getattr(result, "converged", True))
    return sample, monitor


def judge(name: str, samples: list[dict], after: dict) -> None:
    """Set each sample's ``ok``: it ran, the ``zran3`` guard held and its
    result passes the workload's oracle."""
    oracle = WORKLOADS[name].oracle
    for s in samples:
        s["ok"] = ("error" not in s and s["guard_ok"] and oracle(s, after))
