"""Benchmark observability: per-operator timing and the BENCH emitter.

This is the recording side of the perf layer: :class:`PerfMonitor`
(the NPB-style :class:`~repro.core.timers.SectionTimers` accumulator
under the perf layer's name) collects per-operator wall time, a
:class:`PerfReport` captures one benchmarked mode, and
:func:`bench_document`/:func:`write_bench` emit the versioned
``BENCH_<n>.json`` trajectory point whose schema
:func:`validate_bench_document` checks.  ``docs/PERF.md`` documents the
schema and how to compare two trajectory points.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.core.timers import SectionTimers as PerfMonitor

__all__ = [
    "BENCH_SCHEMA",
    "CURRENT_BENCH_ID",
    "PROBLEM_KEYS",
    "PerfMonitor",
    "PerfReport",
    "bench_document",
    "bench_path",
    "default_problem",
    "git_rev",
    "mop_per_second",
    "validate_bench_document",
    "write_bench",
]

#: Version tag every emitted benchmark document carries.  v2 adds the
#: required top-level ``problem`` descriptor (name/family/boundary/
#: cycle/smoother) — a benchmark of one solver-family member is not
#: comparable to another member's, so the document must say whose
#: numbers it holds.
BENCH_SCHEMA = "repro.perf/bench/2"
#: Trajectory point this tree emits (the PR number, by convention).
CURRENT_BENCH_ID = 8

#: Sub-keys every ``problem`` descriptor must carry (the output of
#: :meth:`repro.pde.ProblemSpec.describe`).
PROBLEM_KEYS = ("name", "family", "boundary", "cycle", "smoother")

#: NPB MG's conventional flop count per fine-grid point per iteration
#: (the constant the reference codes use to report Mop/s).
_NPB_MG_FLOPS_PER_POINT = 58.0


def mop_per_second(nx: int, nit: int, seconds: float) -> float:
    """Mop/s by the NPB MG convention (58 flops per point-iteration)."""
    if seconds <= 0.0:
        return 0.0
    return _NPB_MG_FLOPS_PER_POINT * nx ** 3 * nit / seconds / 1.0e6


def git_rev() -> tuple[str, bool]:
    """``(short_rev, dirty)`` of the working tree, ``("unknown", False)``
    when git is unavailable."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if rev.returncode != 0:
            return "unknown", False
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        dirty = status.returncode == 0 and bool(status.stdout.strip())
        return rev.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


@dataclass
class PerfReport:
    """One benchmarked execution mode of one size class."""

    size_class: str
    #: "serial" | "threaded" | "distributed".
    mode: str
    nit: int
    #: Timed-section wall time, best of ``repeats`` (NPB reports best-of).
    seconds: float
    repeats: int
    #: Per-operator seconds/calls (serial: exact; threaded: master-side;
    #: distributed: rank 0's slab sweeps and its copy of the replicated
    #: coarse levels).
    per_op_seconds: dict[str, float] = field(default_factory=dict)
    per_op_calls: dict[str, int] = field(default_factory=dict)
    mop_s: float = 0.0
    #: Workspace accounting: allocations, hits, bytes_allocated,
    #: live_buffers, steady_state_allocations (pool misses after the
    #: first V-cycle iteration — the allocation-free claim is == 0).
    pool: dict = field(default_factory=dict)
    rnm2: float = 0.0
    verified: bool = False
    #: Which solver-family member produced these numbers: the
    #: ``describe()`` dict of its :class:`repro.pde.ProblemSpec`
    #: (name/family/boundary/cycle/smoother).  Defaults to the NPB
    #: instance so schema-v1 call sites keep working.
    problem: dict = field(default_factory=dict)
    #: Mode-specific settings (nthreads / nranks).
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "nit": self.nit,
            "seconds": self.seconds,
            "repeats": self.repeats,
            "per_op_seconds": dict(self.per_op_seconds),
            "per_op_calls": dict(self.per_op_calls),
            "mop_s": self.mop_s,
            "pool": dict(self.pool),
            "rnm2": self.rnm2,
            "verified": self.verified,
            **self.extra,
        }


def bench_path(bench_id: int = CURRENT_BENCH_ID) -> str:
    """Conventional filename of trajectory point ``bench_id``."""
    return f"BENCH_{bench_id}.json"


def default_problem() -> dict:
    """The NPB instance's descriptor — what schema-v1 documents meant
    implicitly, spelled out."""
    from repro.pde import get_workload

    return get_workload("npb-mg").spec.describe()


def bench_document(reports: list[PerfReport], *,
                   bench_id: int = CURRENT_BENCH_ID) -> dict:
    """Assemble the versioned benchmark document from per-mode reports."""
    if not reports:
        raise ValueError("bench_document needs at least one PerfReport")
    classes = {r.size_class for r in reports}
    if len(classes) != 1:
        raise ValueError(f"reports span multiple classes: {sorted(classes)}")
    problems = {json.dumps(r.problem, sort_keys=True)
                for r in reports if r.problem}
    if len(problems) > 1:
        raise ValueError("reports span multiple problems: "
                         + ", ".join(sorted(problems)))
    problem = (json.loads(problems.pop()) if problems
               else default_problem())
    nits = {r.nit for r in reports}
    rev, dirty = git_rev()
    return {
        "schema": BENCH_SCHEMA,
        "bench_id": bench_id,
        "git_rev": rev,
        "dirty": dirty,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "class": reports[0].size_class,
        "problem": problem,
        "nit": reports[0].nit if len(nits) == 1 else sorted(nits),
        "modes": {r.mode: r.to_dict() for r in reports},
    }


_TOP_KEYS = {
    "schema": str, "bench_id": int, "git_rev": str, "dirty": bool,
    "timestamp": str, "class": str, "problem": dict, "modes": dict,
}
_MODE_KEYS = {
    "mode": str, "nit": int, "seconds": float, "repeats": int,
    "per_op_seconds": dict, "per_op_calls": dict, "mop_s": float,
    "pool": dict, "rnm2": float, "verified": bool,
}
_POOL_KEYS = ("allocations", "hits", "bytes_allocated", "live_buffers",
              "steady_state_allocations")


def validate_bench_document(doc: object) -> list[str]:
    """Schema check of one BENCH document; returns a list of problems
    (empty when valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key, typ in _TOP_KEYS.items():
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
        elif not isinstance(doc[key], typ):
            errors.append(f"{key!r} must be {typ.__name__}, "
                          f"got {type(doc[key]).__name__}")
    if doc.get("schema") not in (None, BENCH_SCHEMA):
        errors.append(f"unknown schema {doc['schema']!r} "
                      f"(expected {BENCH_SCHEMA!r})")
    problem = doc.get("problem")
    if isinstance(problem, dict):
        for key in PROBLEM_KEYS:
            if key not in problem:
                errors.append(f"problem: missing key {key!r}")
            elif not isinstance(problem[key], str):
                errors.append(f"problem[{key!r}] must be a string")
    modes = doc.get("modes")
    if isinstance(modes, dict):
        if not modes:
            errors.append("'modes' is empty")
        for name, mode in modes.items():
            if not isinstance(mode, dict):
                errors.append(f"mode {name!r} must be an object")
                continue
            for key, typ in _MODE_KEYS.items():
                if key not in mode:
                    errors.append(f"mode {name!r}: missing key {key!r}")
                elif typ is float:
                    if not isinstance(mode[key], (int, float)):
                        errors.append(f"mode {name!r}: {key!r} must be "
                                      "a number")
                elif not isinstance(mode[key], typ):
                    errors.append(f"mode {name!r}: {key!r} must be "
                                  f"{typ.__name__}")
            pool = mode.get("pool")
            if isinstance(pool, dict):
                for key in _POOL_KEYS:
                    if key not in pool:
                        errors.append(f"mode {name!r}: pool missing {key!r}")
                    elif not isinstance(pool[key], int):
                        errors.append(f"mode {name!r}: pool[{key!r}] must "
                                      "be an integer")
    return errors


def write_bench(doc: dict, path: str | None = None) -> str:
    """Validate and write a BENCH document; returns the path written."""
    errors = validate_bench_document(doc)
    if errors:
        raise ValueError("refusing to write invalid BENCH document: "
                         + "; ".join(errors))
    path = bench_path(doc["bench_id"]) if path is None else path
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
