"""The per-layer pass: every layer measured from outside, in one process.

``python3 layers.py '<json spec>'`` (keys ``seed``, ``micro_seconds``);
the result is one JSON object on the last line of standard output.

Layers are the repo's packages.  Each is measured by timing calls into
its public functions on seeded arrays, and by taking one traced sample
of every workload with the span recorder as the solver's ``monitor``.
Level tags: ``L3`` = 8^3, ``L5`` = 32^3 (class S finest), ``L6`` = 64^3
(class W finest).  Which end-to-end metric each number should move is
written down in the README before any of it was measured.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from sampling import judge, set_up, take_sample
from spans import SpanRecorder, attributed_fraction
from workloads import WARM_NIT, WORKERS, WORKLOADS
from zran3_stub import Zran3Stub

LEVELS = {"L3": 8, "L5": 32, "L6": 64}
OPS = ("resid", "psinv", "rprj3", "interp")
MIB = float(1 << 20)


def per_call(fn, budget: float) -> float:
    """Mean seconds per call over doubling batches that fill ``budget``."""
    fn()  # warm: first-call allocations and lazy imports stay out
    calls, batch, t0 = 0, 1, time.perf_counter()
    while True:
        for _ in range(batch):
            fn()
        calls += batch
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / calls
        batch *= 2


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def median_of(fn, n: int) -> float:
    return statistics.median(timed(fn) for _ in range(n))


class Metrics(dict):
    def put(self, name: str, value: float, unit: str) -> None:
        self[name] = {"value": value, "unit": unit}


def grid(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n + 2,) * 3)


# -- core --------------------------------------------------------------------

def core_kernels(m: Metrics, rng, budget: float, stub: Zran3Stub) -> None:
    from repro.core import mg
    from repro.core.grid import comm3
    from repro.core.norms import norm2u3
    from repro.core.stencils import S_COEFFS_A
    from repro.perf.workspace import Workspace

    ws = Workspace("layers-core")
    for tag, n in LEVELS.items():
        u, v, z = grid(rng, n), grid(rng, n), grid(rng, n // 2)
        kernels = {
            "resid": lambda: mg.resid(u, v, ws=ws),
            "psinv": lambda: mg.psinv(v, u, S_COEFFS_A, ws=ws),
            "rprj3": lambda: mg.rprj3(u, ws=ws),
            "interp": lambda: mg.interp_add(z, u, ws=ws),
            "comm3": lambda: comm3(u),
        }
        seconds = {op: per_call(fn, budget) for op, fn in kernels.items()}
        for op, s in seconds.items():
            m.put(f"core.{op}.{tag}.us", s * 1e6, "us")
        if tag != "L3":
            m.put(f"core.norm2u3.{tag}.us",
                  per_call(lambda: norm2u3(u), budget) * 1e6, "us")
        if tag == "L6":
            # Bytes from array sizes (cache misses ignored): computed, not measured.
            fine, coarse = u.nbytes, z.nbytes
            moved = {"resid": 3 * fine, "psinv": 3 * fine,
                     "rprj3": fine + coarse, "interp": coarse + 2 * fine}
            for op in OPS:
                m.put(f"core.{op}.L6.gbs_computed",
                      moved[op] / seconds[op] / 1e9, "GB/s")
    for n in (32, 64):
        m.put(f"core.zran3.n{n}.ms",
              per_call(lambda: stub.real(n), budget) * 1e3, "ms")


# -- perf --------------------------------------------------------------------

def perf_workspace(m: Metrics, budget: float) -> None:
    from repro.core.mg import solve
    from repro.perf.workspace import Workspace

    ws = Workspace("layers-perf")
    shape = (66, 66, 66)
    ws.get("mg.u1", shape)
    m.put("perf.workspace.get_hit_us",
          per_call(lambda: ws.get("mg.u1", shape), budget) * 1e6, "us")
    solve("S", ws=ws)
    pooled, unpooled = [], []
    for _ in range(5):  # alternating, so drift hits both sides alike
        unpooled.append(timed(lambda: solve("S")))
        pooled.append(timed(lambda: solve("S", ws=ws)))
    m.put("perf.workspace.pool_gain_x.S",
          statistics.median(unpooled) / statistics.median(pooled), "x")


# -- runtime.executor / runtime.parallel_mg -----------------------------------

def executor_and_parallel_kernels(m: Metrics, rng, budget: float) -> None:
    from repro.core.stencils import A_COEFFS, S_COEFFS_A
    from repro.perf.workspace import Workspace
    from repro.runtime import parallel_mg as pmg
    from repro.runtime.executor import ThreadTeam
    from repro.runtime.scheduler import block_partition

    chunks = block_partition((WORKERS,), WORKERS)

    def noop(chunk) -> None:
        pass

    def start_team() -> None:
        # Workers start on the first fork, so one fork-join is included:
        # what every ParallelMG.solve pays once.
        with ThreadTeam(WORKERS) as team:
            team.run(noop, chunks)

    m.put("executor.team_start_ms", per_call(start_team, budget) * 1e3, "ms")
    ws = Workspace("layers-parallel")
    with ThreadTeam(WORKERS) as team:
        m.put("executor.forkjoin_us",
              per_call(lambda: team.run(noop, chunks), budget) * 1e6, "us")
        for tag in ("L3", "L6"):
            n = LEVELS[tag]
            u, v, z = grid(rng, n), grid(rng, n), grid(rng, n // 2)
            kernels = {
                "resid": lambda: pmg.parallel_resid(u, v, A_COEFFS, team, None, ws),
                "psinv": lambda: pmg.parallel_psinv(v, u, S_COEFFS_A, team, None, ws),
                "rprj3": lambda: pmg.parallel_rprj3(u, team, ws),
                "interp": lambda: pmg.parallel_interp_add(z, u, team, ws),
            }
            for op, fn in kernels.items():
                m.put(f"parallel_mg.{op}.{tag}.us",
                      per_call(fn, budget) * 1e6, "us")


# -- runtime.spmd ---------------------------------------------------------------

def _on_two_ranks(body, n: int) -> float:
    """Rank 0's mean seconds per ``body(comm)`` over ``n`` lock-step calls
    on a ``World(2)``, one thread per rank."""
    from repro.runtime.spmd import World

    seconds = [0.0, 0.0]
    errors: list[BaseException] = []
    with World(2) as world:
        def rank(r: int) -> None:
            try:
                comm = world.comm(r)
                comm.barrier()
                t0 = time.perf_counter()
                for _ in range(n):
                    body(comm)
                seconds[r] = (time.perf_counter() - t0) / n
            except BaseException as exc:  # wake the peer, then re-raise below
                errors.append(exc)
                world.abort()

        threads = [threading.Thread(target=rank, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return seconds[0]


def _ranks_per_call(body, budget: float) -> float:
    probe = _on_two_ranks(body, 20)
    return _on_two_ranks(body, max(20, int(budget / probe)))


def spmd_primitives(m: Metrics, rng, budget: float) -> None:
    from repro.runtime.spmd import World

    for tag in ("L3", "L6"):
        n = LEVELS[tag]
        plane = rng.standard_normal((n + 2, n + 2))
        m.put(f"spmd.exchange_halos_us.{tag}", _ranks_per_call(
            lambda comm: comm.exchange_halos(plane, plane), budget) * 1e6, "us")
    m.put("spmd.barrier_us",
          _ranks_per_call(lambda comm: comm.barrier(), budget) * 1e6, "us")
    m.put("spmd.allreduce_us", _ranks_per_call(
        lambda comm: comm.allreduce_sum(1.0), budget) * 1e6, "us")
    m.put("spmd.world_start_ms",
          per_call(lambda: World(2).close(), budget) * 1e3, "ms")


# -- runtime.transport -----------------------------------------------------------

def _wire_rtt(kind: str, plane: np.ndarray, budget: float) -> float:
    """One plane out over one wire and back over another, echoed by a
    second thread."""
    from repro.runtime.transport import make_transport

    transport = make_transport(kind)
    transport.open(2)
    try:
        out, back = transport.wire(0, 1, "up"), transport.wire(1, 0, "down")

        def echo() -> None:
            while (msg := out.get(timeout=10.0)) is not None:
                back.put(msg)

        peer = threading.Thread(target=echo)
        peer.start()
        try:
            def round_trip() -> None:
                out.put(plane)
                back.get(timeout=10.0)
            return per_call(round_trip, budget)
        finally:
            out.put(None)
            peer.join()
    finally:
        transport.close()


def transport_wires(m: Metrics, rng, budget: float) -> None:
    from repro.runtime.transport import make_transport

    plane = rng.standard_normal((66, 66))
    for kind in ("inproc", "socket"):
        m.put(f"transport.{kind}.rtt_us",
              _wire_rtt(kind, plane, budget) * 1e6, "us")

    def open_and_close() -> None:
        transport = make_transport("socket")
        transport.open(2)
        transport.wire(0, 1, "up")
        transport.wire(1, 0, "down")
        transport.close()

    m.put("transport.socket.open_ms", per_call(open_and_close, budget) * 1e3, "ms")


# -- runtime.resilience / runtime.supervisor (features the workloads leave off) --

def _distributed_w(**knobs) -> float:
    from repro.runtime.spmd import DistributedMG

    solver = DistributedMG(WORKERS, workspace=True, **knobs)
    solver.solve("W", WARM_NIT)
    return timed(lambda: solver.solve("W"))


def resilience_and_transport_solves(m: Metrics, rng, budget: float,
                                    plain_w: float) -> None:
    from repro.runtime.resilience import CheckpointStore

    # A class-W snapshot: per rank, u and r slabs of 32 + 2 halo planes.
    slab = rng.standard_normal((64 // WORKERS + 2, 66, 66))
    store = CheckpointStore()
    iteration = iter(range(1 << 30))

    def snapshot() -> None:
        it = next(iteration)
        for rank in range(WORKERS):
            store.put(it, rank, slab, slab)
        store.commit(it, WORKERS)

    m.put("resilience.checkpoint.commit_ms", per_call(snapshot, budget) * 1e3, "ms")
    m.put("resilience.checkpoint.snapshot_mb", WORKERS * 2 * slab.nbytes / MIB, "MiB")
    m.put("resilience.checksum.overhead_frac",
          _distributed_w(halo_checksums=True) / plain_w - 1.0, "frac")
    m.put("transport.socket.solve_x.W",
          _distributed_w(transport="socket") / plain_w, "x")


def supervisor(m: Metrics) -> None:
    from repro.core.mg import solve
    from repro.runtime.supervisor import Rung, SupervisedSolver, SupervisorPolicy

    sup = SupervisedSolver(policy=SupervisorPolicy(ladder=(Rung("serial"),)))
    for klass, n in (("S", 5), ("W", 1)):
        bare, supervised = [], []
        for _ in range(n):  # the serial rung runs un-pooled; so does the base
            bare.append(timed(lambda: solve(klass)))
            supervised.append(timed(lambda: sup.solve(klass)))
        m.put(f"supervisor.overhead_frac.{klass}",
              statistics.median(supervised) / statistics.median(bare) - 1.0,
              "frac")


# -- sac --------------------------------------------------------------------------

def sac_driver(m: Metrics):
    """The cold ``mg.sac`` build (this process's cache dir starts empty),
    then a warm one through a new session and a new cache object."""
    from repro.mg_sac.loader import load_mg_program, mg_source_path
    from repro.sac import CompilationSession, KernelCache
    from repro.sac.analysis.reuse import certify_program
    from repro.sac.driver import default_cache

    def cold():
        program = load_mg_program()
        program.interp  # the backend stage is lazy
        return program

    t0 = time.perf_counter()
    program = cold()
    m.put("sac.driver.build_cold_ms", (time.perf_counter() - t0) * 1e3, "ms")
    for name, record in program.session.stages.items():
        m.put(f"sac.driver.stage_ms.{name}", record.seconds * 1e3, "ms")
    report = program.pass_report
    for name in ("inline", "constfold", "wlfold", "unroll", "coeffgroup",
                 "cse", "dce", "ipup"):
        m.put(f"sac.optim.pass_ms.{name}",
              sum(e.seconds for e in report.executions if e.name == name) * 1e3,
              "ms")
    m.put("sac.optim.rewrites_total", report.rewrites(), "count")

    warm_cache = KernelCache(default_cache().root)
    m.put("sac.driver.build_warm_ms", timed(
        lambda: CompilationSession.from_file(
            mg_source_path(), program.options, cache=warm_cache).interpreter
    ) * 1e3, "ms")
    for counter in ("hits", "misses", "disk_hits", "stores"):
        m.put(f"sac.driver.cache.{counter}",
              getattr(default_cache().stats, counter)
              + getattr(warm_cache.stats, counter), "count")

    m.put("sac.analysis.loops_certified",
          sum(c.safe for c in program.analysis_report.certificates), "count")
    m.put("sac.analysis.reuse_hints",
          sum(c.buffer_reuse for c in certify_program(program.program)), "count")
    return program


def sac_backends(m: Metrics, program, rng, budget: float, v: np.ndarray) -> None:
    from repro.sac import compile_function

    t0 = time.perf_counter()
    fn = compile_function(program, "FinalResidual", (v, 4))
    m.put("sac.codegen.compile_ms", (time.perf_counter() - t0) * 1e3, "ms")
    m.put("sac.codegen.compile_warm_ms", timed(
        lambda: compile_function(program, "FinalResidual", (v, 4))) * 1e3, "ms")
    m.put("sac.codegen.source_lines", len(fn.source.splitlines()), "count")
    m.put("sac.codegen.frame_copies", fn.source.count(".copy()"), "count")
    fine, coarse = grid(rng, 32), grid(rng, 16)
    for name in ("Resid", "Smooth", "Fine2Coarse", "Coarse2Fine"):
        arg = coarse if name == "Coarse2Fine" else fine
        kernel = compile_function(program, name, (arg,))
        m.put(f"sac.codegen.{name}.L5.us",
              per_call(lambda: kernel(arg), budget) * 1e6, "us")
        m.put(f"sac.interp.{name}.L5.us",
              per_call(lambda: program.call(name, arg), budget) * 1e6, "us")


# -- baselines / harness ------------------------------------------------------------

def baselines(m: Metrics) -> None:
    from repro.baselines import IMPLEMENTATIONS

    for key, label in (("f77", "fortran"), ("c", "c"), ("sac", "sac_style")):
        impl = IMPLEMENTATIONS[key]
        m.put(f"baselines.{label}.solve_ms.S",
              median_of(lambda: impl.solve("S"), 5) * 1e3, "ms")


def harness(m: Metrics) -> None:
    def fresh(*argv: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True,
                       stdout=subprocess.DEVNULL, env=os.environ)
        return time.perf_counter() - t0

    m.put("harness.import_ms", fresh(
        "-c", "import repro.core.mg, repro.runtime, repro.mg_sac.loader, "
        "repro.pde, repro.baselines") * 1e3, "ms")
    # ``solve -c S`` with the default problem raises after solving
    # (``MGResult`` has no ``nx``); ``timers`` is the CLI's working
    # one-solve command.
    m.put("harness.cli_solve_ms.S", fresh(
        "-m", "repro.harness", "timers", "-c", "S") * 1e3, "ms")


# -- one traced sample of every workload ----------------------------------------------

def workload_samples(m: Metrics, rec: SpanRecorder, stub: Zran3Stub
                     ) -> tuple[dict[str, float], int, int]:
    """Per workload: set-up, then 5 (class S) or 2 (class W) traced samples
    inside ``workload`` -> ``block#layers`` -> ``solve#i`` spans.  Returns
    the median sample seconds per workload, and attempted / failed."""
    p50: dict[str, float] = {}
    afters: dict = {}
    attempted = failed = 0
    for name, wl in WORKLOADS.items():
        mark = len(rec.spans)
        with rec.span(name), rec.span("block#layers"):
            run, _ = set_up(name, rec, stub)
            allocs = sum(pool.allocations for pool in run.pools)
            samples, monitors = zip(*(
                take_sample(run, stub, rec, i, traced=True)
                for i in range(2 if wl.klass == "W" else 5)))
            allocs = sum(pool.allocations for pool in run.pools) - allocs
        if wl.after not in afters:  # the two parallel workloads share one
            afters[wl.after] = wl.after()
        judge(name, samples, afters[wl.after])
        attempted += len(samples)
        failed += sum(not s["ok"] for s in samples)
        p50[name] = statistics.median(s["wall"] for s in samples)
        frac = attributed_fraction(rec.spans[mark:])
        monitor = monitors[-1]
        layer = {"S-serial": "core", "W-serial": "core",
                 "W-threaded": "parallel_mg", "W-distributed": "spmd",
                 "S-poisson": "pde"}.get(name)
        if layer == "pde":
            m.put("pde.attributed_frac", frac, "frac")
            m.put("pde.cycles_to_tol", samples[-1]["iterations"], "count")
            for section in ("resid", "cycle"):
                m.put(f"pde.section_s.{section}", monitor.seconds[section], "s")
        elif layer:
            m.put(f"{layer}.attributed_frac.{wl.klass}", frac, "frac")
            m.put(f"perf.workspace.steady_allocs.{name}", allocs, "count")
        if name == "W-serial":
            m.put("perf.workspace.pool_mb.W-serial",
                  sum(pool.bytes_allocated for pool in run.pools) / MIB, "MiB")
            for op in OPS:
                m.put(f"core.calls.{op}.W", monitor.calls[op], "count")
    m.put("core.solve_ms.S", p50["S-serial"] * 1e3, "ms")
    m.put("core.solve_ms.W", p50["W-serial"] * 1e3, "ms")
    m.put("parallel_mg.vs_serial_x.W", p50["W-serial"] / p50["W-threaded"], "x")
    m.put("spmd.vs_serial_x.W", p50["W-serial"] / p50["W-distributed"], "x")
    m.put("sac.codegen.vs_core_x.S", p50["S-sac-codegen"] / p50["S-serial"], "x")
    m.put("sac.interp.vs_core_x.S", p50["S-sac-interp"] / p50["S-serial"], "x")
    return p50, attempted, failed


def unstubbed_serial_s(m: Metrics, stub: Zran3Stub) -> None:
    """``solve("S")`` with the real ``zran3`` back inside -- what
    ``repro.perf.bench`` times -- alternating with stubbed solves, so the
    difference is not drift.  It should be ``core.zran3.n32.ms``: the part
    of that figure that was never the NPB timed section."""
    from repro.core.mg import solve
    from repro.perf.workspace import Workspace

    ws = Workspace("layers-unstubbed")
    solve("S", ws=ws)
    with_zran3, extra = [], []
    for _ in range(9):
        stubbed = timed(lambda: solve("S", ws=ws))
        stub.uninstall()
        try:
            with_zran3.append(timed(lambda: solve("S", ws=ws)))
        finally:
            stub.install()
        extra.append(with_zran3[-1] - stubbed)
    m.put("core.solve_with_zran3_ms.S", statistics.median(with_zran3) * 1e3, "ms")
    m.put("core.zran3_in_solve_ms.S", statistics.median(extra) * 1e3, "ms")


def main() -> None:
    spec = json.loads(sys.argv[1])
    budget = spec["micro_seconds"]
    rng = np.random.default_rng(spec["seed"])
    m = Metrics()
    rec = SpanRecorder()

    import repro.baselines  # noqa: F401  -- every zran3 binding, before the scan
    import repro.mg_sac.loader  # noqa: F401
    import repro.pde  # noqa: F401
    import repro.runtime  # noqa: F401

    stub = Zran3Stub()
    stub.install()
    program = sac_driver(m)  # first: the cold build needs the empty cache dir
    p50, attempted, failed = workload_samples(m, rec, stub)
    unstubbed_serial_s(m, stub)
    core_kernels(m, rng, budget, stub)
    perf_workspace(m, budget)
    executor_and_parallel_kernels(m, rng, budget)
    spmd_primitives(m, rng, budget)
    transport_wires(m, rng, budget)
    resilience_and_transport_solves(m, rng, budget, p50["W-distributed"])
    supervisor(m)
    sac_backends(m, program, rng, budget, stub.prime(32))
    baselines(m)
    harness(m)
    print(json.dumps({"metrics": m, "attempted": attempted, "failed": failed,
                      "zran3_bound": stub.bound, "spans": rec.spans}))


if __name__ == "__main__":
    main()
