"""One schedule, every mode: the cross-mode oracle.

``core.mg`` writes the NPB schedule once (``correction``/``vcycle``/
``run``); serial, the Fortran and C styles, threaded and SPMD are
kernel tables driven through it.  ``synthesize_mg_trace`` is the independent
spelling of the same schedule, so every mode's per-operator call counts
must equal its counts, and the NumPy tables must agree with serial to
the bit.  Every entry also takes the right-hand side ``v`` prepared by
its caller: same bits, ``zran3`` not called, ``v`` not written.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import CMG, IMPLEMENTATIONS, FortranMG
from repro.core import get_class, synthesize_mg_trace, zran3
from repro.core.mg import MGKernels, run, solve, vcycle
from repro.core.timers import SectionTimers
from repro.mg_sac import solve_sac_mg
from repro.perf import Workspace
from repro.runtime import (
    DistributedMG,
    ParallelMG,
    Rung,
    SupervisedSolver,
    SupervisorPolicy,
)

OPS = ("resid", "psinv", "rprj3", "interp")


def _table(kernels):
    return lambda nit, mon, v=None: run(kernels, "S", nit, v=v, monitor=mon)


def _threaded(nthreads):
    def threaded(nit, mon, v=None):
        with ParallelMG(nthreads, monitor=mon) as solver:
            return solver.solve("S", nit, v=v)
    return threaded


def _distributed(nranks):
    # Rank 0's monitor: its slab sweeps plus its replica of the coarse
    # levels.
    return lambda nit, mon, v=None: DistributedMG(
        nranks, monitor=mon).solve("S", nit, v=v)


#: mode -> (entry(nit, monitor, v=None) -> result, how it must agree
#: with serial):
#: "bits" — same fields, same ``rnm2`` bits; "fields" — same fields, the
#: norm summed in another association (two ranks split the sum where
#: NumPy's pairwise reduction does; four do not).
MODES = {
    "serial": (lambda nit, mon, v=None: solve("S", nit, v=v, monitor=mon),
               "bits"),
    "serial-pooled": (
        lambda nit, mon, v=None: solve("S", nit, v=v, ws=Workspace(),
                                       monitor=mon),
        "bits"),
    "f77": (_table(FortranMG.kernels), "bits"),
    "c": (_table(CMG.kernels), "bits"),
    "threaded-2": (_threaded(2), "bits"),
    "threaded-3": (_threaded(3), "bits"),
    "distributed-2": (_distributed(2), "bits"),
    "distributed-4": (_distributed(4), "fields"),
}


@pytest.mark.parametrize("nit", [1, 4])
@pytest.mark.parametrize("mode", MODES)
def test_every_mode_runs_the_one_schedule(mode, nit):
    entry, agreement = MODES[mode]
    want = Counter(kind for kind, _ in synthesize_mg_trace(get_class("S").nx,
                                                          nit))
    monitor = SectionTimers()
    result = entry(nit, monitor)
    assert monitor.calls == {op: want[op] for op in OPS}
    serial = solve("S", nit)
    np.testing.assert_array_equal(result.u, serial.u)
    np.testing.assert_array_equal(result.r, serial.r)
    if agreement == "bits":
        assert result.rnm2 == serial.rnm2
    else:
        assert result.rnm2 == pytest.approx(serial.rnm2, rel=1e-13)


def _supervised(nit, mon, v=None):
    policy = SupervisorPolicy(ladder=(Rung("distributed", workers=2),
                                      Rung("serial")))
    return SupervisedSolver(policy=policy).solve("S", nit, v=v).result


#: Every entry that takes ``v=``: the modes, and those with no monitor.
V_ENTRIES = {
    **{mode: entry for mode, (entry, _) in MODES.items()},
    "sac": lambda nit, mon, v=None: IMPLEMENTATIONS["sac"].solve(
        "S", nit, v=v),
    "sac-lang": lambda nit, mon, v=None: solve_sac_mg("S", nit, v=v),
    "supervised": _supervised,
}


@pytest.mark.parametrize("entry", V_ENTRIES)
def test_a_prepared_v_is_read_and_zran3_not_called(entry, forbid_zran3):
    solve_entry = V_ENTRIES[entry]
    want = solve_entry(None, None)
    v = zran3(get_class("S").nx)
    before = v.tobytes()
    forbid_zran3()
    got = solve_entry(None, None, v)
    assert got.rnm2.hex() == want.rnm2.hex()
    assert got.r.tobytes() == want.r.tobytes()
    if entry not in ("sac", "sac-lang"):  # SacMGResult: the residual only
        assert got.u.tobytes() == want.u.tobytes()
    assert v.tobytes() == before
    with pytest.raises(ValueError, match="shape"):
        solve_entry(None, None, v[1:])


@pytest.mark.parametrize("nit", [1, 3])
def test_recording_table_reproduces_the_synthesized_order(nit):
    # Grids are bare shapes here: the schedule never looks inside one.
    lt = 5
    seen = []

    def grid(level):
        return SimpleNamespace(shape=((1 << level) + 2,) * 3, level=level)

    def op(kind, result, ghosts=True):
        seen.append((kind, result.level))
        if ghosts:
            seen.append(("comm3", result.level))
        return result

    table = MGKernels(
        resid=lambda u, v, a, out=None: op("resid", v),
        psinv=lambda r, u, c: op("psinv", u),
        rprj3=lambda r: op("rprj3", grid(r.level - 1)),
        interp_add=lambda z, u: op("interp", u, ghosts=False),
        zeros=lambda shape: op(
            "zero3", grid((shape[0] - 2).bit_length() - 1), ghosts=False),
    )
    u = v = grid(lt)
    r = {lt: table.resid(u, v, None)}
    for _ in range(nit):
        vcycle(table, u, v, r, None, None, lt)
        r[lt] = table.resid(u, v, None, out=r[lt])
    seen.append(("norm2u3", lt))
    assert seen == synthesize_mg_trace(1 << lt, nit)
