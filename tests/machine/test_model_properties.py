"""Property tests on the machine model: structural sanity that must
hold for any profile, not just the calibrated ones."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import TraceOp, synthesize_mg_trace
from repro.machine.costmodel import MachineProfile, op_time_seconds
from repro.machine.smp import simulate


@st.composite
def profiles(draw):
    scale = draw(st.floats(1.0, 100.0))
    return MachineProfile(
        name="h",
        label="H",
        per_point_ns={"resid": scale, "psinv": scale * 1.1,
                      "rprj3": scale, "interp": scale / 4,
                      "comm3": scale / 4, "zero3": scale / 16,
                      "norm2u3": scale / 8},
        op_overhead_us=draw(st.floats(0.0, 1000.0)),
        parallel_kinds=frozenset({"resid", "psinv", "rprj3", "interp"}),
        fork_base_us=draw(st.floats(0.0, 1000.0)),
        fork_per_proc_us=draw(st.floats(0.0, 100.0)),
        min_parallel_points=draw(st.sampled_from([1, 64, 4096])),
        unparallelizable_fraction=draw(st.floats(0.0, 0.5)),
    )


class TestModelInvariants:
    @given(profiles(), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_time_positive(self, prof, p):
        trace = synthesize_mg_trace(16, 1)
        assert simulate(trace, prof, p).seconds > 0

    @given(profiles())
    @settings(max_examples=30, deadline=None)
    def test_speedup_never_superlinear(self, prof):
        trace = synthesize_mg_trace(32, 1)
        t1 = simulate(trace, prof, 1).seconds
        for p in (2, 4, 8, 16):
            tp = simulate(trace, prof, p).seconds
            assert t1 / tp <= p + 1e-9

    @given(profiles())
    @settings(max_examples=30, deadline=None)
    def test_zero_fork_cost_monotone(self, prof):
        # Without per-processor fork costs, more CPUs never hurt.
        import dataclasses

        prof = dataclasses.replace(prof, fork_base_us=0.0,
                                   fork_per_proc_us=0.0)
        trace = synthesize_mg_trace(32, 1)
        times = [simulate(trace, prof, p).seconds for p in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    @given(profiles(), st.integers(2, 32))
    @settings(max_examples=30, deadline=None)
    def test_amdahl_floor(self, prof, p):
        # An op's parallel time never drops below its serial fraction.
        op = TraceOp("resid", 5, 1 << 15)
        t1, _ = op_time_seconds(prof, op, 1)
        tp, parallel = op_time_seconds(prof, op, p)
        if parallel:
            work = (1 << 15) * prof.per_point_ns["resid"] * 1e-9
            floor = work * prof.unparallelizable_fraction
            assert tp >= floor - 1e-15

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_work_scales_with_problem(self, lt, nit):
        from repro.machine import get_profile

        prof = get_profile("f77")
        small = simulate(synthesize_mg_trace(1 << lt, nit), prof, 1).seconds
        big = simulate(synthesize_mg_trace(1 << (lt + 1), nit), prof, 1).seconds
        assert big > small
