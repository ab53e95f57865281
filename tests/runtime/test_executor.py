"""Tests for the fork-join thread team."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.executor import ThreadTeam
from repro.runtime.resilience import TeamError
from repro.runtime.scheduler import Chunk, block_partition


class TestThreadTeam:
    def test_runs_all_chunks(self):
        out = np.zeros(16)

        def kernel(chunk: Chunk) -> None:
            out[chunk.lo[0]:chunk.hi[0]] += 1

        with ThreadTeam(4) as team:
            team.run(kernel, block_partition((16,), 4))
        assert (out == 1).all()

    def test_barrier_semantics(self):
        # run() must not return before every chunk has been processed.
        done = []
        lock = threading.Lock()

        def kernel(chunk: Chunk) -> None:
            with lock:
                done.append(chunk.lo[0])

        with ThreadTeam(3) as team:
            team.run(kernel, block_partition((9,), 3))
            assert sorted(done) == [0, 3, 6]

    def test_empty_chunks_skipped(self):
        calls = []
        lock = threading.Lock()

        def kernel(chunk: Chunk) -> None:
            with lock:
                calls.append(chunk)

        with ThreadTeam(4) as team:
            team.run(kernel, block_partition((2,), 4))
        assert len(calls) == 2

    def test_worker_exception_propagates(self):
        def kernel(chunk: Chunk) -> None:
            raise RuntimeError("kernel failure")

        with ThreadTeam(2) as team:
            with pytest.raises(RuntimeError, match="kernel failure"):
                team.run(kernel, block_partition((4,), 2))

    def test_single_failure_reraised_verbatim(self):
        def kernel(chunk: Chunk) -> None:
            if chunk.lo[0] == 0:
                raise KeyError("only chunk 0 fails")

        with ThreadTeam(2) as team:
            with pytest.raises(KeyError, match="only chunk 0 fails"):
                team.run(kernel, block_partition((4,), 2))

    def test_multiple_failures_become_composite(self):
        def kernel(chunk: Chunk) -> None:
            raise ValueError(f"chunk at {chunk.lo[0]} failed")

        with ThreadTeam(3) as team:
            with pytest.raises(TeamError) as ei:
                team.run(kernel, block_partition((9,), 3))
        exc = ei.value
        assert len(exc.causes) == 3
        assert all(isinstance(c, ValueError) for c in exc.causes)
        assert {str(c) for c in exc.causes} == {
            "chunk at 0 failed", "chunk at 3 failed", "chunk at 6 failed",
        }
        assert "3 worker(s) failed" in str(exc)

    def test_all_chunks_finish_before_composite_raise(self):
        # The barrier semantics survive failure: every worker ran.
        ran = []
        lock = threading.Lock()

        def kernel(chunk: Chunk) -> None:
            with lock:
                ran.append(chunk.lo[0])
            raise RuntimeError(f"boom {chunk.lo[0]}")

        with ThreadTeam(4) as team:
            with pytest.raises(TeamError):
                team.run(kernel, block_partition((8,), 4))
        assert sorted(ran) == [0, 2, 4, 6]

    def test_single_chunk_runs_inline(self):
        ident = []

        def kernel(chunk: Chunk) -> None:
            ident.append(threading.current_thread().name)

        with ThreadTeam(2) as team:
            team.run(kernel, [Chunk((0,), (4,))])
        assert ident[0] == threading.main_thread().name

    def test_region_counter(self):
        with ThreadTeam(2) as team:
            team.run(lambda c: None, block_partition((4,), 2))
            team.run(lambda c: None, block_partition((4,), 2))
            assert team.regions == 2

    def test_use_after_shutdown(self):
        team = ThreadTeam(1)
        team.shutdown()
        with pytest.raises(RuntimeError):
            team.run(lambda c: None, [Chunk((0,), (1,))])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadTeam(0)

    def test_caller_runs_chunk_zero_and_workers_the_rest(self):
        names = {}
        lock = threading.Lock()

        def kernel(chunk: Chunk) -> None:
            with lock:
                names[chunk.lo[0]] = threading.current_thread().name

        with ThreadTeam(3) as team:
            team.run(kernel, block_partition((9,), 3))
            assert (team.regions, team.forks) == (1, 1)
        assert names[0] == threading.current_thread().name
        assert all(names[lo].startswith("sac-worker") for lo in (3, 6))

    def test_caller_and_worker_failures_raise_after_the_worker_returns(self):
        caller_failed = threading.Event()
        worker_returned = threading.Event()

        def kernel(chunk: Chunk) -> None:
            if chunk.lo[0] == 0:  # the caller's chunk
                caller_failed.set()
                raise KeyError("caller")
            # Still running when the caller's chunk has failed.
            assert caller_failed.wait(10)
            time.sleep(0.05)
            worker_returned.set()
            raise ValueError("worker")

        with ThreadTeam(2) as team:
            with pytest.raises(TeamError) as ei:
                team.run(kernel, block_partition((4,), 2))
            assert worker_returned.is_set()
        assert [type(c) for c in ei.value.causes] == [KeyError, ValueError]

    def test_a_team_of_one_starts_no_thread(self):
        before = set(threading.enumerate())
        names = []
        with ThreadTeam(1) as solo:
            solo.run(lambda c: names.append(threading.current_thread().name),
                     block_partition((4,), 4))
            assert set(threading.enumerate()) <= before
            assert (solo.regions, solo.forks) == (1, 0)
        assert names == [threading.current_thread().name] * 4

    def test_a_team_of_one_still_composes_failures(self):
        def kernel(chunk: Chunk) -> None:
            raise ValueError(f"chunk at {chunk.lo[0]} failed")

        with ThreadTeam(1) as solo:
            with pytest.raises(TeamError) as ei:
                solo.run(kernel, block_partition((2,), 2))
        assert len(ei.value.causes) == 2


class ScriptedClock:
    """Returns the scripted instants in order; fails when read too often."""

    def __init__(self, *instants: float):
        self._instants = list(instants)
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self._instants.pop(0)


class TestForkPolicy:
    """``ThreadTeam.region``: inline or forked, whichever measured faster
    once both partitions were warm."""

    @staticmethod
    def _threads_of(team, key, visits, extent=8):
        """Thread names each visit's chunks ran on."""
        seen = []
        lock = threading.Lock()
        for _ in range(visits):
            names = []

            def kernel(chunk: Chunk) -> None:
                with lock:
                    names.append((chunk.lo[0], chunk.hi[0],
                                  threading.current_thread().name))

            team.region(key, kernel, extent)
            seen.append(sorted(names))
        return seen

    def test_four_visit_calibration_order(self):
        # inline untimed, forked untimed, inline timed, forked timed.
        reads = []
        clock = ScriptedClock(0.0, 1.0, 10.0, 13.0)
        with ThreadTeam(2, clock=lambda: reads.append(team.regions)
                        or clock()) as team:
            visits = self._threads_of(team, "k", 4)
            main = threading.current_thread().name
            assert [len(v) for v in visits] == [1, 2, 1, 2]
            assert all(v == [(0, 8, main)] for v in visits[::2])
            assert all(v == [(0, 4, main), (4, 8, "sac-worker_0")]
                       for v in visits[1::2])
            # The clock brackets the third and the fourth visit only.
            assert reads == [2, 3, 3, 4]

    def test_inline_wins_stays_inline(self):
        clock = ScriptedClock(0.0, 1.0, 10.0, 13.0)  # inline 1 s, forked 3 s
        with ThreadTeam(2, clock=clock) as team:
            visits = self._threads_of(team, "k", 7)
            main = threading.current_thread().name
            assert all(v == [(0, 8, main)] for v in visits[4:])
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (False, 1.0, 3.0)
            assert (team.regions, team.forks) == (7, 2)

    def test_forked_wins_forks(self):
        clock = ScriptedClock(0.0, 3.0, 10.0, 11.0)  # inline 3 s, forked 1 s
        with ThreadTeam(2, clock=clock) as team:
            visits = self._threads_of(team, "k", 7)
            assert all([v[:2] for v in visit] == [(0, 4), (4, 8)]
                       for visit in visits[3:])
            assert all(visit[1][2].startswith("sac-worker")
                       for visit in visits[3:])
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (True, 3.0, 1.0)
            assert (team.regions, team.forks) == (7, 5)

    def test_the_clock_is_read_four_times_per_key(self):
        # Two reads per timed visit, two timed visits per key, then the
        # clock is never read again (a fifth would exhaust the script).
        clock = ScriptedClock(0, 1, 2, 4, 10, 12, 20, 21)
        with ThreadTeam(2, clock=clock) as team:
            for _ in range(8):
                team.region("a", lambda c: None, 8)
                team.region("b", lambda c: None, 8)
            assert clock.reads == 8
            assert team.decisions["a"].forked is False
            assert team.decisions["b"].forked is True

    def test_a_slow_warm_up_visit_does_not_move_the_decision(self):
        # Virtual time that only the kernel advances: the untimed forked
        # visit pays 100 s of first touch, the warm ones 2 s inline and
        # 1 s forked.  Timing a warm-up visit would keep the team inline.
        now = [0.0]
        cost = iter([5.0, 100.0, 2.0, 1.0])

        def kernel(chunk: Chunk) -> None:
            if chunk.lo[0] == 0:
                now[0] += next(cost)

        with ThreadTeam(2, clock=lambda: now[0]) as team:
            for _ in range(4):
                team.region("k", kernel, 8)
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (True, 2.0, 1.0)

    def test_undecided_key_is_visible(self):
        with ThreadTeam(2, clock=ScriptedClock(0.0, 2.0)) as team:
            for _ in range(2):
                team.region("k", lambda c: None, 8)
            assert "k" not in team.decisions
            team.region("k", lambda c: None, 8)
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (None, 2.0, None)

    def test_decision_table_is_read_only(self):
        with ThreadTeam(2) as team:
            for _ in range(3):
                team.region("k", lambda c: None, 8)
            with pytest.raises(TypeError):
                team.decisions["k"] = None
            with pytest.raises(AttributeError):
                team.decisions["k"].forked = True

    def test_nothing_to_fork_never_calibrates(self):
        clock = ScriptedClock()
        with ThreadTeam(1, clock=clock) as solo, \
                ThreadTeam(4, clock=clock) as team:
            for _ in range(5):
                solo.region("k", lambda c: None, 8)
                team.region("k", lambda c: None, 1)
            assert clock.reads == 0
            assert not solo.decisions and not team.decisions
            assert (solo.regions, solo.forks) == (5, 0)

    def test_worker_failure_during_calibration_surfaces(self):
        def failing(chunk: Chunk) -> None:
            raise ValueError(f"chunk at {chunk.lo[0]} failed")

        clock = ScriptedClock(0, 1, 2, 3, 4, 5)
        with ThreadTeam(2, clock=clock) as team:
            # Inline warm-up visit: the single failure, verbatim.
            with pytest.raises(ValueError, match="chunk at 0 failed"):
                team.region("k", failing, 8)
            team.region("k", lambda c: None, 8)  # inline again
            # Forked warm-up visit: caller and worker fail -> composite.
            with pytest.raises(TeamError) as ei:
                team.region("k", failing, 8)
            assert len(ei.value.causes) == 2
            assert clock.reads == 0

    def test_a_failed_visit_decides_nothing(self):
        def failing(chunk: Chunk) -> None:
            raise ValueError("timed visit failed")

        # A failed visit reads the clock once, before it runs.
        clock = ScriptedClock(0, 10, 11, 20, 30, 32)
        with ThreadTeam(2, clock=clock) as team:
            for _ in range(2):
                team.region("k", lambda c: None, 8)
            # The timed inline visit fails: it records nothing.
            with pytest.raises(ValueError):
                team.region("k", failing, 8)
            assert "k" not in team.decisions
            team.region("k", lambda c: None, 8)  # inline, timed again
            # The timed forked visit fails: still undecided.
            with pytest.raises(TeamError):
                team.region("k", failing, 8)
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (None, 1, None)
            team.region("k", lambda c: None, 8)  # forked, timed again
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (False, 1, 2)
            assert clock.reads == 6
