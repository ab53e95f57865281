"""Tests for the fork-join thread team."""

import threading

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

    def test_run_partitioned(self):
        out = np.zeros(8)
        with ThreadTeam(3) as team:
            team.run_partitioned(
                lambda c: out.__setitem__(slice(c.lo[0], c.hi[0]), 1.0), (8,)
            )
        assert (out == 1).all()


class ScriptedClock:
    """Returns the scripted instants in order; fails when read too often."""

    def __init__(self, *instants: float):
        self._instants = list(instants)
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self._instants.pop(0)


class TestForkPolicy:
    """``ThreadTeam.region``: inline or forked, whichever measured faster."""

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

    def test_inline_wins_stays_inline(self):
        clock = ScriptedClock(0.0, 1.0, 10.0, 13.0)  # inline 1 s, forked 3 s
        with ThreadTeam(2, clock=clock) as team:
            visits = self._threads_of(team, "k", 5)
            main = threading.main_thread().name
            assert visits[0] == [(0, 8, main)]            # calibration: inline
            assert [v[:2] for v in visits[1]] == [(0, 4), (4, 8)]  # then forked
            assert all(v == [(0, 8, main)] for v in visits[2:])
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (False, 1.0, 3.0)
            assert (team.regions, team.forks) == (5, 1)

    def test_forked_wins_forks(self):
        clock = ScriptedClock(0.0, 3.0, 10.0, 11.0)  # inline 3 s, forked 1 s
        with ThreadTeam(2, clock=clock) as team:
            visits = self._threads_of(team, "k", 5)
            assert all([v[:2] for v in visit] == [(0, 4), (4, 8)]
                       for visit in visits[1:])
            assert all(name.startswith("sac-worker")
                       for visit in visits[1:] for _, _, name in visit)
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (True, 3.0, 1.0)
            assert (team.regions, team.forks) == (5, 4)

    def test_exactly_two_calibration_visits_per_key(self):
        # Two reads per calibration visit, two visits per key, then the
        # clock is never read again (a third would exhaust the script).
        clock = ScriptedClock(0, 1, 2, 4, 10, 12, 20, 21)
        with ThreadTeam(2, clock=clock) as team:
            for _ in range(6):
                team.region("a", lambda c: None, 8)
                team.region("b", lambda c: None, 8)
            assert clock.reads == 8
            assert team.decisions["a"].forked is False
            assert team.decisions["b"].forked is True

    def test_undecided_key_is_visible(self):
        with ThreadTeam(2, clock=ScriptedClock(0.0, 2.0)) as team:
            team.region("k", lambda c: None, 8)
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (None, 2.0, None)

    def test_decision_table_is_read_only(self):
        with ThreadTeam(2) as team:
            team.region("k", lambda c: None, 8)
            with pytest.raises(TypeError):
                team.decisions["k"] = None
            with pytest.raises(AttributeError):
                team.decisions["k"].forked = True

    def test_visit_that_grew_the_pool_does_not_decide(self):
        class Pool:
            allocations = 0

        pool = Pool()

        def allocating(chunk: Chunk) -> None:
            pool.allocations += 1

        # The allocating inline visit reads the clock (0, 50) but its
        # 50 s are discarded; inline is timed again (1 s) and beats 2 s.
        clock = ScriptedClock(0, 50, 60, 61, 70, 72)
        with ThreadTeam(2, clock=clock) as team:
            team.region("k", allocating, 8, pool)
            assert "k" not in team.decisions
            team.region("k", lambda c: None, 8, pool)
            team.region("k", lambda c: None, 8, pool)
            d = team.decisions["k"]
            assert (d.forked, d.t_inline, d.t_forked) == (False, 1, 2)

    def test_nothing_to_fork_never_calibrates(self):
        clock = ScriptedClock()
        with ThreadTeam(1, clock=clock) as solo, \
                ThreadTeam(4, clock=clock) as team:
            solo.region("k", lambda c: None, 8)
            team.region("k", lambda c: None, 1)
            assert clock.reads == 0
            assert not solo.decisions and not team.decisions
            assert (solo.regions, solo.forks) == (1, 0)

    def test_worker_failure_during_calibration_surfaces(self):
        def failing(chunk: Chunk) -> None:
            raise ValueError(f"chunk at {chunk.lo[0]} failed")

        clock = ScriptedClock(0, 1, 2, 3, 4, 5)
        with ThreadTeam(2, clock=clock) as team:
            # Inline calibration visit: the single failure, verbatim.
            with pytest.raises(ValueError, match="chunk at 0 failed"):
                team.region("k", failing, 8)
            assert "k" not in team.decisions
            team.region("k", lambda c: None, 8)
            # Forked calibration visit: both workers fail -> composite.
            with pytest.raises(TeamError) as ei:
                team.region("k", failing, 8)
            assert len(ei.value.causes) == 2
            # The failed visit decided nothing: forked is timed again.
            assert team.decisions["k"].forked is None
            team.region("k", lambda c: None, 8)
            assert team.decisions["k"].forked is not None
