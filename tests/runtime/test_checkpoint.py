"""Tests for SPMD checkpoint/restart: store semantics, commit protocol,
retention, and bit-exact restart of a killed solve."""

import numpy as np
import pytest

from repro.runtime.resilience import (
    CheckpointError,
    CheckpointStore,
    Fault,
    FaultKind,
    FaultPlan,
    WorldAborted,
)
from repro.runtime.spmd import DistributedMG


def _slabs(seed, shape=(4, 6, 6)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


class TestCheckpointStore:
    def test_put_commit_restore_roundtrip(self):
        store = CheckpointStore()
        u0, r0 = _slabs(0)
        u1, r1 = _slabs(1)
        store.put(0, 0, u0, r0)
        store.put(0, 1, u1, r1)
        store.commit(0, world_size=2)
        assert store.latest() == 0
        state = store.restore(0, 1)
        np.testing.assert_array_equal(state.u, u1)
        np.testing.assert_array_equal(state.r, r1)
        assert store.world_size(0) == 2

    def test_put_takes_copies(self):
        store = CheckpointStore()
        u, r = _slabs(2)
        store.put(0, 0, u, r)
        u[...] = -1.0
        store.commit(0, world_size=1)
        assert not (store.restore(0, 0).u == -1.0).any()

    def test_incomplete_snapshot_invisible(self):
        store = CheckpointStore()
        u, r = _slabs(3)
        store.put(0, 0, u, r)
        store.put(0, 1, u, r)
        store.commit(0, world_size=2)
        # Iteration 1: only one of two ranks checkpointed (rank 1 died).
        store.put(1, 0, u, r)
        with pytest.raises(CheckpointError, match="1/2 ranks"):
            store.commit(1, world_size=2)
        assert store.latest() == 0
        assert store.iterations() == [0]

    def test_commit_idempotent(self):
        store = CheckpointStore()
        u, r = _slabs(4)
        store.put(0, 0, u, r)
        store.commit(0, world_size=1)
        store.commit(0, world_size=1)  # every rank calls commit
        assert store.latest() == 0

    def test_restore_missing(self):
        store = CheckpointStore()
        with pytest.raises(CheckpointError, match="no complete checkpoint"):
            store.restore(0, 0)
        u, r = _slabs(5)
        store.put(2, 0, u, r)
        store.commit(2, world_size=1)
        with pytest.raises(CheckpointError, match="no state for rank 7"):
            store.restore(2, 7)

    def test_retain_validation(self):
        with pytest.raises(ValueError, match="retain"):
            CheckpointStore(retain=0)
        with pytest.raises(ValueError, match="retain"):
            CheckpointStore(retain=-1)

    def test_prune_keeps_last_n(self):
        store = CheckpointStore(retain=2)
        u, r = _slabs(6)
        for it in range(5):
            store.put(it, 0, u, r)
            store.commit(it, world_size=1)
        assert store.iterations() == [3, 4]
        with pytest.raises(CheckpointError):
            store.restore(0, 0)

    def test_never_prunes_only_snapshot(self):
        store = CheckpointStore(retain=1)
        u, r = _slabs(7)
        store.put(0, 0, u, r)
        store.commit(0, world_size=1)
        assert store.latest() == 0
        store.put(1, 0, u, r)
        store.commit(1, world_size=1)
        assert store.iterations() == [1]


class TestSolveWithCheckpoints:
    def test_checkpointing_does_not_perturb_solution(self):
        store = CheckpointStore(retain=None)
        res = DistributedMG(2).solve("T", checkpoint=store)
        ref = DistributedMG(2).solve("T")
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.r, ref.r)
        assert res.rnm2 == ref.rnm2
        # One complete snapshot per iteration boundary (retain=None
        # disables pruning).
        assert store.iterations() == [0, 1, 2, 3]

    def test_default_retention_prunes_old_snapshots(self):
        # Default retain=2: a class-T solve (4 iterations) keeps only
        # the two newest complete snapshots.
        store = CheckpointStore()
        DistributedMG(2).solve("T", checkpoint=store)
        assert store.iterations() == [2, 3]
        assert store.latest() == 3

    def test_checkpoint_every(self):
        store = CheckpointStore()
        DistributedMG(2).solve("T", checkpoint=store, checkpoint_every=2)
        assert store.iterations() == [0, 2]

    def test_restart_requires_store(self):
        with pytest.raises(CheckpointError, match="requires a checkpoint"):
            DistributedMG(2).solve("T", restart=True)

    def test_restart_requires_complete_snapshot(self):
        with pytest.raises(WorldAborted) as ei:
            DistributedMG(2).solve("T", checkpoint=CheckpointStore(),
                                    restart=True)
        causes = [type(f.cause).__name__ for f in ei.value.failures]
        assert "CheckpointError" in causes

    def test_restart_rejects_world_size_mismatch(self):
        store = CheckpointStore()
        DistributedMG(2).solve("T", checkpoint=store)
        with pytest.raises(WorldAborted) as ei:
            DistributedMG(4).solve("T", checkpoint=store, restart=True)
        causes = [str(f.cause) for f in ei.value.failures]
        assert any("2 ranks" in c for c in causes)

    def test_invalid_checkpoint_every(self):
        with pytest.raises(ValueError):
            DistributedMG(2).solve("T", checkpoint=CheckpointStore(),
                                    checkpoint_every=0)


@pytest.mark.chaos
class TestCheckpointRestartAfterCrash:
    def test_restart_bit_identical_to_uninterrupted(self):
        # Acceptance scenario: rank 1 dies at iteration 2 of class S; the
        # last complete checkpoint is iteration 1; restarting from it
        # must reproduce an uninterrupted solve bit for bit (fields
        # exact, norm matching the SPMD summation order).
        store = CheckpointStore()
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=2)])
        with pytest.raises(WorldAborted):
            DistributedMG(4, fault_plan=plan).solve("S", checkpoint=store)
        assert store.latest() == 1

        restarted = DistributedMG(4).solve("S", checkpoint=store,
                                           restart=True)
        uninterrupted = DistributedMG(4).solve("S")
        np.testing.assert_array_equal(restarted.u, uninterrupted.u)
        np.testing.assert_array_equal(restarted.r, uninterrupted.r)
        assert restarted.rnm2 == uninterrupted.rnm2
        assert restarted.rnmu == uninterrupted.rnmu
        assert restarted.verified
