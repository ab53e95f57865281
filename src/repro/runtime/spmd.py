"""SPMD distributed-memory MG — the paper's §7 comparison target, built.

The NPB parallel reference implements MG in MPI style: each rank owns a
slab of the large grid levels, stencil sweeps exchange halo planes with
ring neighbours, and the coarse end of the V-cycle is handled
specially.  This module implements that structure:

* **z-slab decomposition** of the top two levels, ``lt`` and ``lt - 1``;
  each rank stores its planes in an extended array whose two extra z
  planes are the halos,
* **halo exchange**: x/y borders are rank-local face copies; the z
  borders travel to the ring neighbours — the periodic wrap is the ring
  itself,
* **the bottom solved once on rank 0**: level ``lt - 1``'s residual is
  gathered to rank 0, which alone runs the serial V-cycle below it;
  every rank copies its slabs of the result,
* the verification norm is an allreduce.

Ranks are executed as threads with explicit message channels — the
communication structure of MPI without requiring an MPI runtime (the
per-element arithmetic reuses the expression-order-exact chunk kernels,
so the solution fields are bit-identical to the serial solver; only the
final *norm's* summation order differs, as it does for real MPI too).

The communication substrate is pluggable (:mod:`repro.runtime.transport`):
``World(transport="inproc")`` runs over per-link in-process queues (the
seed behaviour), ``transport="socket"`` over loopback TCP with framed,
CRC-guarded pickles — proving the fabric spans hosts in principle.  All
timeout/poll knobs live in one :class:`TransportConfig`.

The runtime carries real failure semantics (see ``docs/RESILIENCE.md``):

* every blocking operation is governed by a configurable **timeout**
  (``World(timeout=...)``) and raises the structured taxonomy of
  :mod:`repro.runtime.resilience` (:class:`HaloTimeout`,
  :class:`BarrierTimeout`, ...) instead of raw ``queue.Empty`` /
  ``BrokenBarrierError``;
* one rank's death trips a world-wide **cancellation token**, breaks the
  barrier, and poison-pills every channel, so peers observe
  :class:`WorldAborted` within milliseconds rather than timing out; all
  primary failures are collected in a lock-protected registry and the
  caller receives the composite naming every failed rank;
* a timed-out wait names the rank it waited for — a halo recv its
  source, a barrier the ranks whose arrival count is behind — and when
  that is one peer, the failure is recorded once, under the peer: the
  stalled rank is what failed, and the observer is a casualty;
* a seeded, deterministic :class:`FaultPlan` can inject crashes, drops,
  delays, corruption and slowness through hooks on the channels;
* with ``halo_checksums=True`` each halo plane travels with a CRC and is
  retransmitted from a replay buffer on mismatch (bounded by
  ``halo_retries``) before escalating;
* a :class:`CheckpointStore` snapshots per-rank state at iteration
  boundaries and a failed run restarts bit-identically from the last
  complete snapshot;
* with **elastic healing** attached (``DistributedMG(heal=...)``, see
  ``docs/SUPERVISOR.md``), a single-rank death with a complete
  checkpoint does not abort the world at all: a replacement rank is
  spawned on a fresh fabric, every survivor rolls back to the same
  snapshot, and all ranks meet at a two-phase rejoin barrier — the
  solve finishes at full width, bit-identical to a fault-free run.  A
  stalled rank that a peer's timeout names is healed the same way.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np

from repro.core.classes import SizeClass, get_class
from repro.core.grid import comm3, ghost_fill
from repro.core import mg
from repro.core.mg import (
    MGKernels,
    MGResult,
    checked_rhs,
    correction,
    numpy_kernels,
    timed_kernels,
    vcycle,
)
from repro.core.stencils import A_COEFFS, S_COEFFS_A, S_COEFFS_B, _scratch
from repro.core.zran3 import zran3

from .resilience import (
    BarrierTimeout,
    CancellationToken,
    CheckpointError,
    CheckpointStore,
    FailureRegistry,
    FaultPlan,
    HaloTimeout,
    HealRejoin,
    RankDeclaredDead,
    RankFailure,
    ResilienceStats,
    WorldAborted,
)
from .transport import (
    DEFAULT_JOIN_TIMEOUT,
    DEFAULT_POLL_INTERVAL,
    DEFAULT_TIMEOUT,
    Channel,
    Transport,
    TransportConfig,
    make_transport,
)

__all__ = ["DistributedMG", "RankComm", "World", "DEFAULT_TIMEOUT",
           "DEFAULT_JOIN_TIMEOUT", "DEFAULT_POLL_INTERVAL"]


class _Fabric:
    """One generation of the world's communication fabric.

    Bundles the ring channels, the collective barrier and the gather
    slots so they swap *atomically* on an elastic heal: every operation
    captures the fabric once (after its abort/heal check) and uses only
    that object, so a stale thread can never write half into the old
    fabric and half into the new one.

    Two per-rank tables name the rank a timed-out wait was waiting
    for; each rank writes only its own slot.  ``arrivals[r]`` counts the
    barriers rank ``r`` has entered: when a barrier breaks, the ranks
    whose count is behind the observer's are the ones that never
    arrived.  ``waits[r]`` is the ticket of the halo recv rank ``r`` is
    blocked in (``None`` once it returns); tickets are drawn in the
    order the waits begin.
    """

    __slots__ = ("up", "down", "barrier", "arrivals", "waits", "tickets",
                 "gather_slots", "epoch")

    def __init__(self, world: "World", epoch: int):
        size = world.size
        transport = world.transport
        # ring links: up[r] carries messages r -> (r+1)%P,
        #             down[r] carries messages r -> (r-1)%P.
        self.up = [Channel(world, r, (r + 1) % size,
                           transport.wire(r, (r + 1) % size, "up"))
                   for r in range(size)]
        self.down = [Channel(world, r, (r - 1) % size,
                             transport.wire(r, (r - 1) % size, "down"))
                     for r in range(size)]
        self.barrier = threading.Barrier(size)
        self.arrivals = [0] * size
        self.waits: list[int | None] = [None] * size
        self.tickets = itertools.count()
        self.gather_slots: list = [None] * size
        self.epoch = epoch

    def poison(self) -> None:
        """Wake every blocked participant (abort or heal begins)."""
        self.barrier.abort()
        for ch in (*self.up, *self.down):
            ch.poison()

    def close(self) -> None:
        for ch in (*self.up, *self.down):
            ch.close()


class _HealState:
    """One in-flight elastic heal: epoch, dead rank, two-phase barriers.

    Phase 1 ("quiesce") gathers all ``size`` participants — the
    survivors plus the freshly spawned replacement; its barrier action
    swaps in a new fabric while every rank is provably parked here, so
    nobody can be mid-operation on the old one.  Between the phases each
    rank restores its slab from the same complete checkpoint.  Phase 2
    ("commit") proves every restore landed before anyone resumes; its
    action publishes the heal as complete.
    """

    __slots__ = ("epoch", "rank", "failure", "phase1", "phase2")

    def __init__(self, world: "World", epoch: int, failure: RankFailure):
        self.epoch = epoch
        self.rank = failure.rank
        self.failure = failure
        self.phase1 = threading.Barrier(world.size,
                                        action=world._heal_reset)
        self.phase2 = threading.Barrier(world.size,
                                        action=world._heal_commit)


class World:
    """The communication fabric of one SPMD run.

    Parameters
    ----------
    size:
        Number of ranks.
    timeout:
        Deadline in seconds for each blocking recv/barrier.  Defaults
        to ``config``'s, else 60.
    join_timeout:
        Deadline for the coordinating thread to join all ranks.
        Defaults to ``config``'s, else 600.
    poll_interval:
        Granularity at which blocked receives re-check the cancellation
        token and their deadline.  A caller-imposed deadline budget is
        therefore honored within one poll tick.  Defaults to
        ``config``'s, else 0.05 s.
    fault_plan:
        Optional deterministic :class:`FaultPlan` for chaos runs.
    halo_checksums:
        Verify a CRC-32 on every received halo plane.
    halo_retries:
        Retransmissions allowed per corrupted plane before abort.
    transport:
        ``"inproc"`` (default, also ``None``), ``"socket"``, or a
        ready :class:`Transport` instance.
    config:
        Optional :class:`TransportConfig`; the explicit keyword knobs
        above override its fields, which override the defaults.
    """

    def __init__(self, size: int, *, timeout: float | None = None,
                 join_timeout: float | None = None,
                 poll_interval: float | None = None,
                 fault_plan: FaultPlan | None = None,
                 halo_checksums: bool = False, halo_retries: int = 2,
                 transport: str | Transport | None = "inproc",
                 config: TransportConfig | None = None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        if halo_retries < 0:
            raise ValueError("halo_retries must be >= 0")
        base = config if config is not None else TransportConfig()
        if not isinstance(base, TransportConfig):
            raise TypeError("config must be a TransportConfig")
        self.config = base.override(timeout=timeout,
                                    join_timeout=join_timeout,
                                    poll_interval=poll_interval)
        self.size = size
        self.timeout = self.config.timeout
        self.join_timeout = self.config.join_timeout
        self.poll_interval = self.config.poll_interval
        self.halo_checksums = bool(halo_checksums)
        self.halo_retries = int(halo_retries)
        self.registry = FailureRegistry()
        self.cancel = CancellationToken()
        self.stats = ResilienceStats()
        self._injectors = [
            fault_plan.injector(r, self.stats) if fault_plan is not None
            else None
            for r in range(size)
        ]
        # -- elastic state ----------------------------------------------
        self.heal_epoch = 0
        self._heal: _HealState | None = None
        # Guards the heal state and the abort flag together, so a heal
        # never opens on an aborted world and a failure is recorded once.
        self._lock = threading.Lock()
        self._incarnations = [0] * size
        self._retired: set[int] = set()
        #: Failures absorbed by a completed/attempted heal (they never
        #: reach the registry, so a healed solve still returns normally).
        self.healed: list[RankFailure] = []
        #: Heal records, populated when an elastic supervisor attaches.
        self.heal_log: list = []
        self._elastic = None
        # -- fabric -----------------------------------------------------
        self.transport = make_transport(transport, self.config)
        self.transport.open(size)
        self._closed = False
        self._close_lock = threading.Lock()
        self._fabric = _Fabric(self, 0)

    # The current fabric's up-ring channels.
    @property
    def _up(self) -> list[Channel]:
        return self._fabric.up

    def comm(self, rank: int) -> "RankComm":
        return RankComm(self, rank, incarnation=self._incarnations[rank])

    def injector(self, rank: int):
        return self._injectors[rank]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release every transport resource and join its reader threads.

        Runs on every exit path of :meth:`DistributedMG.solve`
        (including mid-``recv`` aborts) and is idempotent; after it, the
        transport reports zero open wires and no reader threads remain.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.transport.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- failure handling ---------------------------------------------------

    @property
    def aborted(self) -> bool:
        return self.cancel.is_set()

    def abort(self, failure: RankFailure | None = None) -> None:
        """Record ``failure`` and cancel the world.

        Trips the cancellation token, breaks the barriers (the fabric's
        and any in-flight heal's), and flushes a poison pill into every
        channel so all blocked ranks wake at once.  Idempotent;
        concurrent failures all land in the registry, except a stall a
        peer reports after the world was already aborted: that wait
        timed out because of the abort's cause.
        """
        with self._lock:
            first = not self.cancel.is_set()
            if failure is not None and (first or not failure.stalled):
                self.registry.record(failure)
            self.cancel.cancel()
        if first:
            heal = self._heal
            if heal is not None:
                heal.phase1.abort()
                heal.phase2.abort()
            self._fabric.poison()

    def check_abort(self, rank: int | None = None, op: str | None = None,
                    level: int | None = None) -> None:
        if self.cancel.is_set():
            raise WorldAborted(self.registry.failures(), observer=rank,
                               op=op, level=level)

    def rank_failed(self, failure: RankFailure) -> bool:
        """Route one rank's primary failure, raised by the rank itself or
        reported by a peer whose wait timed out on it (``stalled``).

        An attached elastic supervisor gets first refusal: if it can
        heal (single-rank death, complete checkpoint, budget left), the
        failure is absorbed (recorded in ``healed``, not the registry)
        and the world lives on.  Otherwise this is a plain
        :meth:`abort`.  Returns True when the failure was healed, or is
        a stall another report already put under heal.
        """
        elastic = self._elastic
        if elastic is not None:
            try:
                if elastic.consider(self, failure):
                    return True
            except Exception as exc:  # pragma: no cover - defensive
                self.abort(RankFailure(failure.rank, op="heal",
                                       cause=exc))
                return False
        self.abort(failure)
        return False

    # -- elastic healing ----------------------------------------------------

    def attach_elastic(self, elastic) -> None:
        """Attach a heal authority (a ``WorldSupervisor``)."""
        self._elastic = elastic
        self.heal_log = elastic.records

    @property
    def retired(self) -> frozenset[int]:
        return frozenset(self._retired)

    def retire(self, rank: int) -> None:
        """``rank`` finished its program; the world can heal no rank now."""
        self._retired.add(rank)

    @property
    def healing(self) -> int | None:
        """The rank an in-flight heal is replacing, if any."""
        heal = self._heal
        return heal.rank if heal is not None else None

    def incarnation(self, rank: int) -> int:
        return self._incarnations[rank]

    def is_current(self, rank: int, incarnation: int) -> bool:
        return self._incarnations[rank] == incarnation

    def begin_heal(self, failure: RankFailure) -> int | None:
        """Open a heal epoch for ``failure.rank``; None if impossible.

        Refuses when the world is already aborted/closed or another
        heal is in flight (two concurrent deaths exceed what in-place
        replacement can express — the caller falls back to abort and
        the supervisor's ladder).  On success the old fabric is
        poisoned so every survivor wakes into :class:`HealRejoin`.
        """
        with self._lock:
            if (self.cancel.is_set() or self._closed
                    or self._heal is not None):
                return None
            epoch = self.heal_epoch + 1
            self._incarnations[failure.rank] += 1
            self.healed.append(failure)
            state = _HealState(self, epoch, failure)
            self._heal = state
            self.heal_epoch = epoch
        self.stats.bump("heals")
        self._fabric.poison()
        return epoch

    def _heal_reset(self) -> None:
        """Phase-1 barrier action: swap in a fresh fabric.

        Runs in exactly one thread while all ``size`` participants are
        parked at the quiesce barrier, so no live rank can be
        mid-operation on the old fabric; only stale threads still hold
        it, and their sends hit closed wires (swallowed) while their
        recvs wake into :class:`RankDeclaredDead`.
        """
        old = self._fabric
        self._fabric = _Fabric(self, self.heal_epoch)
        old.close()

    def _heal_commit(self) -> None:
        """Phase-2 barrier action: publish the heal as complete."""
        with self._lock:
            state = self._heal
            self._heal = None
        self.stats.bump("heals_completed")
        if self._elastic is not None and state is not None:
            self._elastic.heal_completed(state.epoch)


class RankComm:
    """One rank's view of the world — one *incarnation* of one rank."""

    def __init__(self, world: World, rank: int, *, incarnation: int = 0,
                 joining: bool = False):
        self.world = world
        self.rank = rank
        #: Which incarnation of this rank we are.  A stale thread whose
        #: incarnation the world has moved past must exit silently.
        self.incarnation = incarnation
        #: True for a freshly spawned replacement rank that still has to
        #: pass the two-phase rejoin barrier before doing any work.
        self.joining = joining
        #: Current V-cycle iteration, maintained by the rank program for
        #: failure provenance.
        self.iteration: int | None = None
        # Heal epoch this comm has rejoined up to; a world epoch beyond
        # it means "roll back and rejoin".
        self._epoch = world.heal_epoch

    @property
    def size(self) -> int:
        return self.world.size

    def check(self, op: str | None = None, level: int | None = None) -> None:
        """Gate before every communication step.

        Order matters: a world abort outranks everything; then a stale
        incarnation must exit (never rejoin — its replacement already
        did); then a pending heal epoch rolls a survivor back.
        """
        w = self.world
        w.check_abort(rank=self.rank, op=op, level=level)
        if not w.is_current(self.rank, self.incarnation):
            raise RankDeclaredDead(self.rank, incarnation=self.incarnation)
        if w.heal_epoch > self._epoch:
            raise HealRejoin(w.heal_epoch)

    def _fab(self, op: str | None = None,
             level: int | None = None) -> _Fabric:
        """Abort/heal check, then capture the current fabric atomically."""
        self.check(op=op, level=level)
        return self.world._fabric

    def barrier(self, op: str = "barrier") -> None:
        w = self.world
        fab = self._fab(op=op)
        fab.arrivals[self.rank] += 1
        start = time.monotonic()
        try:
            fab.barrier.wait(timeout=w.timeout)
        except threading.BrokenBarrierError as exc:
            # Broken by a world abort (peer failed: re-raise with full
            # provenance), a heal epoch opening (roll back and rejoin),
            # or a genuine deadline expiry.  A rank blocked in a recv is
            # no culprit: that wait's own timeout names whom it awaits.
            self.check(op=op)
            mine = fab.arrivals[self.rank]
            raise BarrierTimeout(
                self.rank, op=op, timeout=w.timeout,
                elapsed=time.monotonic() - start,
                failures=w.registry.failures(),
                missing=[r for r, n in enumerate(fab.arrivals)
                         if n < mine and fab.waits[r] is None]) from exc

    # -- ring halo exchange ---------------------------------------------------

    def exchange_halos(self, first_interior: np.ndarray,
                       last_interior: np.ndarray, *,
                       op: str = "halo-exchange", level: int | None = None):
        """Send boundary planes around the periodic ring; returns the
        (lower, upper) halo planes for this rank."""
        r, p = self.rank, self.size
        if p == 1:
            return last_interior, first_interior
        fab = self._fab(op=op, level=level)
        fab.up[r].send(last_interior, op=op, level=level)    # to r+1: lower halo
        fab.down[r].send(first_interior, op=op, level=level)  # to r-1: upper halo
        lower = self._recv(fab, fab.up[(r - 1) % p], op, level)
        upper = self._recv(fab, fab.down[(r + 1) % p], op, level)
        return lower, upper

    def _recv(self, fab: _Fabric, ch: Channel, op: str,
              level: int | None):
        """One halo plane from ``ch.src``.

        A deadline that expires while ``src`` is itself blocked in an
        older recv is that wait's symptom (a plane it is owed went
        missing, or its own sender stalled): this rank waits on, and the
        older wait's timeout names the rank it waits for.
        """
        ticket = fab.waits[self.rank] = next(fab.tickets)
        while True:
            try:
                plane = ch.recv(self, op=op, level=level)
            except HaloTimeout:
                peer = fab.waits[ch.src]
                if peer is None or peer > ticket:
                    raise
                continue
            fab.waits[self.rank] = None
            return plane

    # -- collectives ------------------------------------------------------------

    def gather_scatter(self, value, fn, op: str):
        """Rank 0 maps every rank's ``value``, in rank order, to one
        answer per rank with ``fn``; each rank returns its own.  What a
        slot points at (a rank's slab, rank 0's pooled grids) is written
        again only after the next collective's first barrier, which a
        rank passes only once it has read its answer."""
        fab = self._fab(op=op)
        slots = fab.gather_slots
        slots[self.rank] = value
        self.barrier(op=op)
        if self.rank == 0:
            slots[:] = fn(list(slots))
        self.barrier(op=op)
        # Drop the reference, so the world does not keep the answer alive.
        answer, slots[self.rank] = slots[self.rank], None
        return answer

    def allgather(self, value, op: str = "allgather"):
        """Every rank contributes ``value``; all receive the rank-ordered
        list (deterministic)."""
        return self.gather_scatter(value, lambda parts: [parts] * self.size,
                                   op=op)

    def allreduce_sum(self, value: float) -> float:
        parts = self.allgather(float(value), op="allreduce")
        return float(sum(parts))  # rank order: deterministic

    # -- elastic rejoin ---------------------------------------------------------

    def rejoin(self, restore) -> None:
        """Meet the world at the two-phase heal barrier.

        Phase 1 quiesces all ``size`` participants (fabric swap runs in
        the barrier action); ``restore()`` then reloads this rank's
        slabs from the agreed checkpoint; phase 2 proves every restore
        landed before anyone resumes.  On success this comm is current
        for the new epoch.
        """
        w = self.world
        state = w._heal
        if state is None:
            w.check_abort(rank=self.rank, op="rejoin")
            raise WorldAborted(w.registry.failures(), observer=self.rank,
                               op="rejoin")
        for op, bar in (("heal-quiesce", state.phase1),
                        ("heal-commit", state.phase2)):
            start = time.monotonic()
            try:
                bar.wait(timeout=w.timeout)
            except threading.BrokenBarrierError as exc:
                w.check_abort(rank=self.rank, op=op)
                raise BarrierTimeout(
                    self.rank, op=op, timeout=w.timeout,
                    elapsed=time.monotonic() - start,
                    failures=w.registry.failures()) from exc
            if op == "heal-quiesce":
                restore()
        self._epoch = state.epoch
        self.joining = False


# ---------------------------------------------------------------------------
# Slab helpers.
# ---------------------------------------------------------------------------

def _local_comm3(slab: np.ndarray, comm: RankComm,
                 op: str = "comm3") -> np.ndarray:
    """Refresh a slab's periodic borders: local x/y faces, ring-exchanged
    z halos; returns ``slab`` like its serial siblings.

    Order matches the serial ``comm3`` (x, then y, then z): the z planes
    are exchanged after the local face copies, so the received halos
    carry their owner's corrected x/y borders — corner values come out
    exactly as in the sequential loop nest.
    """
    ghost_fill(slab, axes=(2, 1))
    level = (slab.shape[1] - 2).bit_length() - 1
    slab[0], slab[-1] = comm.exchange_halos(slab[1].copy(), slab[-2].copy(),
                                            op=op, level=level)
    return slab


def _slab_from_full(full: np.ndarray, z0: int, nzl: int,
                    ws=None, name: str = "slab") -> np.ndarray:
    """Cut this rank's slab (with halo planes) out of a full grid."""
    slab = _scratch(ws, name, (nzl + 2,) + full.shape[1:])
    np.copyto(slab, full[z0 : z0 + nzl + 2])
    return slab


def _assemble_full(parts: list[np.ndarray], n: int,
                   ws=None) -> np.ndarray:
    """Rebuild a full extended grid from rank-ordered interior slabs.

    The result (the pooled buffer when ``ws`` is given) is fully
    overwritten: every interior plane comes from one of the slabs,
    ghosts from :func:`comm3`.
    """
    full = _scratch(ws, "assemble", (n + 2,) * 3)
    z = 1
    for part in parts:
        full[z : z + part.shape[0]] = part
        z += part.shape[0]
    return comm3(full)


# ---------------------------------------------------------------------------
# The SPMD solver.
# ---------------------------------------------------------------------------

class DistributedMG:
    """NAS MG across ``nranks`` SPMD ranks with slab decomposition.

    Resilience knobs (all optional, all defaulting to the seed
    behaviour): ``timeout``/``join_timeout`` govern blocking deadlines,
    ``fault_plan`` injects deterministic chaos, ``halo_checksums`` (with
    ``halo_retries``) verifies halo integrity, and ``solve``'s
    ``checkpoint``/``restart`` arguments enable snapshot-and-resume.
    ``transport``/``config`` pick and tune the communication substrate;
    ``heal`` (a :class:`~repro.runtime.supervisor.HealPolicy`, or an int
    heal budget) enables elastic in-place rank replacement from
    checkpoint, for a crashed rank and for one a peer's timeout names.
    After each ``solve`` the constructed :class:`World` stays readable
    as ``last_world`` (stats, failure registry, heal log).
    """

    def __init__(self, nranks: int, *, timeout: float | None = None,
                 join_timeout: float | None = None,
                 poll_interval: float | None = None,
                 fault_plan: FaultPlan | None = None,
                 halo_checksums: bool = False, halo_retries: int = 2,
                 workspace: bool = False, monitor=None,
                 transport: str | Transport | None = "inproc",
                 config: TransportConfig | None = None,
                 heal=None):
        if nranks < 1 or nranks & (nranks - 1):
            raise ValueError("nranks must be a power of two")
        self.nranks = nranks
        self.timeout = timeout
        self.join_timeout = join_timeout
        self.poll_interval = poll_interval
        self.fault_plan = fault_plan
        self.halo_checksums = halo_checksums
        self.halo_retries = halo_retries
        self.transport = transport
        self.config = config
        self.heal = heal
        self.last_world: World | None = None
        # workspace=True: each rank gets a persistent scratch pool so
        # repeated solves run the timed section allocation-free.  Rank
        # 0 solves the bottom once in its own pool; gather_scatter's
        # barriers keep every pooled grid one rank reads of another
        # unwritten until it is read.  Halo-plane messages stay
        # per-exchange copies: ownership transfers to the receiver.
        self.workspaces = None
        if workspace:
            from repro.perf.workspace import Workspace

            self.workspaces = [Workspace(f"spmd-rank{r}")
                               for r in range(nranks)]
        #: Rank 0's per-operator timer (any ``add(section, dt)``).
        self.monitor = monitor

    def _heal_policy(self):
        """Normalize the ``heal`` knob to a HealPolicy or None."""
        if self.heal is None:
            return None
        if isinstance(self.heal, int) and not isinstance(self.heal, bool):
            from .supervisor.policy import HealPolicy

            return HealPolicy(max_heals=self.heal)
        return self.heal

    def solve(self, size_class: str | SizeClass, nit: int | None = None, *,
              v: np.ndarray | None = None,
              checkpoint: CheckpointStore | None = None,
              checkpoint_every: int = 1,
              restart: bool = False,
              on_iteration=None) -> MGResult:
        """The timed section across the ranks.  ``v`` is the full
        right-hand side, of which each rank copies its slab (``None``:
        every rank builds it with ``zran3``, which is set-up — see
        :func:`repro.core.mg.checked_rhs`)."""
        sc = get_class(size_class) if isinstance(size_class, str) else size_class
        if v is not None:
            checked_rhs(sc, v)
        # The top two levels are distributed, with at least two planes
        # per rank; rank 0 solves the levels below them.
        if (1 << (sc.lt - 1)) < 2 * self.nranks:
            raise ValueError(
                f"class {sc.name} ({sc.nx}^3) is too small for "
                f"{self.nranks} ranks (needs nx >= 4 * nranks)"
            )
        if restart and checkpoint is None:
            raise CheckpointError("restart=True requires a checkpoint store")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        iters = sc.nit if nit is None else nit
        heal_policy = self._heal_policy()
        if heal_policy is not None and heal_policy.max_heals > 0 \
                and checkpoint is None:
            # Healing restores from checkpoints; give the world an
            # in-memory store when the caller did not bring one.
            checkpoint = CheckpointStore()
        world = World(self.nranks, timeout=self.timeout,
                      join_timeout=self.join_timeout,
                      poll_interval=self.poll_interval,
                      fault_plan=self.fault_plan,
                      halo_checksums=self.halo_checksums,
                      halo_retries=self.halo_retries,
                      transport=self.transport,
                      config=self.config)
        self.last_world = world
        results: list = [None] * self.nranks
        elastic = None
        if heal_policy is not None and heal_policy.max_heals > 0:
            from .supervisor.elastic import WorldSupervisor

            elastic = WorldSupervisor(heal_policy, store=checkpoint)
            elastic.spawner = self._make_spawner(
                elastic, world, sc, iters, v, results, checkpoint,
                checkpoint_every, on_iteration)
            world.attach_elastic(elastic)
        try:
            pool: list[tuple[int, int, threading.Thread]] = []
            for r in range(self.nranks):
                t = threading.Thread(
                    target=self._rank_main,
                    args=(world.comm(r), sc, iters, v, results, checkpoint,
                          checkpoint_every, restart, on_iteration),
                    name=f"mg-rank-{r}",
                    daemon=True,
                )
                pool.append((r, 0, t))
                t.start()
            # Elastic worlds grow replacement threads mid-solve, so the
            # join loop re-lists the living set each tick instead of
            # walking a fixed list.  Stale incarnations (zombies that
            # were declared dead and replaced, possibly still sleeping
            # out a stall) are excluded: they exit on their own, cannot
            # touch results, and must not make a healed solve look hung.
            deadline = time.monotonic() + world.join_timeout
            while True:
                live = [(r, i, t)
                        for r, i, t in self._all_threads(pool, elastic)
                        if t.is_alive() and world.is_current(r, i)]
                if not live:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                live[0][2].join(timeout=min(remaining, 0.2))
            stuck = [(r, i, t)
                     for r, i, t in self._all_threads(pool, elastic)
                     if t.is_alive() and world.is_current(r, i)]
            if stuck:
                for r, _i, _t in stuck:
                    world.abort(RankFailure(
                        r, op="join",
                        cause=TimeoutError(
                            f"rank thread still alive after "
                            f"{world.join_timeout:g}s"),
                    ))
                # Give the woken ranks a moment to unwind before reporting.
                for _r, _i, t in stuck:
                    t.join(timeout=1.0)
            if world.registry:
                raise world.registry.composite()
            if any(res is None for res in results):
                raise RuntimeError("an SPMD rank did not finish")
        finally:
            world.close()
        rnm2, rnmu, u_full, r_full = results[0]
        return MGResult(sc, rnm2, rnmu, u_full, r_full)

    @staticmethod
    def _all_threads(pool, elastic) -> list[tuple[int, int,
                                                  threading.Thread]]:
        threads = list(pool)
        if elastic is not None:
            threads.extend(elastic.threads())
        return threads

    def _make_spawner(self, elastic, world, sc, iters, v, results, store,
                      every, on_iteration):
        """Build the replacement-rank factory the heal authority calls."""

        def spawn(rank: int, incarnation: int) -> threading.Thread:
            if self.workspaces is not None:
                # The dead incarnation (or a zombie of it) may still
                # hold buffers from the old pool; give the replacement
                # a fresh one so they can never race.
                from repro.perf.workspace import Workspace

                self.workspaces[rank] = Workspace(
                    f"spmd-rank{rank}-i{incarnation}")
            comm = RankComm(world, rank, incarnation=incarnation,
                            joining=True)
            t = threading.Thread(
                target=self._rank_main,
                args=(comm, sc, iters, v, results, store, every, False,
                      on_iteration),
                name=f"mg-rank-{rank}-i{incarnation}",
                daemon=True,
            )
            t.start()
            return t

        return spawn

    # -- per-rank program -------------------------------------------------------

    def _rank_main(self, comm: RankComm, sc: SizeClass, iters: int,
                   v: np.ndarray | None, results: list,
                   store: CheckpointStore | None,
                   every: int, restart: bool, on_iteration) -> None:
        world = comm.world
        try:
            res = self._run_rank(comm, sc, iters, v, store, every, restart,
                                 on_iteration)
            if world.is_current(comm.rank, comm.incarnation):
                results[comm.rank] = res
                world.retire(comm.rank)
        except RankDeclaredDead:
            # We are a zombie: our rank was declared dead and replaced
            # while we stalled.  Exit without touching anything.
            return
        except WorldAborted:
            # A casualty of some other rank's recorded failure — don't
            # re-record, just leave the slot empty.
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            if not world.is_current(comm.rank, comm.incarnation):
                return  # stale thread failing post-replacement: irrelevant
            if isinstance(exc, RankFailure):
                failure = exc
            else:
                failure = RankFailure(
                    comm.rank,
                    op=getattr(exc, "op", None),
                    level=getattr(exc, "level", None),
                    iteration=getattr(exc, "iteration", comm.iteration),
                    cause=exc,
                )
            world.rank_failed(failure)

    def _plane_range(self, k: int, rank: int) -> tuple[int, int]:
        nz = 1 << k
        per = nz // self.nranks
        return rank * per, per

    def _run_rank(self, comm: RankComm, sc: SizeClass, iters: int,
                  v_full: np.ndarray | None,
                  store: CheckpointStore | None, every: int, restart: bool,
                  on_iteration=None):
        lt = sc.lt
        rank = comm.rank
        world = comm.world

        # Replicated, deterministic setup unless the caller prepared the
        # right-hand side; each rank keeps (a copy of) its slab.
        if v_full is None:
            v_full = zran3(sc.nx)
        z0, nzl = self._plane_range(lt, rank)
        v = _slab_from_full(v_full, z0, nzl)

        u: np.ndarray | None = None
        r0: np.ndarray | None = None
        start_it = 0
        if not comm.joining:
            if restart:
                latest = store.latest()
                if latest is None:
                    raise CheckpointError(
                        "no complete checkpoint to restart from")
                snapshot_ranks = store.world_size(latest)
                if snapshot_ranks != self.nranks:
                    raise CheckpointError(
                        f"checkpoint {latest} was taken with "
                        f"{snapshot_ranks} ranks; cannot restart with "
                        f"{self.nranks}"
                    )
                state = store.restore(latest, rank)
                u = np.array(state.u, copy=True)
                r0 = np.array(state.r, copy=True)
                start_it = latest
            else:
                u = np.zeros_like(v)

        # Heal loop: a surviving rank unwinds to here on HealRejoin,
        # restores the agreed snapshot at the two-phase barrier, and
        # re-enters the iteration loop; a replacement rank (joining)
        # takes the rejoin path immediately, before any work.  A wait
        # that timed out on one peer reports that peer as the failed
        # rank; if the world heals it, this rank rejoins too.
        while True:
            try:
                if comm.joining:
                    raise HealRejoin(world.heal_epoch)
                return self._rank_solve(comm, sc, iters, start_it, u, r0, v,
                                        store, every, on_iteration)
            except HealRejoin:
                pass
            except (HaloTimeout, BarrierTimeout) as exc:
                if exc.peer is None:
                    raise
                stalled = RankFailure(exc.peer, op=exc.op,
                                      level=getattr(exc, "level", None),
                                      iteration=comm.iteration, cause=exc)
                if not world.rank_failed(stalled):
                    raise WorldAborted(world.registry.failures(),
                                       observer=rank, op=exc.op) from exc
            if store is None:
                raise CheckpointError(
                    "heal rejoin requires a checkpoint store")
            restored: dict = {}

            def _restore() -> None:
                # Runs between the heal phases: every participant
                # reads the same complete snapshot (no commits can
                # land while the world is parked at the barriers).
                latest = store.latest()
                if latest is None:
                    raise CheckpointError(
                        "heal rejoin: no complete checkpoint")
                state = store.restore(latest, rank)
                restored["u"] = np.array(state.u, copy=True)
                restored["r"] = np.array(state.r, copy=True)
                restored["it"] = latest

            comm.rejoin(_restore)
            u = restored["u"]
            r0 = restored["r"]
            start_it = restored["it"]

    def _rank_solve(self, comm: RankComm, sc: SizeClass, iters: int,
                    start_it: int, u: np.ndarray, r0: np.ndarray | None,
                    v: np.ndarray, store: CheckpointStore | None,
                    every: int, on_iteration=None):
        a = A_COEFFS
        c = S_COEFFS_A if sc.smoother == "a" else S_COEFFS_B
        lt = sc.lt
        rank = comm.rank
        world = comm.world
        injector = world.injector(rank)
        ws = self.workspaces[rank] if self.workspaces is not None else None
        kernels = self._kernels(comm, ws, self.monitor if rank == 0 else None)

        def _interior_sq_sum(ri: np.ndarray) -> float:
            tmp = _scratch(ws, "norm.tmp", ri.shape)
            np.multiply(ri, ri, out=tmp)
            return float(np.sum(tmp))

        r_levels: dict[int, np.ndarray] = {}
        if r0 is not None:
            r_levels[lt] = r0
        else:
            r_levels[lt] = kernels.resid(u, v, a)

        for it in range(start_it, iters):
            comm.iteration = it
            comm.check(op="iteration")
            if injector is not None:
                injector.iteration_start(it)
                # A slow-fault sleep (or any long stall) may have ended
                # with this incarnation declared dead and replaced; a
                # zombie must find out *before* it can touch the
                # checkpoint store or the fabric.
                comm.check(op="iteration")
            if store is not None and it % every == 0:
                store.put(it, rank, u, r_levels[lt])
                comm.barrier(op="checkpoint-commit")
                store.commit(it, self.nranks)
                world.stats.bump("checkpoints")
            vcycle(kernels, u, v, r_levels, a, c, lt, lt - 1)
            r_levels[lt] = kernels.resid(u, v, a, out=r_levels[lt])
            if on_iteration is not None:
                # Residual-trajectory hook (the supervisor's numerical
                # watchdog): every rank contributes to the allreduce so
                # the collective stays balanced, rank 0 invokes the
                # callback; an exception it raises aborts the world at
                # this iteration boundary.
                ri = r_levels[lt][1:-1, 1:-1, 1:-1]
                total_sq = comm.allreduce_sum(_interior_sq_sum(ri))
                if comm.rank == 0:
                    on_iteration(it, float(np.sqrt(total_sq / sc.nx ** 3)))
        comm.iteration = None

        def finish(parts):
            # Rank 0 sums the norm's partial sums in rank order and
            # assembles the full fields for the caller.
            sq, amax, u_parts, r_parts = zip(*parts)
            return [(float(np.sqrt(sum(sq) / sc.nx ** 3)), max(amax),
                     _assemble_full(u_parts, sc.nx),
                     _assemble_full(r_parts, sc.nx))] * comm.size

        ri = r_levels[lt][1:-1, 1:-1, 1:-1]
        return comm.gather_scatter((_interior_sq_sum(ri),
                                    float(np.max(np.abs(ri))), u[1:-1],
                                    r_levels[lt][1:-1]), finish, op="finish")

    # -- the kernel table -----------------------------------------------------------

    def _kernels(self, comm: RankComm, ws=None, mon=None) -> MGKernels:
        """One rank's table for :func:`repro.core.mg.vcycle`.

        On the distributed levels these are the serial kernels on the
        rank's z-slab, with the slab border refresh (local x/y faces,
        ring-exchanged z halos) as their ghost fill.  ``coarsest``
        gathers level ``lt - 1``'s residual to rank 0, which alone runs
        the serial :func:`~repro.core.mg.correction` on the full grid;
        every rank copies its slabs of the residual and correction.
        ``mon`` times both halves.
        """
        serial = numpy_kernels(ws)
        if mon is not None:
            serial = timed_kernels(serial, mon)

        def halos(op: str):
            return partial(_local_comm3, comm=comm, op=op)

        resid = partial(mg.resid, ws=ws, boundary=halos("resid"))
        psinv = partial(mg.psinv, ws=ws, boundary=halos("psinv"))
        interp_halos = halos("interp")

        def interp_add(z, u):
            # Fine planes 2j and 2j+1 come from coarse rows j and j+1;
            # the coarse slab's upper halo provides the j+1 row at the
            # slab edge.  Rows 0..nzl_c of the slab array (halos at 0
            # and nzl_c+1) produce the owned fine planes 1..2*nzl_c plus
            # partial sums in the halo planes, which the trailing
            # exchange overwrites correctly.
            return interp_halos(mg.interp_add(z, u, ws=ws))

        def coarsest(r, a, c, switch):
            def solve_once(parts):  # on rank 0 only
                r_full = {switch: _assemble_full(parts, 1 << switch, ws)}
                z_full = correction(serial, r_full, a, c, switch)
                return [(r_full[switch], z_full)] * comm.size

            r_full, z_full = comm.gather_scatter(r[switch][1:-1], solve_once,
                                                 op="coarsest")
            z0, nzl = self._plane_range(switch, comm.rank)
            r[switch] = _slab_from_full(r_full, z0, nzl, ws, "dvc.rslab")
            return _slab_from_full(z_full, z0, nzl, ws, "dvc.uslab")

        slab = replace(
            serial, resid=resid, psinv=psinv, interp_add=interp_add,
            rprj3=partial(mg.rprj3, ws=ws, boundary=halos("rprj3")),
            coarsest=coarsest)
        return slab if mon is None else timed_kernels(slab, mon)
