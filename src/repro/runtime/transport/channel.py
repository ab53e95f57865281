"""Tagged, checksummed, fault-injected channel over a raw :class:`Wire`.

``Channel`` carries everything that used to live in ``_Channel`` in
``spmd.py`` — MPI-style (op, level) tag matching, CRC-32 halo checksums
with bounded replay-buffer retransmission, fault-injection hooks, and
cancellation-aware blocking receives — but is now transport-agnostic:
the same code runs over in-process queues and loopback TCP sockets.
"""

from __future__ import annotations

import queue
import threading
import time

from ..resilience import (
    HaloCorruption,
    HaloTimeout,
    SealedMessage,
    WorldAborted,
    plane_checksum,
)
from .base import POISON, Wire, WireClosed

__all__ = ["Channel", "REPLAY_DEPTH"]

#: Pristine payloads kept per channel for checksum retransmission.
REPLAY_DEPTH = 8


class Channel:
    """One-directional tagged message link from ``src`` to ``dst``.

    Sends pass through the source rank's fault injector (if any); when
    the world runs with halo checksums, pristine payloads are parked in
    a bounded replay buffer so a corrupted delivery can be retransmitted.

    A send that finds its wire closed is swallowed once the channel is
    poisoned — by a world abort, or by a heal that retires its fabric:
    the sender is a zombie about to observe its own replacement — while
    a closed-wire send on a live channel is a genuine bug and propagates.

    The channel holds what it reads of its world — the cancellation
    token, failure registry, statistics and transport config, the
    source rank's fault injector and the checksum settings — and not
    the world itself, so that no reference cycle keeps a finished world
    alive until the cyclic garbage collector runs.
    """

    def __init__(self, src: int, dst: int, wire: Wire, *, cancel, registry,
                 stats, config, injector, halo_checksums: bool,
                 halo_retries: int):
        self.src, self.dst, self._wire = src, dst, wire
        self._cancel, self._registry, self._stats = cancel, registry, stats
        self._config, self._injector = config, injector
        self._checksums, self._retries = halo_checksums, halo_retries
        self._seq = 0
        self._replay: dict[int, object] = {}
        self._lock = threading.Lock()
        self._poisoned = False

    def send(self, payload, op: str | None = None,
             level: int | None = None) -> None:
        checksum = plane_checksum(payload) if self._checksums else None
        with self._lock:
            seq = self._seq
            self._seq += 1
            if self._checksums:
                self._replay[seq] = payload
                for stale in [s for s in self._replay
                              if s <= seq - REPLAY_DEPTH]:
                    del self._replay[stale]
        delay = 0.0
        injector = self._injector
        if injector is not None:
            action, mutated, delay = injector.on_message(op, level, payload)
            if action == "drop":
                return
            if action == "corrupt":
                payload = mutated
        if delay > 0.0:
            time.sleep(delay)
        try:
            self._wire.put(SealedMessage(seq, payload, checksum, op, level,
                                         self.src))
        except WireClosed:
            # A send racing an abort or a heal's fabric swap: the sender
            # is on its way out (it will observe the abort / heal epoch
            # at its next check), so dropping the message is safe.  On a
            # live fabric a closed wire is a real fault — propagate.
            if self._poisoned or self._cancel.is_set():
                return
            raise
        self._stats.bump("sends")

    def recv(self, waiter, op: str | None = None, level: int | None = None,
             timeout: float | None = None):
        """Blocking receive with cancellation, deadline and integrity.

        ``waiter`` is the receiving ``RankComm``; its ``check`` runs
        between waits, noticing a world abort, the rank's own
        replacement and a pending heal epoch.  A quiet deadline becomes
        :class:`HaloTimeout` (wrapping the raw ``queue.Empty``) naming
        ``src``, the peer it waited on, with the elapsed wall time and
        the failure registry's contents; a checksum mismatch triggers
        bounded retransmission before :class:`HaloCorruption` escalates.

        Messages whose ``(op, level)`` tag differs from what this recv
        is waiting for are discarded (MPI-style tag matching): a tag
        mismatch means an earlier message on this link was lost, and
        consuming the stray plane would silently desynchronise the
        ring — starving into :class:`HaloTimeout` is the honest outcome.
        """
        rank = waiter.rank
        timeout = self._config.timeout if timeout is None else timeout
        start = time.monotonic()
        deadline = start + timeout
        while True:
            waiter.check(op=op, level=level)
            remaining = deadline - time.monotonic()
            try:
                msg = self._wire.get(timeout=min(self._config.poll_interval,
                                                 max(remaining, 0.001)))
            except queue.Empty as exc:
                if time.monotonic() >= deadline:
                    raise HaloTimeout(
                        rank, op=op, level=level, src=self.src,
                        timeout=timeout,
                        elapsed=time.monotonic() - start,
                        failures=self._registry.failures()) from exc
                continue
            if msg is POISON:
                waiter.check(op=op, level=level)
                # Poison without an abort flag cannot happen in normal
                # operation; treat it as an abort with no provenance.
                raise WorldAborted(self._registry.failures(), observer=rank,
                                   op=op, level=level)
            if msg.op != op or msg.level != level:
                self._stats.bump("tag_mismatches")
                continue
            return self._verified_payload(msg, rank)

    def _verified_payload(self, msg: SealedMessage, rank: int):
        if msg.checksum is None:
            return msg.payload
        payload = msg.payload
        retries = 0
        while plane_checksum(payload) != msg.checksum:
            self._stats.bump("checksum_failures")
            if retries >= self._retries:
                raise HaloCorruption(rank, level=msg.level, src=msg.src,
                                     retries=retries)
            with self._lock:
                pristine = self._replay.get(msg.seq)
            if pristine is None:
                raise HaloCorruption(rank, level=msg.level, src=msg.src,
                                     retries=retries)
            self._stats.bump("retransmits")
            payload = pristine
            retries += 1
        return payload

    def poison(self) -> None:
        self._poisoned = True
        self._wire.poison(POISON)

    def close(self) -> None:
        self._wire.close()
