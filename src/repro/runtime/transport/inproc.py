"""In-process transport: one ``queue.Queue`` per wire (the seed behaviour)."""

from __future__ import annotations

import queue
import threading

from .base import Transport, TransportConfig, Wire, WireClosed

__all__ = ["InProcQueueWire", "InProcTransport"]


class InProcQueueWire(Wire):
    """A wire backed by an unbounded ``queue.Queue``.

    ``close`` only flips a flag: queued payloads stay readable (a
    receiver draining a closed wire is fine) but new ``put`` calls
    raise :class:`WireClosed` so a stale sender — e.g. a zombie rank
    from a pre-heal fabric — cannot desynchronise a live receiver.
    """

    def __init__(self, label: str):
        super().__init__(label)
        self._q: queue.Queue = queue.Queue()
        self._closed = threading.Event()

    def put(self, payload: object) -> None:
        if self._closed.is_set():
            raise WireClosed(f"wire {self.label} is closed")
        self._q.put(payload)

    def get(self, timeout: float) -> object:
        return self._q.get(timeout=timeout)

    def poison(self, sentinel: object) -> None:
        self._q.put(sentinel)

    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class InProcTransport(Transport):
    """Transport for ranks living as threads in one process."""

    name = "inproc"

    def __init__(self, config: TransportConfig | None = None):
        super().__init__(config)

    def _create_wire(self, src: int, dst: int, lane: str) -> Wire:
        return InProcQueueWire(f"inproc:{src}->{dst}/{lane}")
