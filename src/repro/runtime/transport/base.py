"""Transport abstraction for the SPMD runtime's communication fabric.

The seed runtime hard-wired its message links to in-process
``queue.Queue`` objects inside ``_Channel``.  This module extracts the
substrate behind two small interfaces so a :class:`~repro.runtime.spmd.World`
can be woven over different media (and, for elastic healing, re-woven
mid-solve):

* :class:`Wire` — one raw, one-directional FIFO between two ranks.  A
  wire moves opaque payload objects; it knows nothing about tags,
  checksums or fault injection (those live in
  :class:`~repro.runtime.transport.channel.Channel`, which is
  transport-agnostic).  ``get`` raises :class:`queue.Empty` on a quiet
  timeout so every transport shares one "nothing yet" signal.
* :class:`Transport` — a factory and registry of wires for one world.
  ``wire(src, dst, lane)`` opens a link, ``close()`` tears every wire
  down (joining any service threads), and ``open_wires()`` lets tests
  assert nothing leaked.

Two implementations ship: :class:`~.inproc.InProcTransport` (the seed
behaviour: a ``queue.Queue`` per link) and
:class:`~.socket.LocalSocketTransport` (TCP over localhost with framed,
CRC-guarded pickles) — the latter proving the interface spans hosts in
principle; the PGAS/UPC address-mapping split (local vs remote views)
is exactly the boundary this interface encodes.

All timeout/poll knobs are carried by one :class:`TransportConfig`
dataclass whose fields default to the ``DEFAULT_*`` constants below.
"""

from __future__ import annotations

import abc
import dataclasses
import threading
from dataclasses import dataclass

__all__ = [
    "DEFAULT_TIMEOUT",
    "DEFAULT_JOIN_TIMEOUT",
    "DEFAULT_POLL_INTERVAL",
    "DEFAULT_CONNECT_TIMEOUT",
    "POISON",
    "TransportError",
    "WireClosed",
    "TransportConfig",
    "Wire",
    "Transport",
    "make_transport",
]

#: Default deadline for one blocking recv/barrier (seconds).
DEFAULT_TIMEOUT = 60.0
#: Default deadline for joining the whole world (seconds).
DEFAULT_JOIN_TIMEOUT = 600.0
#: Default granularity at which blocked operations poll the cancellation
#: token / heal epoch.
DEFAULT_POLL_INTERVAL = 0.05
#: Default deadline for establishing one socket wire (seconds).
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Sentinel flushed into a wire's local delivery queue on abort/heal so
#: blocked receivers wake immediately instead of waiting out a poll
#: interval.  Never travels over a medium — ``Wire.poison`` injects it
#: receiver-side, so identity comparison stays valid on every transport.
POISON = object()


class TransportError(RuntimeError):
    """A transport-layer failure (closed transport, broken wire, ...)."""


class WireClosed(TransportError):
    """An operation hit a wire that has been closed."""


@dataclass(frozen=True)
class TransportConfig:
    """Every timeout/poll knob of the communication fabric, in one place.

    Validated at construction.  Explicit ``World(timeout=...)``-style
    keywords override config fields, which override the module
    defaults (see :meth:`override`) — one precedence rule for both
    transports.
    """

    #: Deadline for one blocking recv/barrier, seconds.
    timeout: float = DEFAULT_TIMEOUT
    #: Deadline for the coordinator to join the whole world, seconds.
    join_timeout: float = DEFAULT_JOIN_TIMEOUT
    #: Granularity at which blocked operations re-check the cancellation
    #: token, heal epoch, and their own deadline, seconds.
    poll_interval: float = DEFAULT_POLL_INTERVAL
    #: Deadline for establishing one wire (socket transport), seconds.
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT
    #: Connection attempts per wire before the transport gives up.
    connect_retries: int = 3
    #: Backoff between connection attempts, seconds (doubled per retry).
    connect_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.join_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.connect_retries < 1:
            raise ValueError("connect_retries must be >= 1")
        if self.connect_backoff < 0:
            raise ValueError("connect_backoff must be >= 0")

    def override(self, **kwargs: float | None) -> "TransportConfig":
        """A copy with every non-``None`` keyword replacing its field."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **updates) if updates else self


class Wire(abc.ABC):
    """One raw, one-directional FIFO link between two ranks.

    The contract every transport must honour:

    * :meth:`put` enqueues one opaque payload (never blocks long);
    * :meth:`get` dequeues one payload or raises :class:`queue.Empty`
      after ``timeout`` seconds of silence;
    * :meth:`probe` reports whether a payload is already deliverable;
    * :meth:`poison` injects a sentinel *receiver-side* (it never
      travels over the medium), waking a blocked :meth:`get`;
    * :meth:`close` releases the wire's resources — sockets, service
      threads — idempotently; a :meth:`put` on a closed wire raises
      :class:`WireClosed`.
    """

    def __init__(self, label: str):
        self.label = label

    @abc.abstractmethod
    def put(self, payload: object) -> None:
        """Enqueue one payload for the receiving end."""

    @abc.abstractmethod
    def get(self, timeout: float) -> object:
        """Dequeue one payload; raises ``queue.Empty`` on timeout."""

    @abc.abstractmethod
    def probe(self) -> bool:
        """True when a payload is already waiting."""

    @abc.abstractmethod
    def poison(self, sentinel: object) -> None:
        """Inject ``sentinel`` into the local delivery queue."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release resources; idempotent."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True once :meth:`close` has run."""


class Transport(abc.ABC):
    """Factory and registry of :class:`Wire` links for one world.

    A transport is opened once per world (``open(size)``), hands out
    wires on demand (``wire(src, dst, lane)``), and must release every
    wire — including any service threads they spawned — on ``close()``.
    Elastic healing re-weaves the fabric mid-solve by closing the old
    channels and requesting fresh wires, so ``wire`` must keep working
    after earlier wires were individually closed.
    """

    #: Human-readable transport name (CLI / report strings).
    name = "abstract"

    def __init__(self, config: TransportConfig | None = None):
        self.config = config if config is not None else TransportConfig()
        self._lock = threading.Lock()
        self._wires: list[Wire] = []
        self._closed = False
        self.size: int | None = None

    def open(self, size: int) -> None:
        """Prepare endpoints for ranks ``0..size-1``."""
        if size < 1:
            raise ValueError("transport size must be >= 1")
        self.size = size

    @abc.abstractmethod
    def _create_wire(self, src: int, dst: int, lane: str) -> Wire:
        """Build one raw link (transport-specific)."""

    def wire(self, src: int, dst: int, lane: str) -> Wire:
        """Open (and track) one ``src -> dst`` link on ``lane``."""
        with self._lock:
            if self._closed:
                raise TransportError(
                    f"{self.name} transport is closed; cannot open wire "
                    f"{src}->{dst}/{lane}")
            w = self._create_wire(src, dst, lane)
            self._wires.append(w)
            return w

    def open_wires(self) -> int:
        """Number of tracked wires not yet closed (leak assertions)."""
        with self._lock:
            return sum(1 for w in self._wires if not w.closed)

    def close(self) -> None:
        """Close every wire ever handed out; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            wires = list(self._wires)
        for w in wires:
            w.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def describe(self) -> str:
        return f"{self.name}(size={self.size})"


def make_transport(spec: "str | Transport | None",
                   config: TransportConfig | None = None) -> Transport:
    """Resolve a transport spec: an instance or a name.

    Named transports: ``inproc`` (also what ``None`` means) and
    ``socket``.
    """
    if isinstance(spec, Transport):
        return spec
    if spec is None:
        spec = "inproc"
    from .inproc import InProcTransport
    from .socket import LocalSocketTransport

    registry = {"inproc": InProcTransport, "socket": LocalSocketTransport}
    try:
        cls = registry[spec]
    except KeyError:
        raise ValueError(
            f"unknown transport {spec!r} (choose from "
            f"{sorted(registry)})") from None
    return cls(config)
