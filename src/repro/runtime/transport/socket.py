"""Loopback TCP transport: framed, CRC-guarded pickles over localhost.

Each wire is one TCP connection on ``127.0.0.1``: the transport opens
an ephemeral listener, connects a client socket (with bounded retries
from :class:`~.base.TransportConfig`), and accepts the server side.
Payloads travel as ``pickle`` blobs behind an 8-byte header
``(length, crc32)``; a per-wire reader thread reassembles frames into
a local ``queue.Queue`` so ``get``/``poison`` keep the exact
in-process semantics (the poison sentinel never crosses the socket —
it is injected receiver-side, preserving identity comparison).

This is deliberately *loopback* TCP: it proves the transport interface
spans hosts in principle (framing, partial reads, connection setup and
teardown, byte-level corruption detection) while staying runnable in a
single test process.  A multi-host variant only needs an address book
in place of ``127.0.0.1:0``.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading
import time
import zlib

from .base import Transport, TransportConfig, TransportError, Wire, WireClosed

__all__ = ["SocketWire", "LocalSocketTransport"]

_HEADER = struct.Struct("!II")  # (payload length, crc32 of payload)

#: Refuse to frame anything above this; a corrupted length header must
#: not make the reader try to allocate gigabytes.
_MAX_FRAME = 1 << 30


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes or return ``None`` on EOF/shutdown."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketWire(Wire):
    """One TCP connection carrying framed pickles one way."""

    def __init__(self, label: str, config: TransportConfig):
        super().__init__(label)
        self._config = config
        self._q: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        self._send_lock = threading.Lock()
        #: Frames dropped because their CRC-32 did not match (observable
        #: by tests; the SPMD layer retransmits at the Channel level).
        self.crc_failures = 0

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(config.connect_timeout)
            self._send_sock = self._connect(listener.getsockname())
            self._recv_sock, _ = listener.accept()
        except OSError as exc:
            raise TransportError(
                f"wire {label}: socket setup failed: {exc}") from exc
        finally:
            listener.close()
        self._send_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = threading.Thread(
            target=self._read_loop, name=f"spmd-wire-{label}", daemon=True)
        self._reader.start()

    def _connect(self, address: tuple[str, int]) -> socket.socket:
        cfg = self._config
        backoff = cfg.connect_backoff
        last: OSError | None = None
        for attempt in range(cfg.connect_retries):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.settimeout(cfg.connect_timeout)
            try:
                sock.connect(address)
                sock.settimeout(None)
                return sock
            except OSError as exc:
                last = exc
                sock.close()
                if attempt + 1 < cfg.connect_retries:
                    time.sleep(backoff)
                    backoff *= 2
        raise TransportError(
            f"wire {self.label}: could not connect to {address} after "
            f"{cfg.connect_retries} attempts: {last}") from last

    def _read_loop(self) -> None:
        sock = self._recv_sock
        while True:
            header = _recv_exact(sock, _HEADER.size)
            if header is None:
                return
            length, crc = _HEADER.unpack(header)
            if length > _MAX_FRAME:
                return
            blob = _recv_exact(sock, length)
            if blob is None:
                return
            if zlib.crc32(blob) & 0xFFFFFFFF != crc:
                self.crc_failures += 1
                continue
            try:
                payload = pickle.loads(blob)
            except Exception:
                self.crc_failures += 1
                continue
            self._q.put(payload)

    def put(self, payload: object) -> None:
        if self._closed.is_set():
            raise WireClosed(f"wire {self.label} is closed")
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(blob), zlib.crc32(blob) & 0xFFFFFFFF) + blob
        try:
            with self._send_lock:
                self._send_sock.sendall(frame)
        except OSError as exc:
            raise WireClosed(f"wire {self.label} broke: {exc}") from exc

    def get(self, timeout: float) -> object:
        return self._q.get(timeout=timeout)

    def poison(self, sentinel: object) -> None:
        self._q.put(sentinel)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        for sock in (self._send_sock, self._recv_sock):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._reader.join(timeout=2.0)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class LocalSocketTransport(Transport):
    """Transport over loopback TCP — hosts-in-principle."""

    name = "socket"

    def __init__(self, config: TransportConfig | None = None):
        super().__init__(config)

    def _create_wire(self, src: int, dst: int, lane: str) -> Wire:
        return SocketWire(f"socket:{src}->{dst}/{lane}", self.config)

    def crc_failures(self) -> int:
        """Total byte-level CRC rejections across all wires."""
        with self._lock:
            return sum(getattr(w, "crc_failures", 0) for w in self._wires)
